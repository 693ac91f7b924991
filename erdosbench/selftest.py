#!/usr/bin/env python3
"""Show that the benchmark's checks reject corrupted outputs.

Runs real operations through ``erdosmat.cli.main`` (the n = 3, 4 and
5-shallow catalogs, a few verifications and decompositions), confirms
that the checks accept them, then corrupts each output in one way and
confirms that the checks reject it.  Exits 1 if a clean output fails or a
corrupted one passes.  Takes about half a minute.

Usage: python3 erdosbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import erdosmat.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

ENUMERATE = ["--workers", "1", "--quiet", "--format", "json"]


def cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = erdosmat.cli.main(argv)
    return rc, json.loads(buf.getvalue())["payload"]


def literal(x: Fraction) -> str:
    return oracle.format_rows([[x]])[0][0]


# -- corruptions: each takes a deep copy of an output and damages it -------


def perturb_class(payload):
    """Move 1/100 around a 2x2 cycle of the first class with room for it."""
    for c in payload["classes"]:
        a = oracle.parse_rows(c["matrix"])
        n = len(a)
        for i in range(n):
            for j in range(n):
                k, l = (i + 1) % n, (j + 1) % n
                if a[i][l] > 0 and a[k][j] > 0:
                    eps = min(a[i][l], a[k][j], Fraction(1, 100))
                    a[i][j] += eps
                    a[k][l] += eps
                    a[i][l] -= eps
                    a[k][j] -= eps
                    c["matrix"] = oracle.format_rows(a)
                    return payload
    raise RuntimeError("no class can be perturbed")


def drop_class(payload):
    payload["classes"].pop(1)
    payload["class_count"] -= 1
    return payload


def duplicate_class(payload):
    """Replace the last class by a row/column permutation of the first."""
    a = oracle.parse_rows(payload["classes"][0]["matrix"])
    n = len(a)
    rows, cols = list(range(n))[::-1], list(range(1, n)) + [0]
    dup = copy.deepcopy(payload["classes"][0])
    dup["matrix"] = oracle.format_rows(oracle.permute(a, rows, cols))
    payload["classes"][-1] = dup
    return payload


def wrong_value(payload):
    c = payload["classes"][0]
    c["value"] = literal(Fraction(c["value"]) + Fraction(1, 7))
    return payload


def incomplete(payload):
    payload["complete"] = False
    return payload


def flip_verdict(results):
    rc, p = results[0]
    p["erdos"] = not p["erdos"]
    return results


def wrong_maxtr(results):
    rc, p = results[-1]
    p["maxtr"] = literal(Fraction(p["maxtr"]) + Fraction(1, 3))
    return results


def wrong_witness(results):
    rc, p = results[-1]
    n = len(p["witnesses"][0])
    p["witnesses"][0] = [2, 1] + list(range(3, n + 1)) if p["witnesses"][0][:2] != [2, 1] \
        else [1, 2] + list(range(3, n + 1))
    return results


def wrong_exit_code(results):
    rc, p = results[0]
    results[0] = (1 - rc, p)
    return results


def _multi_term(results):
    """The first decomposition with at least two terms."""
    return next(p for rc, p in results if len(p["terms"]) >= 2)


def perturb_weight(results):
    t = _multi_term(results)["terms"]
    t[0]["coef"] = literal(Fraction(t[0]["coef"]) + Fraction(1, 1000))
    t[1]["coef"] = literal(Fraction(t[1]["coef"]) - Fraction(1, 1000))
    return results


def swap_permutation(results):
    perm = _multi_term(results)["terms"][0]["perm"]
    perm[0], perm[1] = perm[1], perm[0]
    return results


def main() -> int:
    bad = 0

    def expect(name, errors, clean):
        nonlocal bad
        ok = not errors if clean else bool(errors)
        bad += not ok
        verdict = ("accepted" if not errors else "REJECTED") if clean else \
            ("rejected" if errors else "NOT CAUGHT")
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}"
              + (f" ({errors[0]})" if errors else ""))

    catalogs = [
        (3, ["enumerate", "-n", "3"], checks.keys_of(oracle.N3_CLASSES)),
        (4, ["enumerate", "-n", "4", "--max-support", "6"], checks.reference_n4_keys()),
        (5, ["enumerate", "-n", "5", "--max-support", "3"], checks.shallow_keys(5, 3)),
    ]
    for n, argv, expected in catalogs:
        _, payload = cli(argv + ENUMERATE)
        expect(f"catalog n={n}", checks.check_catalog(n, payload, expected), clean=True)
        for corrupt in (perturb_class, drop_class, duplicate_class, wrong_value, incomplete):
            errors = checks.check_catalog(n, corrupt(copy.deepcopy(payload)), expected)
            expect(f"catalog n={n} {corrupt.__name__}", errors, clean=False)

    with tempfile.TemporaryDirectory() as tmp:
        for workload, make, argv, check, corruptions in (
            ("verify", inputs.verify_inputs, ["verify"], checks.check_verify,
             (flip_verdict, wrong_maxtr, wrong_witness, wrong_exit_code)),
            ("decompose", inputs.decompose_inputs, ["decompose", "--reduce", "linear"],
             checks.check_decompose, (perturb_weight, swap_permutation, wrong_exit_code)),
        ):
            items = [x for x in make(1) if x["n"] <= 8][:6]
            results = []
            for item in items:
                path = os.path.join(tmp, item["name"] + ".txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inputs.matrix_text(item["matrix"]))
                results.append(cli(argv[:1] + [path] + argv[1:] + ["--format", "json"]))
            expect(workload, check(items, results), clean=True)
            for corrupt in corruptions:
                errors = check(items, corrupt(copy.deepcopy(results)))
                expect(f"{workload} {corrupt.__name__}", errors, clean=False)

    # a dependent support that still reassembles its matrix exactly:
    # the six permutations of S_3 (even and odd sums agree), beside I_5
    s3 = [p + tuple(range(3, 8)) for p in itertools.permutations(range(3))]
    a = oracle.combine([Fraction(1, 6)] * 6, s3)
    item = {"name": "J3+I5", "n": 8, "kind": "erdos-sum", "erdos": True, "matrix": a}
    terms = [{"coef": "1/6", "perm": [v + 1 for v in p]} for p in s3]
    errors = checks.check_decompose([item], [(0, {"terms": terms, "term_count": 6})])
    expect("decompose dependent support", errors, clean=False)

    print("all corruptions caught" if not bad else f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
