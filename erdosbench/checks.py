"""Checks of the program's JSON outputs against the oracle.

Each check returns a list of error strings; an empty list means the
outputs are correct.  None of them calls erdosmat.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import oracle

REFERENCE_N4 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "reference", "n4-max-support-6.json")


def _images(one_indexed) -> tuple:
    return tuple(v - 1 for v in one_indexed)


def check_catalog(n: int, payload: dict, expected: set | None = None) -> list:
    """Classes of ``enumerate -n n``: Erdos, inequivalent, closed, as expected.

    ``expected`` is a set of oracle class keys the class set must equal.
    """
    errors = []
    classes = payload.get("classes", [])
    if payload.get("complete") is not True:
        errors.append(f"n={n}: run reported complete={payload.get('complete')!r}")
    if payload.get("class_count") != len(classes):
        errors.append(f"n={n}: class_count {payload.get('class_count')} != {len(classes)} classes")
    keys = []
    for k, c in enumerate(classes):
        where = f"n={n} class {k + 1}"
        a = oracle.parse_rows(c["matrix"])
        if len(a) != n or not oracle.is_bistochastic(a):
            errors.append(f"{where}: not an {n}x{n} bistochastic matrix")
            continue
        frob = oracle.frob_sq(a)
        if oracle.max_trace(a) != frob:
            errors.append(f"{where}: not Erdos (maximal trace != squared norm)")
        if Fraction(c["value"]) != frob:
            errors.append(f"{where}: value {c['value']} != squared norm {frob}")
        weights = [Fraction(w) for w in c["weights"]]
        perms = [_images(p) for p in c["support"]]
        if any(w <= 0 for w in weights) or sum(weights) != 1 or len(perms) != len(weights):
            errors.append(f"{where}: support weights are not a convex combination")
        key = oracle.class_key(a)
        if oracle.brute_class_key(a) != key:
            errors.append(f"{where}: the oracle's two canonical forms disagree")
        if len(perms) == len(weights) and perms and \
                oracle.class_key(oracle.combine(weights, perms)) != key:
            errors.append(f"{where}: support and weights do not build an equivalent matrix")
        keys.append(key)
    # keys are brute-force canonical forms (checked equal just above), so
    # equal keys mean equivalent classes
    keyset = set(keys)
    if len(keyset) != len(keys):
        errors.append(f"n={n}: {len(keys) - len(keyset)} classes are equivalent to another")
    for k, c in enumerate(classes):
        a = oracle.parse_rows(c["matrix"])
        if len(a) == n and oracle.class_key(oracle.transpose(a)) not in keyset:
            errors.append(f"n={n} class {k + 1}: transpose is not in the class set")
    for name, a in [("I", oracle.identity(n))] + [
        (f"(I+P)/2 #{k}", m) for k, m in enumerate(oracle.half_identity_family(n))
    ]:
        if oracle.class_key(a) not in keyset:
            errors.append(f"n={n}: {name} is missing from the class set")
    if expected is not None:
        missing, extra = len(expected - keyset), len(keyset - expected)
        if missing or extra:
            errors.append(
                f"n={n}: class set differs from the reference"
                f" ({missing} missing, {extra} unexpected, {len(expected)} expected)"
            )
    return errors


def keys_of(matrices) -> set:
    return {oracle.class_key(a) for a in matrices}


def reference_n4_keys() -> set:
    with open(REFERENCE_N4, encoding="utf-8") as fh:
        ref = json.load(fh)
    return keys_of(oracle.parse_rows(row.split() for row in m) for m in ref["classes"])


def shallow_keys(n: int, max_support: int) -> set:
    """Class keys recomputed from every support of at most ``max_support``."""
    walk = oracle.gram_walk(n, max_support)
    return {oracle.class_key(oracle.key_matrix(raw)) for raw in walk["raw"]}


def check_verify(items: list, results: list) -> list:
    """``verify --format json`` payloads against the integer brute force."""
    errors = []
    for item, (rc, payload) in zip(items, results):
        where = item["name"]
        a, n = item["matrix"], item["n"]
        value, witnesses = oracle.brute_max_trace(a)
        frob = oracle.frob_sq(a)
        verdict = value == frob
        if item["erdos"] and not verdict:
            errors.append(f"{where}: input built as Erdos is not Erdos")
        if Fraction(payload["maxtr"]) != value:
            errors.append(f"{where}: maxtr {payload['maxtr']} != {value}")
        if Fraction(payload["frob_sq"]) != frob:
            errors.append(f"{where}: frob_sq {payload['frob_sq']} != {frob}")
        if payload["erdos"] is not verdict:
            errors.append(f"{where}: verdict {payload['erdos']} != {verdict}")
        if rc != (0 if verdict else 1):
            errors.append(f"{where}: exit code {rc} does not match the verdict")
        gap = Fraction(payload["delta"])
        if gap != value - frob or not 0 <= gap <= Fraction(n - 1, 4):
            errors.append(f"{where}: gap {payload['delta']} is wrong or outside [0, (n-1)/4]")
        if item["kind"] == "gap-max" and gap != Fraction(n - 1, 4):
            errors.append(f"{where}: gap maximizer has gap {gap}, not (n-1)/4")
        for w in payload["witnesses"]:
            if oracle.inner(a, _images(w)) != value:
                errors.append(f"{where}: witness {w} does not attain the maximal trace")
                break
        if payload["witnesses_complete"] and payload["witness_count"] != len(witnesses):
            errors.append(f"{where}: {payload['witness_count']} witnesses, expected {len(witnesses)}")
    return errors


def check_decompose(items: list, results: list) -> list:
    """``decompose --reduce linear`` payloads: exact, convex, small, independent."""
    errors = []
    for item, (rc, payload) in zip(items, results):
        where = item["name"]
        a, n = item["matrix"], item["n"]
        terms = payload["terms"]
        weights = [Fraction(t["coef"]) for t in terms]
        perms = [_images(t["perm"]) for t in terms]
        if rc != 0:
            errors.append(f"{where}: exit code {rc}")
        if any(w <= 0 for w in weights) or sum(weights) != 1:
            errors.append(f"{where}: weights are not positive or do not sum to 1")
        if len(set(perms)) != len(perms) or payload["term_count"] != len(terms):
            errors.append(f"{where}: repeated permutations or a wrong term_count")
        if len(terms) > (n - 1) ** 2 + 1:
            errors.append(f"{where}: {len(terms)} terms exceed (n-1)^2+1")
        if oracle.combine(weights, perms) != a:
            errors.append(f"{where}: the terms do not reassemble the input")
        if not oracle.perms_independent(perms):
            errors.append(f"{where}: the reduced support is linearly dependent")
        if item["erdos"]:
            top = oracle.hungarian_max_trace(a)
            if top != oracle.frob_sq(a):
                errors.append(f"{where}: input built as Erdos is not Erdos")
            if any(oracle.inner(a, p) != top for p in perms):
                errors.append(f"{where}: a support permutation misses the maximal trace")
    return errors
