"""Command-line surface tying the library into a usable tool.

Matrices are read in the shared text format (rational literals, one row
per line, ``#`` comments); all payload numbers are exact literals, with
``--approx`` adding decimal renderings alongside them, never replacing
them, on the subcommands that print such numbers (see each one's help).
Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error,
3 input error, 4 budget-truncated enumeration.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .assignment import delta, frobenius_sq, max_delta_matrix, max_trace
from .birkhoff import decompose, reduce_linear
from .enumeration import canonical_form, enumerate_erdos
from .gram import count_bound, half_identity_family
from .linalg import (
    MatrixParseError,
    NotBistochasticError,
    format_matrix,
    parse_matrix,
)
from .rational import format_ratio, format_rational, parse_rational
from .surd import Surd, omega2, omega2_classes

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_TRUNCATED = 4

WITNESS_CAP = 100


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixParseError, NotBistochasticError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="erdosmat",
        description="Verify, decompose and enumerate Erdos matrices exactly.",
    )
    parser.add_argument("--version", action="version", version=f"erdosmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check whether a bistochastic matrix is Erdos")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("--method", choices=("auto", "brute", "hungarian"), default="auto")
    _common_flags(p, "both formats")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate all Erdos classes in dimension n")
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("--max-support", type=int, default=None, metavar="M")
    p.add_argument("--budget", default=None, metavar="DURATION",
                   help="wall-clock limit, e.g. 30s, 10m, 1h")
    p.add_argument("--workers", type=int, default=1, choices=(1,),
                   help="accepted for older scripts; the walk runs in one process")
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")
    _common_flags(p, "table format only; JSON is unchanged")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="Birkhoff-von Neumann decomposition")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("--reduce", choices=("none", "affine", "linear"), default="none")
    _common_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("canon", help="canonical form under row/column permutations")
    p.add_argument("file", help="matrix file, or - for stdin")
    _common_flags(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("family", help="the Erdos matrices (I + P)/2, one per cycle type")
    p.add_argument("n", type=int)
    _common_flags(p, "table format only; JSON is unchanged")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bound", help="binomial-sum bounds on the number of Erdos matrices")
    p.add_argument("n", type=int)
    _common_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("omega2", help="diagonal entries of 2x2 matrices with a given gap")
    p.add_argument("alpha", help="rational gap in [0, 1/4]")
    _common_flags(p, "both formats")
    p.set_defaults(func=cmd_omega2)

    p = sub.add_parser("maxdelta", help="the gap maximizer I/2 + J/2 and its gap (n-1)/4")
    p.add_argument("n", type=int)
    _common_flags(p, "both formats")
    p.set_defaults(func=cmd_maxdelta)

    return parser


def _common_flags(p: argparse.ArgumentParser, approx: str = "") -> None:
    """Add ``--format``, and ``--approx`` where ``approx`` names the formats it changes."""
    p.add_argument("--format", choices=("table", "json"), default="table")
    if approx:
        p.add_argument("--approx", action="store_true",
                       help=f"add decimal renderings alongside exact literals ({approx})")


def _read_matrix(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_matrix(text, bistochastic=True)


def _matrix_json(m) -> list:
    s = m.scale
    return [[format_ratio(v, s) for v in row] for row in m.numerators]


def _emit_json(args, command: str, n: int, payload: dict) -> None:
    """Print the JSON envelope of a payload, as ``json.dumps(envelope, indent=2)`` would.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is
    set, and that encoder is a nest of closures that every call leaves
    behind as cyclic garbage.  ``_json_text`` writes the same bytes
    without either cost.
    """
    envelope = {
        "command": command,
        "n": n,
        "payload": payload,
        "tool_version": __version__,
    }
    print(_json_text(envelope, "\n"))


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested where ``pad`` is the line break.

    ``pad`` is a newline followed by the value's own indentation.  Lists
    of plain ints or of plain strs are joined in one ``str.join``; strings
    are escaped by ``json``'s own ``encode_basestring_ascii``, and numbers
    written as ``json`` writes them (``int.__repr__``, ``float.__repr__``,
    ``NaN``, ``Infinity``, ``-Infinity``).
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            encode_basestring_ascii(_json_key(k)) + ": " + _json_text(v, inner)
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: a str as it is, a scalar as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _fmt(args, value) -> str:
    text = format_rational(value)
    if args.approx:
        text += f" ~ {float(value):.6g}"
    return text


def _parse_duration(text: str) -> float:
    text = text.strip()
    number = text.lower()
    factor = 1.0
    if number.endswith(("s", "m", "h")):
        factor = {"s": 1.0, "m": 60.0, "h": 3600.0}[number[-1]]
        number = number[:-1]
    try:
        return float(number) * factor
    except ValueError:
        raise ValueError(f"malformed duration {text!r}; use e.g. 30s, 10m, 1h")


def cmd_verify(args) -> int:
    a = _read_matrix(args.file)
    cert = max_trace(a, method=args.method)
    frob = frobenius_sq(a)
    gap = cert.value - frob
    verdict = gap == 0
    witnesses = cert.witnesses[:WITNESS_CAP]
    if args.format == "json":
        payload = {
            "frob_sq": format_rational(frob),
            "maxtr": format_rational(cert.value),
            "delta": format_rational(gap),
            "erdos": verdict,
            "witnesses": [list(w.one_indexed()) for w in witnesses],
            "witness_count": len(cert.witnesses),
            "witnesses_complete": cert.complete,
            "algorithm": cert.algorithm,
        }
        if args.approx:
            payload["frob_sq_approx"] = float(frob)
            payload["maxtr_approx"] = float(cert.value)
            payload["delta_approx"] = float(gap)
        _emit_json(args, "verify", a.n, payload)
    else:
        print(f"frob_sq: {_fmt(args, frob)}")
        print(f"maxtr:   {_fmt(args, cert.value)}")
        print(f"delta:   {_fmt(args, gap)}")
        shown = " ".join(str(w) for w in witnesses)
        suffix = "" if cert.complete else " (not exhaustive)"
        print(f"witnesses ({len(witnesses)} of {len(cert.witnesses)}{suffix}): {shown}")
        print(f"algorithm: {cert.algorithm}")
        print(f"verdict: {'Erdos' if verdict else 'not Erdos'}")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_enumerate(args) -> int:
    budget = _parse_duration(args.budget) if args.budget is not None else None

    progress = None
    if not args.quiet:
        def progress(done, total):
            print(f"enumerate n={args.n}: {done}/{total} subtrees", file=sys.stderr)

    report = enumerate_erdos(
        args.n,
        max_support=args.max_support,
        budget=budget,
        progress=progress,
    )
    if args.format == "json":
        _emit_json(args, "enumerate", args.n, report.to_json())
    else:
        print(
            f"n={report.n}: {len(report.classes)} classes"
            f" ({'complete' if report.complete else 'TRUNCATED'},"
            f" {report.elapsed:.2f}s, engine {report.engine})"
        )
        print(
            f"sets visited {report.sets_visited}, rejected:"
            f" dependent {report.rejected_dependent},"
            f" negative_weight {report.rejected_negative},"
            f" maxtr_exceeded {report.rejected_maxtr}"
        )
        for k, c in enumerate(report.classes, start=1):
            support = " ".join(str(p) for p in c.support)
            weights = " ".join(format_rational(w) for w in c.weights)
            print(f"\nclass {k}: value {_fmt(args, c.common_value)}, "
                  f"sources {c.sources}")
            print(f"  support: {support}")
            print(f"  weights: {weights}")
            print("  " + format_matrix(c.canonical).replace("\n", "\n  "))
    return EXIT_OK if report.complete else EXIT_TRUNCATED


def cmd_decompose(args) -> int:
    a = _read_matrix(args.file)
    d = decompose(a)
    if args.reduce != "none":
        # affine and linear independence coincide for permutation matrices
        d = reduce_linear(d)
    if d.matrix() != a:
        raise RuntimeError("decomposition failed to reconstruct the input")
    if args.format == "json":
        payload = {
            "terms": d.to_json(),
            "term_count": len(d),
            "reduce": args.reduce,
        }
        _emit_json(args, "decompose", a.n, payload)
    else:
        for c, p in d:
            print(f"{format_rational(c)}  {p}")
    return EXIT_OK


def cmd_canon(args) -> int:
    a = _read_matrix(args.file)
    c = canonical_form(a)
    if args.format == "json":
        _emit_json(args, "canon", a.n, {"matrix": _matrix_json(c)})
    else:
        print(format_matrix(c))
    return EXIT_OK


def cmd_family(args) -> int:
    mats = half_identity_family(args.n)
    if args.format == "json":
        payload = {
            "count": len(mats),
            "matrices": [
                {"matrix": _matrix_json(a), "frob_sq": format_rational(frobenius_sq(a))}
                for a in mats
            ],
        }
        _emit_json(args, "family", args.n, payload)
    else:
        for k, a in enumerate(mats, start=1):
            print(f"matrix {k}: frob_sq {_fmt(args, frobenius_sq(a))}")
            print(format_matrix(a))
            print()
    return EXIT_OK


def cmd_bound(args) -> int:
    total, equivalence = count_bound(args.n)
    if args.format == "json":
        payload = {"total_bound": total, "equivalence_bound": equivalence}
        _emit_json(args, "bound", args.n, payload)
    else:
        print(f"total bound:       {total}")
        print(f"equivalence bound: {equivalence}")
    return EXIT_OK


def cmd_omega2(args) -> int:
    alpha = parse_rational(args.alpha)
    sols = omega2(alpha)
    classes = omega2_classes(alpha)
    if args.format == "json":
        payload = {
            "alpha": format_rational(alpha),
            "solutions": [str(s) for s in sols],
            "class_count": len(classes),
        }
        if args.approx:
            payload["solutions_approx"] = [_surd_float(s) for s in sols]
        _emit_json(args, "omega2", 2, payload)
    else:
        for s in sols:
            line = str(s)
            if args.approx:
                line += f" ~ {_surd_float(s):.6g}"
            print(line)
        print(f"classes up to p <-> 1-p: {len(classes)}")
    return EXIT_OK


def cmd_maxdelta(args) -> int:
    a = max_delta_matrix(args.n)
    gap = delta(a)
    if args.format == "json":
        payload = {"matrix": _matrix_json(a), "delta": format_rational(gap)}
        if args.approx:
            payload["delta_approx"] = float(gap)
        _emit_json(args, "maxdelta", args.n, payload)
    else:
        print(format_matrix(a))
        print(f"delta: {_fmt(args, gap)}")
    return EXIT_OK


def _surd_float(s: Surd) -> float:
    return float(s.a) + float(s.b) * math.sqrt(s.d)


if __name__ == "__main__":
    sys.exit(main())
