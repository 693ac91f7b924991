"""One benchmark run, in the process whose set-up it times.

Started by run.py with the wall-clock time just before this process was
created (``--t0``).  Imports erdosmat from ``src/``, times whole rounds of
the workload's operations through ``erdosmat.cli.main`` called in-process
with ``--format json``, checks every output against the oracle, and
prints one JSON result as its last line.  See README.md.
"""

from __future__ import annotations

import sys
import time
from os.path import abspath, dirname, join

ROOT = dirname(dirname(abspath(__file__)))
sys.path.insert(0, join(ROOT, "src"))
try:
    import erdosmat.cli
except ImportError as exc:
    print(f"error: cannot import erdosmat from {join(ROOT, 'src')}: {exc}", file=sys.stderr)
    sys.exit(3)
READY = time.time()

import argparse  # noqa: E402  (after the timed set-up)
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = dirname(abspath(__file__))
RESULTS = join(HERE, "results")
MIN_ROUNDS = 2
# catalog workloads: (n, max support, the class keys the catalog must have)
CATALOGS = {
    "catalog-n4": (4, 6, checks.reference_n4_keys),
    "catalog-n5-shallow": (5, 3, lambda: checks.shallow_keys(5, 3)),
}


def enumerate_argv(n: int, max_support: int | None = None) -> list:
    argv = ["enumerate", "-n", str(n), "--workers", "1", "--quiet", "--format", "json"]
    return argv + (["--max-support", str(max_support)] if max_support else [])


class Run:
    """The operations of one run and everything measured about them."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures = []  # operations that raised or printed no result
        self.errors = []  # outputs the checks reject
        self.program = {}
        self.ops = []  # argv of each timed operation
        self.items = []  # verify / decompose inputs, one per operation
        self._build()

    def _build(self) -> None:
        w = self.workload
        if w in CATALOGS:
            n, max_support, _ = CATALOGS[w]
            self.ops = [enumerate_argv(n, max_support)]
        elif w in ("verify", "decompose"):
            make = inputs.verify_inputs if w == "verify" else inputs.decompose_inputs
            self.items = make(self.seed)
            for item in self.items:
                path = join(self.workdir, item["name"] + ".txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inputs.matrix_text(item["matrix"]))
                argv = ["verify", path, "--format", "json"] if w == "verify" else \
                    ["decompose", path, "--reduce", "linear", "--format", "json"]
                self.ops.append(argv)
        else:
            raise ValueError(f"unknown workload {w!r}")

    def call(self, argv):
        """(exit code, payload) of one CLI call, or None when it failed."""
        self.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = erdosmat.cli.main(argv)
            payload = json.loads(buf.getvalue())["payload"]
        except (Exception, SystemExit) as exc:  # a failed operation, counted
            self.failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            return None
        if argv[0] == "enumerate":
            self.program.setdefault("engine", payload.get("engine"))
            self.program.setdefault("workers", payload.get("workers"))
        return rc, payload

    def round(self, tracer=None):
        """Time one round; returns ([op s], [results])."""
        times, results = [], []
        clock = time.perf_counter
        for k, argv in enumerate(self.ops):
            if tracer is not None:
                tracer.op = k
            t = clock()
            result = self.call(argv)
            times.append(clock() - t)
            results.append(result)
        return times, results


def _comparable(results):
    """Results without the fields that legitimately vary between calls."""
    out = []
    for r in results:
        if r is not None:
            rc, payload = r
            r = (rc, {k: v for k, v in payload.items() if k != "elapsed_seconds"})
        out.append(r)
    return out


def check(run: Run, results) -> list:
    """Errors in the outputs of the operations that did not fail."""
    w = run.workload
    if w in ("verify", "decompose"):
        pairs = [(item, r) for item, r in zip(run.items, results) if r is not None]
        items, outs = [p[0] for p in pairs], [p[1] for p in pairs]
        return (checks.check_verify if w == "verify" else checks.check_decompose)(items, outs)
    n, _, expected = CATALOGS[w]
    errors = checks.check_catalog(n, results[0][1], expected()) if results[0] else []
    if w == "catalog-n4":
        # the complete n = 2 and n = 3 catalogs, untimed, against the published lists
        for small, classes in ((2, oracle.N2_CLASSES), (3, oracle.N3_CLASSES)):
            r = run.call(enumerate_argv(small))
            if r is not None:
                errors += checks.check_catalog(small, r[1], checks.keys_of(classes))
    return errors


def end_to_end(rounds) -> dict:
    """wall_s: the median round; op_p50_ms: the median of every operation timed."""
    return {
        "wall_s": {"value": statistics.median(sum(times) for times in rounds), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(t for times in rounds for t in times) * 1000,
                      "unit": "ms"},
    }


def layer_metrics(tracer, traced, untraced, results):
    """(per-layer metrics per traced round, names of the absent ones).

    Every metric holds exactly ``value`` and ``unit``.  One whose function
    no longer exists, or whose counter the program's output lacks, has
    value 0 and is named in the second list.
    """
    k = len(traced)
    metrics = {}
    absent = []

    def put(name, unit, value):
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}

    def total(names, field):
        names = [n for n in names if n in tracer.present]
        if not names:
            return None
        return sum(tracer.totals[n][field] for n in names) / k

    def self_s(*names):
        return total(names, 2)

    def calls(*names):
        return total(names, 0)

    put("kernels.run_shard.s", "s", self_s("kernels.run_shard"))
    put("kernels.run_shard.calls", "count", calls("kernels.run_shard"))

    enum = [p for r in results if r is not None for p in [r[1]] if "sets_visited" in p]
    visited = sum(p["sets_visited"] for p in enum) if enum else None
    sources = sum(c.get("sources", 0) for p in enum for c in p.get("classes", []))
    wall = statistics.fmean(sum(times) for times in untraced)
    put("enumeration.sets_visited", "count", visited)
    put("enumeration.nodes_per_s", "1/s", visited / wall if visited else None)
    put("enumeration.accept_ratio", "ratio", sources / visited if visited else None)
    put("enumeration.canonical_form.s", "s", self_s("enumeration.canonical_form"))
    put("enumeration.canonical_form.calls", "count", calls("enumeration.canonical_form"))
    put("enumeration.get_tables.s", "s", self_s("enumeration.get_tables"))
    put("enumeration.driver.s", "s", self_s("enumeration.enumerate_erdos"))
    put("enumeration.build_classes.s", "s", self_s("enumeration._build_classes"))

    gram = ("gram.pipeline", "gram._pipeline_known_independent")
    put("gram.pipeline.s", "s", self_s(*gram))
    put("gram.pipeline.calls", "count", calls(*gram))

    put("assignment.max_trace.s", "s", self_s("assignment.max_trace"))
    put("assignment.max_trace.calls", "count", calls("assignment.max_trace"))
    put("perms.all_permutations.s", "s", self_s("perms.all_permutations"))

    for f in ("decompose", "reduce_linear", "reduce_affine"):
        put(f"birkhoff.{f}.s", "s", self_s(f"birkhoff.{f}"))
    for metric, name in (("terms_in", "birkhoff.decompose"), ("terms_out", "birkhoff.reduce_linear")):
        put(f"birkhoff.{metric}", "count",
            sum(tracer.results[name]) / k if name in tracer.present else None)

    put("linalg.elimination.s", "s", self_s(*(
        f"linalg.{f}" for f in ("solve", "solve_tall", "inverse", "det", "rank",
                                "kernel_vector", "linear_independent", "affine_independent"))))
    put("linalg.parse_matrix.s", "s", self_s("linalg.parse_matrix"))
    put("cli.self.s", "s", self_s("cli.main"))
    # The tracer's own cost: its wrappers' work outside the calls they wrap.
    # The traced round minus the untraced one (kept in the result file) is
    # dominated by the machine's drift between rounds, and can be negative.
    put("trace.overhead_s", "s", tracer.bookkeeping_s / k)
    return metrics, absent


def machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    setup_s = READY - args.t0

    os.makedirs(RESULTS, exist_ok=True)
    workdir = join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(args.workload, args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        traced, untraced = [], []  # per round, the time of each operation
        first = None
        begin = time.perf_counter()
        # Whole rounds until --seconds have passed, and at least MIN_ROUNDS
        # untraced ones.  A traced run alternates traced and untraced
        # rounds, starting traced, and has at least one of each.
        least = 1 if tracer else MIN_ROUNDS
        while (time.perf_counter() - begin < args.seconds
               or len(untraced) < least or (tracer is not None and not traced)):
            tracing = tracer is not None and len(traced) <= len(untraced)
            if tracing:
                tracer.install(count_results=("birkhoff.decompose", "birkhoff.reduce_linear"))
            try:
                times, results = run.round(tracer if tracing else None)
            finally:
                if tracing:
                    tracer.remove()
            (traced if tracing else untraced).append(times)
            if first is None:
                first = results
            elif _comparable(results) != _comparable(first):
                run.errors.append("outputs differ between rounds")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        run.errors += check(run, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent = []
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            **end_to_end(untraced),
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics, absent = layer_metrics(tracer, traced, untraced, first)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "program": {"tool_version": erdosmat.__version__, **run.program},
        "attempted": run.attempted,
        "failures": run.failures,
        "errors": run.errors,
        "rounds": {"untraced": untraced, "traced": traced},
        "round_difference_s": (statistics.fmean(sum(t) for t in traced)
                               - statistics.fmean(sum(t) for t in untraced)) if traced else None,
        "metrics": metrics,
        "absent": absent,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(join(RESULTS, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    for e in run.failures:
        print(f"failed: {e}", file=sys.stderr)
    for e in run.errors:
        print(f"check: {e}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "program": record["program"],
                      "absent": absent}))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
