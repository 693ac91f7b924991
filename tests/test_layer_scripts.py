"""The layer scripts in ``benchmarks/`` run, and compute what their committed results record.

Each script runs one timed round in a child process.  Its report must
have the key layout of the committed ``BENCH_*.json`` and the same
counts and digests as that file's ``checkout`` side.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / f"{script}_layers.py"), "--rounds", "1", *args],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout)


def _keys(obj):
    return {k: _keys(v) for k, v in obj.items()} if isinstance(obj, dict) else None


def _facts(side):
    """A side's report without its timings; the walk's has one block per run of its plan."""
    if not any(k.startswith("seconds_per_") for k in side):
        return {entry: _facts(block) for entry, block in side.items()}
    return {k: v for k, v in side.items() if not k.startswith("seconds_per_")}


@pytest.mark.parametrize("script", ["walk", "verify", "decompose"])
def test_layer_script_matches_committed_results(script):
    committed = json.loads((ROOT / f"BENCH_{script}.json").read_text(encoding="utf-8"))
    result = _run(script)
    assert result["benchmark"] == committed["benchmark"]
    assert _keys(result["machine"]) == _keys(committed["machine"])
    assert _keys(result["plan"]) == _keys(committed["plan"])
    assert list(result["sides"]) == ["checkout"]
    side, expected = result["sides"]["checkout"], committed["sides"]["checkout"]
    assert _keys(side) == _keys(expected)
    assert _facts(side) == _facts(expected)


def test_layer_script_pairs_with_a_baseline():
    result = _run("verify", "--pairs", "2", "--baseline", str(ROOT))
    assert result["plan"]["runs_per_side"] == 2
    baseline, checkout = result["sides"]["baseline"], result["sides"]["checkout"]
    assert set(baseline["seconds_per_round"]) == {
        "parse_matrix", "max_trace", "frobenius_sq", "emit_json", "total"}
    assert _facts(baseline) == _facts(checkout)
