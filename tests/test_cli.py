import json
import time
from fractions import Fraction

import pytest

from erdosmat import __version__, cli
from erdosmat.birkhoff import ConvexDecomposition, decompose
from erdosmat.cli import main
from erdosmat.enumeration import canonical_form
from erdosmat.linalg import BistochasticMatrix, format_matrix, parse_matrix
from erdosmat.perms import Permutation
from erdosmat.rational import format_rational

F = Fraction

R_TEXT = "# R\n3/5 0 2/5\n0 3/5 2/5\n2/5 2/5 1/5\n"


@pytest.fixture
def r_file(tmp_path):
    path = tmp_path / "R.txt"
    path.write_text(R_TEXT)
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_verify_erdos(r_file, capsys):
    assert main(["verify", r_file]) == 0
    out = capsys.readouterr().out
    assert "frob_sq: 7/5" in out
    assert "maxtr:   7/5" in out
    assert "algorithm: hungarian-tight" in out
    assert "verdict: Erdos" in out


def test_verify_json_envelope(r_file, capsys):
    assert main(["verify", r_file, "--format", "json"]) == 0
    env = _json_out(capsys)
    assert set(env) == {"command", "n", "payload", "tool_version"}
    assert env["command"] == "verify"
    assert env["n"] == 3
    assert env["tool_version"] == __version__
    payload = env["payload"]
    assert payload["frob_sq"] == "7/5"
    assert payload["delta"] == "0"
    assert payload["erdos"] is True
    assert payload["witness_count"] == 3
    assert [1, 2, 3] in payload["witnesses"]
    assert payload["witnesses_complete"] is True
    assert payload["algorithm"] == "hungarian-tight"


def test_verify_not_erdos(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2/3 1/6 1/6\n1/6 2/3 1/6\n1/6 1/6 2/3\n")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "delta:   1/2" in out
    assert "not Erdos" in out


def test_verify_approx_adds_decimals(r_file, capsys):
    assert main(["verify", r_file, "--approx"]) == 0
    assert "7/5 ~ 1.4" in capsys.readouterr().out


def test_verify_bad_row(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1/2 2/5\n1/2 1/2\n")
    assert main(["verify", str(path)]) == 3
    assert "row 1 sums to 9/10" in capsys.readouterr().err


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1/2 oops\n")
    assert main(["verify", str(path)]) == 3
    assert "line 1, entry 2" in capsys.readouterr().err


def test_verify_rejects_non_ascii_digits(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1/2 1/2\n1/\uff12 1/2\n", encoding="utf-8")
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: line 2, entry 1: malformed rational literal '1/\uff12'\n")


def test_undecodable_input_is_an_input_error(tmp_path, monkeypatch, capsys):
    import io

    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff 1\n")
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    # stdin decoded strictly, as under a UTF-8 locale
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff 1\n"), encoding="utf-8"))
    assert main(["verify", "-"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/m.txt"]) == 3


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_parser_reused_across_calls(r_file, capsys):
    # main builds its parser once per process; consecutive calls, a usage
    # error among them, still parse afresh
    assert main(["verify", r_file]) == 0
    assert "verdict: Erdos" in capsys.readouterr().out
    assert main(["enumerate", "-n", "2", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=2: 2 classes (complete,")
    assert "verdict" not in out
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert "the following arguments are required: file" in capsys.readouterr().err
    assert main(["verify", r_file, "--format", "json"]) == 0
    assert _json_out(capsys)["payload"]["erdos"] is True


def test_enumerate_n2_json(capsys):
    assert main(["enumerate", "-n", "2", "--quiet", "--format", "json"]) == 0
    env = _json_out(capsys)
    assert env["payload"]["class_count"] == 2
    assert env["payload"]["complete"] is True
    for entry in env["payload"]["classes"]:
        assert set(entry) == {"matrix", "support", "weights", "value", "sources"}


def test_enumerate_progress_on_stderr(capsys):
    # one line per finished subtree of a least pair {I, g}, 4 of them at n = 4
    assert main(["enumerate", "-n", "4", "--max-support", "3"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [f"enumerate n=4: {k}/4 subtrees" for k in range(1, 5)]
    assert main(["enumerate", "-n", "4", "--max-support", "3", "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_enumerate_bad_n(capsys):
    assert main(["enumerate", "-n", "9", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_bad_budget(capsys):
    assert main(["enumerate", "-n", "2", "--budget", "tomorrow", "--quiet"]) == 2
    assert "malformed duration 'tomorrow'" in capsys.readouterr().err
    # an empty or blank duration is malformed, not "no budget"
    for budget in ("", "  "):
        assert main(["enumerate", "-n", "2", "--budget", budget, "--quiet"]) == 2
        assert "malformed duration ''" in capsys.readouterr().err
    # the unit is quoted as given
    for budget in ("abcm", "s"):
        assert main(["enumerate", "-n", "2", "--budget", budget, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed duration '{budget}'; use e.g. 30s, 10m, 1h\n")
    for budget in ("nan", "0s"):
        assert main(["enumerate", "-n", "2", "--budget", budget, "--quiet"]) == 2
        assert "budget must be positive" in capsys.readouterr().err


def test_enumerate_infinite_budget(capsys):
    assert main(["enumerate", "-n", "2", "--budget", "inf", "--quiet"]) == 0


def test_enumerate_workers_flag_accepts_only_1(capsys):
    # --workers stays in the parser for scripts that pass --workers 1;
    # the walk runs in one process
    assert main(["enumerate", "-n", "3", "--quiet", "--format", "json"]) == 0
    without = _json_out(capsys)
    assert main(["enumerate", "-n", "3", "--quiet", "--format", "json", "--workers", "1"]) == 0
    with_flag = _json_out(capsys)
    for env in (without, with_flag):
        assert "workers" not in env["payload"]
        env["payload"].pop("elapsed_seconds")
    assert with_flag == without
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-n", "3", "--quiet", "--workers", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 2" in capsys.readouterr().err


def test_enumerate_budget_truncates(capsys):
    t0 = time.perf_counter()
    code = main(["enumerate", "-n", "4", "--budget", "0.05s", "--quiet"])
    assert time.perf_counter() - t0 < 0.05 + 1.0
    assert code == 4


def test_decompose(r_file, capsys):
    assert main(["decompose", r_file]) == 0
    out = capsys.readouterr().out
    assert "1/5  id" in out
    assert main(["decompose", r_file, "--reduce", "linear", "--format", "json"]) == 0
    env = _json_out(capsys)
    assert env["payload"]["term_count"] == 3
    # the bottleneck term first: the least entry of (1 3) is 2/5
    assert env["payload"]["terms"][0] == {"coef": "2/5", "perm": [3, 2, 1]}


def test_decompose_reconstruction_is_checked(r_file, monkeypatch, capsys):
    # valid decompositions of other matrices: I_3, and R's own support
    # with its weights rotated
    terms = list(decompose(parse_matrix(R_TEXT, bistochastic=True)))
    rotated = [(terms[(k + 1) % len(terms)][0], p) for k, (_, p) in enumerate(terms)]
    for other in (ConvexDecomposition([(1, Permutation.identity(3))]),
                  ConvexDecomposition(rotated)):
        # --reduce affine and --reduce linear run the one reduction
        monkeypatch.setattr(cli, "reduce_linear", lambda d, other=other: other)
        for reduce in ("affine", "linear"):
            with pytest.raises(RuntimeError,
                               match="decomposition failed to reconstruct the input"):
                main(["decompose", r_file, "--reduce", reduce])
    assert capsys.readouterr().out == ""


def test_decompose_affine_and_linear_payloads_differ_only_in_reduce(r_file, tmp_path, capsys):
    j4 = tmp_path / "J4.txt"
    j4.write_text(format_matrix(BistochasticMatrix.uniform(4)) + "\n")
    for path in (r_file, str(j4)):
        payloads = {}
        for reduce in ("affine", "linear"):
            assert main(["decompose", path, "--reduce", reduce, "--format", "json"]) == 0
            payloads[reduce] = _json_out(capsys)["payload"]
        assert payloads["affine"].pop("reduce") == "affine"
        assert payloads["linear"].pop("reduce") == "linear"
        assert payloads["affine"] == payloads["linear"]


def test_decompose_permutation_single_term(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("0 1 0\n0 0 1\n1 0 0\n")
    assert main(["decompose", str(path), "--format", "json"]) == 0
    assert _json_out(capsys)["payload"]["term_count"] == 1


def test_canon_round_trip(r_file, capsys):
    assert main(["canon", r_file]) == 0
    out = capsys.readouterr().out
    reparsed = parse_matrix(out, bistochastic=True)
    a = parse_matrix(R_TEXT, bistochastic=True)
    assert reparsed == canonical_form(a)


def test_family(capsys):
    assert main(["family", "3", "--format", "json"]) == 0
    env = _json_out(capsys)
    assert env["payload"]["count"] == 3
    frobs = {m["frob_sq"] for m in env["payload"]["matrices"]}
    assert frobs == {"3/2", "2", "3"}
    for m in env["payload"]["matrices"]:
        text = "\n".join(" ".join(row) for row in m["matrix"])
        reparsed = parse_matrix(text, bistochastic=True)
        assert reparsed.n == 3


def test_bound(capsys):
    assert main(["bound", "3", "--format", "json"]) == 0
    env = _json_out(capsys)
    assert env["payload"] == {"total_bound": 62, "equivalence_bound": 31}
    assert main(["bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "62" in out and "31" in out


def test_omega2(capsys):
    assert main(["omega2", "0", "--format", "json"]) == 0
    env = _json_out(capsys)
    assert env["payload"]["solutions"] == ["0", "1/2", "1"]
    assert env["payload"]["class_count"] == 2
    assert main(["omega2", "1/8", "--approx"]) == 0
    out = capsys.readouterr().out
    assert "1/4 - 1/8*sqrt(2) ~ 0.0732233" in out


def test_omega2_out_of_range(capsys):
    assert main(["omega2", "1/3"]) == 2
    assert main(["omega2", "0.1"]) == 2


def test_maxdelta(capsys):
    assert main(["maxdelta", "2", "--format", "json"]) == 0
    env = _json_out(capsys)
    assert env["payload"]["matrix"] == [["3/4", "1/4"], ["1/4", "3/4"]]
    assert env["payload"]["delta"] == "1/4"


def test_matrix_payloads_print_each_entry_in_lowest_terms(r_file, capsys):
    # canon, family and maxdelta write matrices from numerators and scale,
    # decompose its coefficients from theirs: each entry as format_rational prints it
    from erdosmat.assignment import max_delta_matrix
    from erdosmat.gram import half_identity_family

    def entries(m):
        return [[format_rational(e) for e in row] for row in m]

    a = parse_matrix(R_TEXT, bistochastic=True)
    assert main(["canon", r_file, "--format", "json"]) == 0
    assert _json_out(capsys)["payload"]["matrix"] == entries(canonical_form(a))
    assert main(["family", "4", "--format", "json"]) == 0
    assert [m["matrix"] for m in _json_out(capsys)["payload"]["matrices"]] == [
        entries(m) for m in half_identity_family(4)]
    for n in (3, 4, 5):
        assert main(["maxdelta", str(n), "--format", "json"]) == 0
        assert _json_out(capsys)["payload"]["matrix"] == entries(max_delta_matrix(n))
    assert main(["decompose", r_file, "--format", "json"]) == 0
    assert [t["coef"] for t in _json_out(capsys)["payload"]["terms"]] == [
        format_rational(c) for c in decompose(a).weights]


def test_printed_matrices_reparse_identically(capsys):
    # round trip through the text format for every matrix-printing command
    assert main(["maxdelta", "3"]) == 0
    out = capsys.readouterr().out
    matrix_text = "\n".join(out.splitlines()[:3])
    reparsed = parse_matrix(matrix_text, bistochastic=True)
    from erdosmat.assignment import max_delta_matrix

    assert reparsed == max_delta_matrix(3)


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(R_TEXT))
    assert main(["verify", "-"]) == 0
    assert "verdict: Erdos" in capsys.readouterr().out


def test_format_matrix_alignment_reparses():
    a = BistochasticMatrix.uniform(3)
    assert parse_matrix(format_matrix(a), bistochastic=True) == a


_SCALARS = (
    0, 1, -7, 10**40, -(10**300), True, False, None,
    0.0, -0.0, 1.5, -2.25e-300, 1e308, float("nan"), float("inf"), float("-inf"),
    "", "plain", 'quote " and backslash \\', "tab\tnewline\ncr\r", "\x00\x01\x1f\x7f",
    "é ü ß", "∑ 中文", "\U0001f600 astral", "\ud800 lone surrogate", "/slash",
)
_KEYS = ("k", "", "é", 'a"b', 0, -3, 10**30, 2.5, float("nan"), float("inf"), -0.0,
         True, False, None)


def _random_payload(rng, depth):
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return rng.choice(_SCALARS)
    if roll < 0.5:  # lists of one plain type take the single-join path
        kind = rng.choice((int, str))
        values = [rng.choice([v for v in _SCALARS if type(v) is kind])
                  for _ in range(rng.randint(0, 5))]
        return tuple(values) if rng.random() < 0.3 else values
    if roll < 0.75:
        values = [_random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(values) if rng.random() < 0.3 else values
    return {rng.choice(_KEYS): _random_payload(rng, depth + 1)
            for _ in range(rng.randint(0, 4))}


def test_json_writer_matches_json_dumps_on_random_payloads():
    import random

    rng = random.Random(113)
    kinds = set()
    for _ in range(2500):
        payload = _random_payload(rng, 0)
        assert cli._json_text(payload, "\n") == json.dumps(payload, indent=2)
        kinds.add(type(payload).__name__)
    assert kinds >= {"list", "tuple", "dict", "str", "int", "float", "bool", "NoneType"}
    # nested the way an envelope nests them
    for payload in ([], {}, (), [[]], {"a": {}}, [1, [2, [3, ["x"]]]], {1: [1.0, True]}):
        envelope = {"payload": payload}
        assert cli._json_text(envelope, "\n") == json.dumps(envelope, indent=2)


def test_json_writer_rejects_what_json_dumps_rejects():
    for bad in (object(), {1, 2}, b"bytes", Fraction(1, 2), [1, {"k": object()}]):
        with pytest.raises(TypeError) as ours:
            cli._json_text(bad, "\n")
        with pytest.raises(TypeError) as theirs:
            json.dumps(bad, indent=2)
        assert str(ours.value) == str(theirs.value)
    with pytest.raises(TypeError) as ours:
        cli._json_text({(1, 2): 3}, "\n")
    with pytest.raises(TypeError) as theirs:
        json.dumps({(1, 2): 3}, indent=2)
    assert str(ours.value) == str(theirs.value)


# the subcommands whose output --approx changes
APPROX_COMMANDS = ("verify", "enumerate", "family", "omega2", "maxdelta")


def test_every_subcommand_payload_matches_json_dumps(r_file, monkeypatch, capsys):
    written = []
    writer = cli._json_text

    def recording(value, pad):
        text = writer(value, pad)
        if pad == "\n":  # an envelope, not one of its nested values
            written.append(value)
            assert text == json.dumps(value, indent=2)
        return text

    monkeypatch.setattr(cli, "_json_text", recording)
    calls = [
        ["verify", r_file], ["verify", r_file, "--method", "brute"],
        ["enumerate", "-n", "3", "--quiet"],
        ["decompose", r_file, "--reduce", "none"], ["decompose", r_file, "--reduce", "linear"],
        ["canon", r_file], ["family", "4"], ["bound", "5"],
        ["omega2", "1/8"], ["omega2", "0"], ["maxdelta", "3"],
    ]
    runs = [
        argv + ["--format", "json"] + approx
        for argv in calls
        for approx in ([], ["--approx"])
        if not approx or argv[0] in APPROX_COMMANDS
    ]
    for argv in runs:
        assert main(argv) in (0, 1)
    assert [env["command"] for env in written] == [argv[0] for argv in runs]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "R"], ["enumerate", "-n", "3", "--quiet"], ["family", "4"],
    ["omega2", "1/8"], ["maxdelta", "3"],
    ["decompose", "R"], ["canon", "R"], ["bound", "5"],
], ids=lambda argv: argv[0])
def test_approx_only_where_it_changes_the_table(argv, r_file, capsys):
    argv = [r_file if a == "R" else a for a in argv]
    assert main(argv) in (0, 1)
    plain = capsys.readouterr().out
    if argv[0] in APPROX_COMMANDS:
        assert main(argv + ["--approx"]) in (0, 1)
        approx = capsys.readouterr().out
        assert approx != plain
        assert " ~ " in approx and " ~ " not in plain
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--approx"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --approx" in capsys.readouterr().err


def test_cli_calls_leave_no_cyclic_garbage(r_file, capsys):
    import gc

    calls = [
        ["verify", r_file, "--format", "json"], ["verify", r_file],
        ["decompose", r_file, "--reduce", "linear", "--format", "json"],
        ["decompose", r_file, "--reduce", "none"],
        ["enumerate", "-n", "3", "--quiet", "--format", "json"], ["enumerate", "-n", "3"],
        ["family", "4", "--format", "json"],
    ]
    enabled = gc.isenabled()
    for argv in calls:
        main(argv)  # warm: parser built, caches filled
        gc.collect()
        gc.disable()
        try:
            main(argv)
            assert gc.collect() == 0, argv
        finally:
            if enabled:
                gc.enable()
    capsys.readouterr()
