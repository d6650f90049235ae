"""CLI reports: schemas, exit codes, determinism, input echo round-trips."""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjlevel import (
    diagonal_operator,
    identity_operator,
    operator,
    operator_to_dict,
    polyhedral_space,
    simplex,
    space_from_dict,
    space_to_dict,
)
from bjlevel.cli import COMMANDS, main

from ._util import HEXAGON_VERTICES, cube_cross_vertices, sphere_ball

F = Fraction


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, payload in {
        "l1_3": {"kind": "lp", "p": "1", "dim": 3},
        "linf_3": {"kind": "lp", "p": "inf", "dim": 3},
        "linf_2": {"kind": "lp", "p": "inf", "dim": 2},
        "square": {
            "kind": "polyhedral",
            "dim": 2,
            "ball_vertices": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
        },
        "diag211": {"matrix": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "diag123": {"matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]},
        "candidates_case3": {"candidates": [["1", "1/2", "0"], ["1", "1", "0"], ["1", "1", "1/2"]]},
        "t_case": {"matrix": [["3", "-2", "0"], ["1", "0", "0"], ["0", "0", "1"]]},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_bj_report(files, capsys):
    code, out = run(capsys, ["bj", "--space", files["l1_3"], "--x", "1,0,0", "--y", "1/2,1/2,0"])
    assert code == 0
    assert out.endswith("\n")
    report = json.loads(out)
    assert report["result"]["orthogonal"] is True
    assert report["result"]["method"] == "dual"
    assert report["arithmetic_mode"] == "exact"
    assert list(report.keys()) == ["command", "inputs", "result", "arithmetic_mode", "tool_version", "seed"]


def test_support_report(files, capsys):
    code, out = run(capsys, ["support", "--space", files["linf_3"], "--x", "1,1,0"])
    report = json.loads(out)
    assert code == 0
    assert report["result"]["smooth"] is False
    assert sorted(report["result"]["vertices"]) == [["0", "1", "0"], ["1", "0", "0"]]


def test_faces_census_report(files, capsys):
    code, out = run(capsys, ["faces", "census", "--space", files["linf_3"]])
    report = json.loads(out)
    assert code == 0
    assert report["result"] == {"counts": [8, 12, 6], "total": 26}


def test_faces_minimal_report(files, capsys):
    code, out = run(capsys, ["faces", "minimal", "--space", files["linf_2"], "--x", "1/2,1"])
    report = json.loads(out)
    assert code == 0
    assert report["result"]["dim"] == 1
    assert report["result"]["supporting"] == [["0", "1"]]


def test_level_test_report(files, capsys):
    code, out = run(
        capsys, ["level", "test", "--space", files["l1_3"], "--op", files["diag211"], "--x", "1,0,0"]
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["level_vector"] is True
    assert report["result"]["level_number"] == "4"


def test_level_enumerate_report(files, capsys):
    code, out = run(
        capsys,
        ["level", "enumerate", "--space", files["linf_2"], "--op", files["diag211"], "--samples", "3", "--seed", "9"],
    )
    assert code == 2  # 3x3 operator on a 2-dimensional space


def test_level_enumerate_report_ok(files, tmp_path, capsys):
    op_path = tmp_path / "diag21.json"
    op_path.write_text(json.dumps({"matrix": [["2", "0"], ["0", "1"]]}))
    code, out = run(
        capsys,
        ["level", "enumerate", "--space", files["linf_2"], "--op", str(op_path), "--samples", "3", "--seed", "9"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["values"] == ["1", "4"]
    assert report["result"]["under_approximation"] is True
    assert report["result"]["bound"] == "4"
    assert report["seed"] == 9


def test_preserve_check_report(files, capsys):
    code, out = run(
        capsys, ["preserve", "check", "--space", files["l1_3"], "--op", files["diag211"], "--x", "1,0,0"]
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["holds"] is False
    assert report["result"]["counterexample"]["y"] is not None


def test_failed_farkas_check_exits_3_with_one_json_line(files, capsys, monkeypatch):
    monkeypatch.setattr(simplex, "_is_farkas", lambda *args: False)
    code, out = run(
        capsys, ["preserve", "check", "--space", files["l1_3"], "--op", files["diag211"], "--x", "1,0,0"]
    )
    assert code == 3
    assert out.count("\n") == 1 and json.loads(out)["error"] == "internal_check"


def test_isometry_certify_report(files, capsys):
    code, out = run(capsys, ["isometry", "certify", "--space", files["l1_3"], "--op", files["diag123"]])
    report = json.loads(out)
    assert code == 0
    assert report["result"]["verdict"] == "refuted"
    assert report["result"]["witness"] is not None


def test_isometry_probe_report(files, capsys):
    code, out = run(
        capsys,
        ["isometry", "probe", "--space", files["l1_3"], "--op", files["diag211"], "--samples", "50", "--seed", "2"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["verdict"] == "refuted"


def test_identity_test_report(files, capsys):
    code, out = run(
        capsys,
        ["identity", "test", "--space", files["linf_3"], "--op", files["t_case"], "--candidates", files["candidates_case3"]],
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["failed"] == ["iii"]
    assert report["result"]["conditions"] == {"i": True, "ii": True, "iii": False, "iv": True}


def test_adjoint_transfer_report(files, capsys):
    code, out = run(
        capsys, ["adjoint", "transfer", "--space", files["linf_3"], "--op", files["diag123"], "--x", "1,0,0"]
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["psi"] == ["1", "0", "0"]
    assert report["result"]["level_number"] == "1"
    assert report["result"]["dual_level_number"] == "1"


def test_oracle_bj_report(files, capsys):
    code, out = run(capsys, ["oracle", "bj", "--space", files["l1_3"], "--x", "2,0,0", "--y", "1,1/2,0"])
    report = json.loads(out)
    assert code == 0
    assert report["result"] == {"orthogonal": False, "minimizer": "-2", "min_value": "1"}


def test_oracle_preserve_report(files, capsys):
    code, out = run(
        capsys,
        ["oracle", "preserve", "--space", files["l1_3"], "--op", files["diag211"], "--x", "1,0,0", "--samples", "40", "--seed", "3"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["checked"] == 40
    assert len(report["result"]["violations"]) > 0


@pytest.mark.parametrize(
    "command, samples, error",
    [
        (["oracle", "preserve", "--x", "1,0,0"], "-5", "bad_count"),
        (["oracle", "preserve", "--x", "1,0,0"], "2501", "too_many_samples"),
        (["level", "enumerate"], "-1", "bad_count"),
        (["level", "enumerate"], "1000000000", "too_many_samples"),
        (["isometry", "probe"], "0", "bad_count"),
        (["isometry", "probe"], "100000000", "too_many_samples"),
    ],
)
def test_sample_counts_are_guarded(files, capsys, command, samples, error):
    # A count below the least or above the desk-scale cap exits 2 with one
    # JSON line, before anything is sampled.
    argv = [*command[:2], "--space", files["l1_3"], "--op", files["diag123"], *command[2:], "--samples", samples]
    code, out = run(capsys, argv)
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == error


def test_input_error_exit_code(files, capsys):
    code, out = run(capsys, ["bj", "--space", "missing.json", "--x", "1,0", "--y", "0,1"])
    assert code == 2
    assert json.loads(out)["error"] == "file_not_found"
    code, out = run(capsys, ["support", "--space", files["l1_3"], "--x", "0,0,0"])
    assert code == 2
    code, out = run(capsys, ["bj", "--space", files["l1_3"], "--x", "1,0", "--y", "0,1"])
    assert code == 2
    assert json.loads(out)["error"] == "dimension_mismatch"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["bj", "--space", "{l1_2}", "--x", "-1,0", "--y", "0,1"],
            ["bj", "--space", "{l1_2}", "--x=-1,0", "--y=0,1"],
        ),
        (
            ["oracle", "bj", "--space", "{l1_2}", "--x", "-1/2,1", "--y", "-1,0"],
            ["oracle", "bj", "--space", "{l1_2}", "--x=-1/2,1", "--y=-1,0"],
        ),
        (["nosuch"], "usage"),
        ([], "usage"),
        (["level"], "usage"),
        (["bj", "--space", "{l1_2}", "--x", "1,0", "--y", "0,1", "--bogus"], "usage"),
        (["level", "enumerate", "--space", "{l1_2}", "--op", "{op}", "--samples", "abc"], "usage"),
        (["--format", "xml", "faces", "census", "--space", "{l1_2}"], "usage"),
        (["faces", "minimal", "--space", "{l1_2}", "--x"], "usage"),
        (["bj", "--space", "{dir}", "--x", "1,0", "--y", "0,1"], "unreadable_file"),
    ],
    ids=[
        "vector-with-leading-minus",
        "both-vectors-with-leading-minus",
        "unknown-subcommand",
        "no-subcommand",
        "missing-sub-subcommand",
        "unknown-flag",
        "samples-not-an-integer",
        "unknown-format",
        "flag-without-value",
        "space-is-a-directory",
    ],
)
def test_every_call_prints_one_json_line(tmp_path, capsys, argv, expected):
    """Usage errors keep the contract (exit 2, one JSON line, nothing on
    stderr), and ``--x -1,0`` reports what ``--x=-1,0`` does."""
    (tmp_path / "l1_2.json").write_text(json.dumps({"kind": "lp", "p": "1", "dim": 2}))
    (tmp_path / "op.json").write_text(json.dumps({"matrix": [["2", "0"], ["0", "1"]]}))
    paths = {"l1_2": tmp_path / "l1_2.json", "op": tmp_path / "op.json", "dir": tmp_path}
    code = main([word.format(**paths) for word in argv])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and captured.err == ""
    report = json.loads(lines[0])
    if isinstance(expected, list):
        assert code == 0
        assert main([word.format(**paths) for word in expected]) == 0
        assert capsys.readouterr().out == captured.out
    else:
        assert code == 2
        assert report["error"] == expected


@pytest.mark.parametrize(
    "space, matrix, x, code_name",
    [
        ({"kind": "lp", "p": "1", "dim": "abc"}, None, "1,0", "bad_dim"),
        ({"kind": "lp", "p": "1e400", "dim": 2}, None, "1,0", "bad_exponent"),
        ({"kind": "lp", "p": "inf", "dim": 2}, [["1", "0"], ["0"]], "1,0", "ragged_matrix"),
        ({"kind": "lp", "p": [1], "dim": 2}, None, "1,0", "bad_rational"),
        ({"kind": "polyhedral", "dim": 2, "ball_vertices": [[[1], 0], [0, 1]]}, None, "1,0", "bad_rational"),
        ({"kind": "lp", "p": "inf", "dim": 2}, 5, "1,0", "bad_operator_file"),
        ({"kind": "lp", "p": "inf", "dim": 2}, [5], "1,0", "bad_operator_file"),
        ({"kind": "polyhedral", "dim": 2, "ball_vertices": 5}, None, "1,0", "bad_space_file"),
        ('{"kind": "lp", "p": "1", "dim": 1e400}', None, "1,0", "bad_dim"),
        ({"kind": "lp", "p": "1e300", "dim": 2}, None, "2,0", "float_range"),
        ({"kind": "lp", "p": "2", "dim": 2}, None, "1e400,0", "float_range"),
        ({"kind": "lp", "p": "1", "dim": 2}, None, "1e999999999,1", "bad_rational"),
        ({"kind": "lp", "p": "1", "dim": 2}, None, "1e5000,1", "bad_rational"),
        ('{"kind": "lp", "p": 1' + "0" * 5000 + ', "dim": 2}', None, "1,0", "bad_json"),
    ],
    ids=[
        "non-integer-dim",
        "p-overflows-float",
        "ragged-matrix",
        "p-is-a-list",
        "vertex-coordinate-is-a-list",
        "matrix-is-a-number",
        "matrix-row-is-a-number",
        "ball-vertices-is-a-number",
        "dim-overflows-float",
        "float-norm-overflows-at-large-p",
        "float-norm-overflows-on-l2",
        "exponent-too-large-to-build",
        "numerator-too-long-to-echo",
        "integer-past-json-digit-limit",
    ],
)
def test_malformed_files_exit_2_with_one_json_line(tmp_path, capsys, space, matrix, x, code_name):
    space_path = tmp_path / "space.json"
    space_path.write_text(space if isinstance(space, str) else json.dumps(space))
    argv = ["bj", "--space", str(space_path), f"--x={x}", "--y", "0,1"]
    if matrix is not None:
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps({"matrix": matrix}))
        argv = ["level", "test", "--space", str(space_path), "--op", str(op_path), "--x", x]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == code_name
    assert "Traceback" not in captured.out + captured.err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2", "3"])
# Rationals that overflow or underflow on the float path, and non-rationals.
JUNK_RATIONALS = st.sampled_from(["1e300", "1e-300", "1e400", "-1e-400", "inf", "1/0", "x"]) | JSON_VALUES
SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
SYMMETRIC_BALLS = st.lists(st.tuples(SMALL, SMALL), min_size=2, max_size=4).map(
    lambda points: [[str(a), str(b)] for a, b in points] + [[str(-a), str(-b)] for a, b in points]
)
# The l1^2 ball, a hexagon and an octagon, all with vertices +-e1 and +-e2.
BALLS = st.sampled_from(
    [
        [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
        [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]],
        [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"], ["3/4", "3/4"], ["-3/4", "-3/4"], ["3/4", "-3/4"], ["-3/4", "3/4"]],
    ]
)
MATRICES = st.tuples(RATIONALS, RATIONALS).map(lambda d: [[d[0], "0"], ["0", d[1]]]) | st.lists(
    st.lists(RATIONALS, min_size=2, max_size=2), min_size=2, max_size=2
)
JUNK_MATRICES = st.lists(st.lists(RATIONALS | JUNK_RATIONALS, min_size=2, max_size=2), min_size=2, max_size=2)
JUNK_ROWS = st.lists(st.lists(RATIONALS | JUNK_RATIONALS, max_size=3), max_size=6) | JSON_VALUES
EXPONENTS = st.sampled_from(["1", "inf"]) | st.sampled_from(["2", "3", "3/2", "1000"])
JUNK_EXPONENTS = st.sampled_from(["1e300", "1/2", "0", "-inf"]) | JSON_VALUES
# Unit vectors of every valid space here.
UNITS = st.sampled_from(["1,0", "0,1", "-1,0", "0,-1"])
VECTORS = (
    UNITS
    | st.sampled_from(["1,1", "1/2,1/2", "1,-1/2"])
    | st.lists(RATIONALS, min_size=2, max_size=2).map(",".join)
)
JUNK_VECTORS = st.lists(RATIONALS | JUNK_RATIONALS, min_size=1, max_size=3).map(
    lambda parts: ",".join(map(str, parts))
) | st.text(max_size=12)
# Every input the command table reads: a valid value, and a malformed one that
# takes the place of the valid value in at most one input per example.
INPUTS = {
    "space": (
        st.fixed_dictionaries({"kind": st.just("lp"), "p": EXPONENTS, "dim": st.just(2)})
        | st.fixed_dictionaries({"kind": st.just("polyhedral"), "dim": st.just(2), "ball_vertices": BALLS}),
        st.fixed_dictionaries({"kind": st.just("lp"), "p": JUNK_EXPONENTS, "dim": st.just(2)})
        | st.fixed_dictionaries({"kind": st.just("lp"), "p": EXPONENTS, "dim": JSON_VALUES})
        | st.fixed_dictionaries(
            {"kind": st.just("polyhedral"), "dim": st.just(2) | JSON_VALUES, "ball_vertices": SYMMETRIC_BALLS | JUNK_ROWS}
        )
        | st.fixed_dictionaries({"kind": JSON_VALUES, "p": JSON_VALUES, "dim": JSON_VALUES, "ball_vertices": JSON_VALUES})
        | JSON_VALUES,
    ),
    "op": (
        st.fixed_dictionaries({"matrix": MATRICES}),
        st.fixed_dictionaries({"matrix": JUNK_MATRICES | JUNK_ROWS}) | JSON_VALUES,
    ),
    "candidates": (
        st.fixed_dictionaries({"candidates": st.lists(UNITS.map(lambda text: text.split(",")), min_size=2, max_size=2)}),
        st.fixed_dictionaries({"candidates": JUNK_ROWS}) | JSON_VALUES,
    ),
    "x": (VECTORS, JUNK_VECTORS),
    "y": (VECTORS, JUNK_VECTORS),
    "samples": (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "abc", ""])),
}


@given(
    command=st.sampled_from(sorted(COMMANDS)),
    corrupted=st.sampled_from([None, *INPUTS]),
    attached=st.booleans(),
    data=st.data(),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_any_json_input_keeps_the_cli_contract(command, corrupted, attached, data):
    reads = COMMANDS[command].reads
    value = {name: data.draw(junk if name == corrupted else good, label=name) for name, (good, junk) in INPUTS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        argv = command.split()
        for name in ("space", "op", "candidates"):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(value[name], handle)
            if name == "space" or name in reads:
                argv += [f"--{name}", path]
        for name in ("x", "y"):
            if name in reads:
                argv += [f"--{name}={value[name]}"] if attached else [f"--{name}", value[name]]
        if "samples" in reads:
            argv += ["--samples", value["samples"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 2, 3)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_selftest_passes(capsys):
    code, out = run(capsys, ["selftest"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["failed"] == 0


def test_reports_are_deterministic(files, capsys):
    argv = ["level", "enumerate", "--space", files["l1_3"], "--op", files["diag123"], "--samples", "2", "--seed", "4"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_input_echo_round_trips(files, capsys):
    _, out = run(capsys, ["level", "test", "--space", files["square"], "--op", None or files["diag211"], "--x", "1,0,0"])
    # mismatched dims: operator is 3x3, square space is 2-d -> input error
    assert json.loads(out)["error"] == "dimension_mismatch"
    code, out = run(capsys, ["support", "--space", files["square"], "--x", "1,0"])
    report = json.loads(out)
    assert code == 0
    with open(files["square"]) as handle:
        assert space_from_dict(report["inputs"]["space"]) == space_from_dict(json.load(handle))


def test_text_format(files, capsys):
    code, out = run(capsys, ["--format", "text", "faces", "census", "--space", files["l1_3"]])
    assert code == 0
    assert "counts" in out and "total" in out


def test_adjoint_transfer_reports_on_polyhedral_balls_are_pinned(tmp_path, capsys):
    # The duals of validated balls read their polars without a facet scan;
    # these 90 reports are the ones the scan gave.
    rng = random.Random(3)
    balls = {
        "hexagon": HEXAGON_VERTICES,
        "cube_cross_3": cube_cross_vertices(3),
        "cube_cross_4": cube_cross_vertices(4),
        "sphere_2": sphere_ball(rng, 2, 5),
        "sphere_3": sphere_ball(rng, 3, 6),
    }
    out = []
    for name, vertices in balls.items():
        space = polyhedral_space(vertices)
        space_file = tmp_path / f"{name}.json"
        space_file.write_text(json.dumps(space_to_dict(space)))
        n = space.dim
        ops = {
            "identity": identity_operator(space),
            "twice": diagonal_operator(space, [2] * n),
            "minus": operator([[-1 if r == c else 0 for c in range(n)] for r in range(n)], space),
        }
        for op_name, op in ops.items():
            op_file = tmp_path / f"{name}_{op_name}.json"
            op_file.write_text(json.dumps(operator_to_dict(op)))
            for x in space.ball_vertices[:6]:
                argv = ["adjoint", "transfer", "--space", str(space_file), "--op", str(op_file)]
                code, text = run(capsys, argv + ["--x", ",".join(map(str, x))])
                out.append(f"{code} {text}")
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "c621be878437a8bce6b71e2c9a73bfcda0632e91bee3967f3182a5c817d434ad"
