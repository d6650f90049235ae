"""Command-line interface.

Every subcommand reads spaces/operators from JSON files, vectors from
comma-separated rational flags, and emits one deterministic JSON report on
stdout (exact rationals as "p/q" strings, floats only on float paths).
Exit codes: 0 computed (whatever the mathematical verdict), 2 input error,
3 internal consistency failure or selftest regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

from . import __version__
from .errors import InputError, InternalCheckError
from .faces import face_census, minimal_face
from .isometry import (
    adjoint_level_transfer,
    certify_scalar_isometry_polyhedral,
    probe_scalar_isometry_grid,
    scalar_identity_test,
)
from .levels import (
    enumerate_level_numbers,
    is_level_vector,
    kernel_condition,
    level_count_bound,
    preserves_bj_at,
    preserves_bj_directional,
)
from .linalg import dot, kernel_basis, vec_scale
from .oracle import minimize_norm_1d, preservation_sample_check
from .orthogonality import bj_orthogonal, bj_orthogonal_oracle, subspace_orthogonal
from .simplex import convex_weights
from .spaces import (
    Operator,
    SpaceSpec,
    adjoint,
    arithmetic_mode,
    diagonal_operator,
    l1,
    linf,
    norm,
    operator,
    operator_from_dict,
    operator_to_dict,
    parse_rows,
    parse_vector,
    polyhedral_space,
    space_from_dict,
    space_to_dict,
)
from .support import functional_in_support, support_set


def _jsonify(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError("file_not_found", f"no such file: {path}") from exc
    except OSError as exc:  # a directory, no read permission
        raise InputError("unreadable_file", f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, an integer past int's digit limit
        raise InputError("bad_json", f"malformed JSON in {path}: {exc}") from exc


def _load_space(path: Optional[str]) -> SpaceSpec:
    if path is None:
        raise InputError("missing_space", "--space is required")
    return space_from_dict(_load_json(path))


def _load_operator(path: Optional[str], space: SpaceSpec) -> Operator:
    if path is None:
        raise InputError("missing_operator", "--op is required")
    return operator_from_dict(_load_json(path), space)


def _report(command: str, inputs: dict, result: dict, space: SpaceSpec, seed: Optional[int] = None) -> dict:
    return {
        "command": command,
        "inputs": _jsonify(inputs),
        "result": _jsonify(result),
        "arithmetic_mode": arithmetic_mode(space),
        "tool_version": __version__,
        "seed": seed,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report) + "\n")
    else:
        sys.stdout.write(f"command: {report['command']}\n")
        for key, value in report["result"].items():
            sys.stdout.write(f"  {key}: {json.dumps(value)}\n")


def _vector_arg(text: Optional[str], name: str) -> tuple:
    if text is None:
        raise InputError("missing_vector", f"--{name} is required")
    return parse_vector(text)


def _load_candidates(path: Optional[str]) -> list:
    data = _load_json(path) if path else None
    if not isinstance(data, dict) or "candidates" not in data:
        raise InputError("bad_candidates", "--candidates file must contain a 'candidates' list")
    return parse_rows(data["candidates"], "bad_candidates", "candidates")


def _pick(record, *names: str) -> dict:
    return {name: getattr(record, name) for name in names}


def _pair(pair, first: str, second: str) -> Optional[dict]:
    return {first: pair[0], second: pair[1]} if pair else None


def _support(a) -> dict:
    vertices = support_set(a.space, a.x).vertices
    return {"vertices": vertices, "smooth": len(vertices) == 1}


def _level_test(a) -> dict:
    cert = is_level_vector(a.op, a.x)
    if cert is None:
        return {"level_vector": False}
    return {"level_vector": True, **_pick(cert, "level_number", "f", "g")}


def _level_enumerate(a) -> dict:
    report = enumerate_level_numbers(a.op, a.samples, a.seed)
    return {
        "values": report.values,
        "per_face": [_pick(p, "face_vertices", "face_dim", "points", "level_numbers") for p in report.per_face],
        **_pick(report, "bound", "under_approximation"),
    }


def _preserve_check(a) -> dict:
    report = preserves_bj_at(a.op, a.x)
    return {**_pick(report, "holds", "failing_functional"), "counterexample": _pair(report.counterexample, "y", "margin")}


def _isometry_result(report) -> dict:
    return {
        **_pick(report, "verdict", "scale"),
        "witness": _pair(report.witness, "x", "y"),
        "checked_points": report.checked_points,
    }


def _identity_test(a) -> dict:
    report = scalar_identity_test(a.op, a.candidates)
    return {
        **_pick(report, "certified", "eigenvalue"),
        "conditions": {
            "i": report.eigenvectors,
            "ii": report.smooth_nonkernel,
            "iii": report.level,
            "iv": report.not_orthogonal,
        },
        "independent": report.independent,
        "failed": report.failed_conditions,
    }


def _adjoint_transfer(a) -> dict:
    record = adjoint_level_transfer(a.op, a.x)
    return {**_pick(record, "psi", "level_number"), "dual_level_number": record.dual_certificate.level_number}


def _oracle_bj(a) -> dict:
    verdict = bj_orthogonal_oracle(a.space, a.x, a.y)
    return {"orthogonal": verdict.orthogonal, **_pair(minimize_norm_1d(a.space, a.x, a.y), "minimizer", "min_value")}


def _oracle_preserve(a) -> dict:
    report = preservation_sample_check(a.op, a.x, a.samples, a.seed)
    return {"checked": report.checked, "violations": [_pair(v, "y", "margin") for v in report.violations]}


# The inputs a command can read besides --space, in load order: the flags each
# adds and its loader ("samples" adds --samples and --seed, passed on as parsed).
_INPUTS = {
    "op": ({"--op": {"help": "operator JSON file"}}, lambda args, space: _load_operator(args.op, space)),
    "x": ({"--x": {"help": "comma-separated rational vector"}}, lambda args, space: _vector_arg(args.x, "x")),
    "y": ({"--y": {"help": "comma-separated rational vector"}}, lambda args, space: _vector_arg(args.y, "y")),
    "samples": ({"--samples": {"type": int, "default": 5}, "--seed": {"type": int, "default": 0}}, None),
    "candidates": (
        {"--candidates": {"help": "JSON file with a 'candidates' list"}},
        lambda args, space: _load_candidates(args.candidates),
    ),
}


class Command(NamedTuple):
    """A subcommand: the _INPUTS it reads, and its result from the arguments with those inputs loaded."""

    reads: tuple[str, ...]
    build: Callable[[argparse.Namespace], dict]


# Keyed by the report's "command"; a two-word key is a nested subcommand.
COMMANDS = {
    "bj": Command(("x", "y"), lambda a: _pick(bj_orthogonal(a.space, a.x, a.y), "orthogonal", "witness", "method")),
    "support": Command(("x",), _support),
    "faces census": Command((), lambda a: _pick(face_census(a.space), "counts", "total")),
    "faces minimal": Command(("x",), lambda a: _pick(minimal_face(a.space, a.x), "vertices", "dim", "supporting")),
    "level test": Command(("op", "x"), _level_test),
    "level enumerate": Command(("op", "samples"), _level_enumerate),
    "preserve check": Command(("op", "x"), _preserve_check),
    "isometry certify": Command(("op",), lambda a: _isometry_result(certify_scalar_isometry_polyhedral(a.op))),
    "isometry probe": Command(
        ("op", "samples"), lambda a: _isometry_result(probe_scalar_isometry_grid(a.op, a.space, a.samples, a.seed))
    ),
    "identity test": Command(("op", "candidates"), _identity_test),
    "adjoint transfer": Command(("op", "x"), _adjoint_transfer),
    "oracle bj": Command(("x", "y"), _oracle_bj),
    "oracle preserve": Command(("op", "x", "samples"), _oracle_preserve),
}


def _run(name: str, args: argparse.Namespace) -> dict:
    """Load the inputs (space first, then _INPUTS order), build the result, report it."""
    command = COMMANDS[name]
    space = _load_space(args.space)
    inputs: dict[str, Any] = {"space": space}
    for key, (_, load) in _INPUTS.items():
        if key in command.reads and load:
            inputs[key] = load(args, space)
    result = command.build(argparse.Namespace(**{**vars(args), **inputs}))
    echo = {**inputs, "space": space_to_dict(space)}
    if "op" in inputs:
        echo["op"] = operator_to_dict(inputs["op"])
    return _report(name, echo, result, space, args.seed if "samples" in command.reads else None)


def _selftest() -> dict:
    """Re-run the worked examples bundled with the package."""
    failures: list[str] = []
    total = 0

    def check(name: str, ok: bool) -> None:
        nonlocal total
        total += 1
        if not ok:
            failures.append(name)

    l1_3, linf_3, linf_2 = l1(3), linf(3), linf(2)
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    v = (Fraction(1, 2), Fraction(1, 2), Fraction(0))

    check("norm l1 example", norm(l1_3, v) == 1)
    check("smooth point", len(support_set(linf_3, (Fraction(1), Fraction(1, 2), Fraction(0))).vertices) == 1)
    check("non-smooth point", len(support_set(linf_3, (Fraction(1), Fraction(1), Fraction(0))).vertices) == 2)
    check("l1 bj orthogonal", bj_orthogonal(l1_3, e1, v).orthogonal)
    two_e1, w = (Fraction(2), 0, 0), (Fraction(1), Fraction(1, 2), 0)
    check("l1 bj not orthogonal", not bj_orthogonal(l1_3, two_e1, w).orthogonal)
    check("l1 oracle minimum", minimize_norm_1d(l1_3, two_e1, w) == (-2, 1))

    def bj_witness(x, y):
        """bj_orthogonal's witness, once its verdict equals the oracle's and
        it is a functional of J(x) that vanishes at y."""
        w = bj_orthogonal(l1_3, x, y).witness
        checked = w is not None and bj_orthogonal_oracle(l1_3, x, y).orthogonal
        return w if checked and functional_in_support(l1_3, x, w) and dot(w, y) == 0 else None

    half = Fraction(1, 2)
    # x_3 = y_3 = 0: the witness's third entry comes from the tie fill -1, +1.
    check("l1 bj witness tie", bj_witness(e1, (half, Fraction(1), Fraction(0))) == (1, -half, -half))
    # min f(y) over J(x) is exactly 0, so the witness is the minimizing vertex.
    end = bj_witness((Fraction(1), Fraction(0), Fraction(-1)), (Fraction(1), Fraction(2), Fraction(-1)))
    check("l1 bj end at zero", end == (1, -1, -1))

    t211 = diagonal_operator(l1_3, [2, 1, 1])
    cert = is_level_vector(t211, e1)
    check("diag(2,1,1) level number 4", cert is not None and cert.level_number == 4)
    check("diag(2,1,1) preservation fails", not preserves_bj_at(t211, e1).holds)

    t123_inf = diagonal_operator(linf_3, [1, 2, 3])
    check("diag(1,2,3) preserves at e1", preserves_bj_at(t123_inf, e1).holds)
    record = adjoint_level_transfer(t123_inf, e1)
    check("adjoint transfer psi", record.psi == e1 and record.level_number == 1)

    check(
        "adjoint of diag on linf acts on l1",
        adjoint(t123_inf).matrix == t123_inf.matrix and adjoint(t123_inf).domain == l1_3,
    )
    check(
        "directional preservation diag(2,1,1)",
        preserves_bj_directional(t211, e1, e1).holds,
    )

    t_case = operator([[3, -2, 0], [1, 0, 0], [0, 0, 1]], linf_3)
    check("case3 not level", is_level_vector(t_case, (Fraction(1), Fraction(1, 2), Fraction(0))) is None)
    cert2 = is_level_vector(t_case, (Fraction(1), Fraction(1), Fraction(0)))
    check("case2 level number 1", cert2 is not None and cert2.level_number == 1)

    d21 = diagonal_operator(linf_2, [2, 1])
    check("exam level number u", is_level_vector(d21, (Fraction(0), Fraction(1))).level_number == 1)
    check("exam level number v", is_level_vector(d21, (Fraction(1), Fraction(1))).level_number == 4)
    check("exam enumerate", set(enumerate_level_numbers(d21, 3, 7).values) == {1, 4})

    t123_l1 = diagonal_operator(l1_3, [1, 2, 3])
    check(
        "extreme example refuted",
        certify_scalar_isometry_polyhedral(t123_l1).verdict == "refuted",
    )
    basis = [(Fraction(1), 0, 0), (Fraction(0), Fraction(1), 0), (Fraction(0), 0, Fraction(1))]
    numbers = {is_level_vector(t123_l1, u).level_number for u in basis}
    check("extreme example numbers", numbers == {1, 4, 9})
    check("extreme enumerate superset", {1, 4, 9} <= set(enumerate_level_numbers(t123_l1, 3, 5).values))

    check("census linf3", face_census(linf_3).counts == (8, 12, 6))
    check("census l1_3", face_census(l1_3).counts == (6, 12, 8))
    # General balls: faces from the facet incidence, counted with no lattice.
    hexagon = polyhedral_space([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    check("census hexagon", face_census(hexagon).counts == (6, 6))
    cube_cross = polyhedral_space(
        [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        + [tuple(2 * s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)]
    )
    check("census cube plus 2 cross", face_census(cube_cross).counts == (14, 24, 12))
    check("bound l1 13", level_count_bound(l1_3, t123_l1) == 13)
    check("bound linf 13", level_count_bound(linf_3, t123_inf) == 13)

    s_case = diagonal_operator(linf_3, [1, 1, 2])
    case3 = scalar_identity_test(
        t_case,
        [
            (Fraction(1), Fraction(1, 2), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(1, 2)),
        ],
    )
    check("identity case3 fails iii", case3.failed_conditions == ("iii",))
    case4 = scalar_identity_test(
        s_case,
        [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ],
    )
    check("identity case4 fails iv", case4.failed_conditions == ("iv",))

    # The kernel condition on a line, against the subspace LP; the l1, l-inf
    # and hexagon "zero end" cases have an end of the interval
    # [min f(b), max f(b)] at 0.  The last two rows have denominators 2, 3
    # and 5, 7, and the elimination of their integer rows ends on the
    # negative pivot -4410: ker = span(-10/21, -5/7, 1).
    t110 = diagonal_operator(l1_3, [1, 1, 0])
    l1_edge = operator([[1, 1, 0], [0, 0, 1], [0, 0, 0]], l1_3)  # ker = span(e1 - e2)
    linf_edge = operator([[1, 0, -1], [0, 1, 0], [0, 0, 0]], linf_3)  # ker = span(e1 + e3)
    hexagon_edge = operator([[1, -1], [2, -2]], hexagon)  # ker = span(e1 + e2); J(e1) = conv{(1, 0), (1, -1)}
    third, fifth, seventh = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    negative_pivot = operator([[-half, third, 0], [0, fifth, seventh], [0, 0, 0]], l1_3)
    for name, op, x, want in (
        ("kernel diag(1,1,0) l1 holds", t110, e1, True),
        ("kernel diag(1,1,0) l1 fails", t110, (Fraction(1), 0, Fraction(1, 2)), False),
        ("kernel l1 zero end holds", l1_edge, e1, True),
        ("kernel linf zero end holds", linf_edge, (Fraction(1), Fraction(1), 0), True),
        ("kernel hexagon zero end holds", hexagon_edge, (Fraction(1), 0), True),
        ("kernel l1 negative pivot holds", negative_pivot, (0, 0, Fraction(1)), True),
        ("kernel l1 negative pivot fails", negative_pivot, (Fraction(1), Fraction(1), Fraction(1)), False),
    ):
        lp_route = subspace_orthogonal(op.domain, x, kernel_basis(op.matrix)).orthogonal
        check(name, kernel_condition(op, x) == want == lp_route)

    # Level tests on an edge image J(Tx) = [q0, q1], one per domain kind,
    # each decided inside (0, 1) and against the level LP over the vertices
    # of J(x) and J(Tx).
    l1_2 = l1(2)
    for name, op, x, want in (
        ("edge image l1", operator([[1, 0], [0, -1]], l1_2, hexagon), (Fraction(1), Fraction(-1)), Fraction(1, 4)),
        ("edge image linf", operator([[0, -1], [1, 0]], linf_2, l1_2), (Fraction(0), Fraction(1)), Fraction(1)),
        ("edge image polyhedral", operator([[0, 1], [1, 0]], hexagon, l1_2), (Fraction(-1), Fraction(0)), Fraction(1)),
    ):
        tx = op(x)
        scale = norm(op.codomain, tx) / norm(op.domain, x)
        p_verts, q_verts = support_set(op.domain, x).vertices, support_set(op.codomain, tx).vertices
        columns = [[vec_scale(-scale, f) for f in p_verts], [adjoint(op)(g) for g in q_verts]]
        lp_route = convex_weights(columns, (Fraction(0),) * op.domain.dim) is not None
        cert = is_level_vector(op, x)
        check(name, len(q_verts) == 2 and lp_route and cert is not None and cert.level_number == want)

    sample = preservation_sample_check(t211, e1, 60, 11)
    check("sample check finds violation", len(sample.violations) > 0)
    sample_ok = preservation_sample_check(t123_inf, e1, 60, 11)
    check("sample check clean", len(sample_ok.violations) == 0)

    return {"passed": total - len(failures), "failed": len(failures), "failures": failures}


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into InputError("usage"), reported as one JSON line."""

    def error(self, message: str):
        raise InputError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bjlevel", description=__doc__)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, command in COMMANDS.items():
        group, _, leaf = name.partition(" ")
        if leaf and group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest=f"{group}_command", required=True)
        p = groups[group].add_parser(leaf) if leaf else sub.add_parser(group)
        p.set_defaults(name=name)
        p.add_argument("--space", help="space JSON file")
        for key, (flags, _) in _INPUTS.items():
            if key in command.reads:
                for flag, options in flags.items():
                    p.add_argument(flag, **options)
    sub.add_parser("selftest")
    return parser


def _attach_vector_values(argv: list[str]) -> list[str]:
    """Read ``--x -1,0`` as ``--x=-1,0``: argparse takes a value that starts
    with "-" for a flag, so a vector flag always takes the next word."""
    out: list[str] = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word in ("--x", "--y") else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_attach_vector_values(sys.argv[1:] if argv is None else argv))
        if args.command == "selftest":
            result = _selftest()
            sys.stdout.write(json.dumps({"command": "selftest", "result": result, "tool_version": __version__}) + "\n")
            return 0 if result["failed"] == 0 else 3
        report = _run(args.name, args)
    except InputError as exc:
        sys.stdout.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 2
    except InternalCheckError as exc:
        sys.stdout.write(json.dumps({"error": "internal_check", "message": str(exc)}) + "\n")
        return 3
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
