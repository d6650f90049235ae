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
from typing import Any, Optional

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
    level_count_bound,
    preserves_bj_at,
)
from .oracle import minimize_norm_1d, preservation_sample_check
from .orthogonality import bj_orthogonal, bj_orthogonal_oracle
from .spaces import (
    Operator,
    SpaceSpec,
    arithmetic_mode,
    operator_from_dict,
    operator_to_dict,
    parse_rows,
    parse_vector,
    space_from_dict,
    space_to_dict,
)
from .support import support_set


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
    except json.JSONDecodeError as exc:
        raise InputError("bad_json", f"malformed JSON in {path}: {exc}") from exc


def _load_space(path: Optional[str]) -> SpaceSpec:
    if path is None:
        raise InputError("missing_space", "--space is required")
    return space_from_dict(_load_json(path))


def _load_operator(path: Optional[str], space: SpaceSpec) -> Operator:
    if path is None:
        raise InputError("missing_operator", "--op is required")
    return operator_from_dict(_load_json(path), space)


def _inputs(space: SpaceSpec, op: Optional[Operator] = None, **vectors) -> dict:
    """The echoed inputs: space, then operator, then vectors (made strings by _jsonify)."""
    inputs = {"space": space_to_dict(space)}
    if op is not None:
        inputs["op"] = operator_to_dict(op)
    return {**inputs, **vectors}


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


def _cmd_bj(args) -> dict:
    space = _load_space(args.space)
    x = _vector_arg(args.x, "x")
    y = _vector_arg(args.y, "y")
    verdict = bj_orthogonal(space, x, y)
    result = {
        "orthogonal": verdict.orthogonal,
        "witness": list(verdict.witness) if verdict.witness else None,
        "method": verdict.method,
    }
    return _report("bj", _inputs(space, x=x, y=y), result, space)


def _cmd_support(args) -> dict:
    space = _load_space(args.space)
    x = _vector_arg(args.x, "x")
    sup = support_set(space, x)
    result = {"vertices": [list(v) for v in sup.vertices], "smooth": len(sup.vertices) == 1}
    return _report("support", _inputs(space, x=x), result, space)


def _cmd_faces(args) -> dict:
    space = _load_space(args.space)
    if args.faces_command == "census":
        census = face_census(space)
        result = {"counts": list(census.counts), "total": census.total}
        return _report("faces census", _inputs(space), result, space)
    x = _vector_arg(args.x, "x")
    face = minimal_face(space, x)
    result = {
        "vertices": [list(v) for v in face.vertices],
        "dim": face.dim,
        "supporting": [list(f) for f in face.supporting],
    }
    return _report("faces minimal", _inputs(space, x=x), result, space)


def _cmd_level(args) -> dict:
    space = _load_space(args.space)
    op = _load_operator(args.op, space)
    if args.level_command == "test":
        x = _vector_arg(args.x, "x")
        cert = is_level_vector(op, x)
        if cert is None:
            result = {"level_vector": False}
        else:
            result = {
                "level_vector": True,
                "level_number": cert.level_number,
                "f": list(cert.f) if cert.f else None,
                "g": list(cert.g) if cert.g else None,
            }
        return _report("level test", _inputs(space, op, x=x), result, space)
    report = enumerate_level_numbers(op, args.samples, args.seed)
    result = {
        "values": list(report.values),
        "per_face": [
            {
                "face_vertices": [list(v) for v in probe.face_vertices],
                "face_dim": probe.face_dim,
                "points": [list(p) for p in probe.points],
                "level_numbers": list(probe.level_numbers),
            }
            for probe in report.per_face
        ],
        "bound": report.bound,
        "under_approximation": report.under_approximation,
    }
    return _report("level enumerate", _inputs(space, op), result, space, seed=args.seed)


def _cmd_preserve(args) -> dict:
    space = _load_space(args.space)
    op = _load_operator(args.op, space)
    x = _vector_arg(args.x, "x")
    report = preserves_bj_at(op, x)
    result = {
        "holds": report.holds,
        "failing_functional": list(report.failing_functional) if report.failing_functional else None,
        "counterexample": (
            {"y": list(report.counterexample[0]), "margin": report.counterexample[1]}
            if report.counterexample
            else None
        ),
    }
    return _report("preserve check", _inputs(space, op, x=x), result, space)


def _isometry_result(report) -> dict:
    return {
        "verdict": report.verdict,
        "scale": report.scale,
        "witness": (
            {"x": list(report.witness[0]), "y": list(report.witness[1])}
            if report.witness
            else None
        ),
        "checked_points": [list(p) for p in report.checked_points],
    }


def _cmd_isometry(args) -> dict:
    space = _load_space(args.space)
    op = _load_operator(args.op, space)
    inputs = _inputs(space, op)
    if args.isometry_command == "certify":
        return _report("isometry certify", inputs, _isometry_result(certify_scalar_isometry_polyhedral(op)), space)
    report = probe_scalar_isometry_grid(op, space, args.samples, args.seed)
    return _report("isometry probe", inputs, _isometry_result(report), space, seed=args.seed)


def _cmd_identity(args) -> dict:
    space = _load_space(args.space)
    op = _load_operator(args.op, space)
    data = _load_json(args.candidates) if args.candidates else None
    if not isinstance(data, dict) or "candidates" not in data:
        raise InputError("bad_candidates", "--candidates file must contain a 'candidates' list")
    candidates = parse_rows(data["candidates"], "bad_candidates", "candidates")
    report = scalar_identity_test(op, candidates)
    result = {
        "certified": report.certified,
        "eigenvalue": report.eigenvalue,
        "conditions": {
            "i": report.eigenvectors,
            "ii": report.smooth_nonkernel,
            "iii": report.level,
            "iv": report.not_orthogonal,
        },
        "independent": report.independent,
        "failed": list(report.failed_conditions),
    }
    return _report("identity test", _inputs(space, op, candidates=candidates), result, space)


def _cmd_adjoint(args) -> dict:
    space = _load_space(args.space)
    op = _load_operator(args.op, space)
    x = _vector_arg(args.x, "x")
    record = adjoint_level_transfer(op, x)
    result = {
        "psi": list(record.psi),
        "level_number": record.level_number,
        "dual_level_number": record.dual_certificate.level_number,
    }
    return _report("adjoint transfer", _inputs(space, op, x=x), result, space)


def _cmd_oracle(args) -> dict:
    space = _load_space(args.space)
    if args.oracle_command == "bj":
        x = _vector_arg(args.x, "x")
        y = _vector_arg(args.y, "y")
        verdict = bj_orthogonal_oracle(space, x, y)
        minimizer, min_value = minimize_norm_1d(space, x, y)
        result = {"orthogonal": verdict.orthogonal, "minimizer": minimizer, "min_value": min_value}
        return _report("oracle bj", _inputs(space, x=x, y=y), result, space)
    op = _load_operator(args.op, space)
    x = _vector_arg(args.x, "x")
    report = preservation_sample_check(op, x, args.samples, args.seed)
    result = {
        "checked": report.checked,
        "violations": [{"y": list(y), "margin": margin} for y, margin in report.violations],
    }
    return _report("oracle preserve", _inputs(space, op, x=x), result, space, seed=args.seed)


def _selftest() -> dict:
    """Re-run the worked examples bundled with the package."""
    from fractions import Fraction as F

    from .spaces import diagonal_operator, l1, linf, operator

    failures: list[str] = []
    total = 0

    def check(name: str, ok: bool) -> None:
        nonlocal total
        total += 1
        if not ok:
            failures.append(name)

    l1_3, linf_3, linf_2 = l1(3), linf(3), linf(2)
    e1 = (F(1), F(0), F(0))
    v = (F(1, 2), F(1, 2), F(0))

    check("norm l1 example", __import__("bjlevel").norm(l1_3, v) == 1)
    check("smooth point", len(support_set(linf_3, (F(1), F(1, 2), F(0))).vertices) == 1)
    check("non-smooth point", len(support_set(linf_3, (F(1), F(1), F(0))).vertices) == 2)
    check("l1 bj orthogonal", bj_orthogonal(l1_3, e1, v).orthogonal)
    check("l1 bj not orthogonal", not bj_orthogonal(l1_3, (F(2), 0, 0), (F(1), F(1, 2), 0)).orthogonal)
    check("l1 oracle minimum", minimize_norm_1d(l1_3, (F(2), 0, 0), (F(1), F(1, 2), 0)) == (-2, 1))

    t211 = diagonal_operator(l1_3, [2, 1, 1])
    cert = is_level_vector(t211, e1)
    check("diag(2,1,1) level number 4", cert is not None and cert.level_number == 4)
    check("diag(2,1,1) preservation fails", not preserves_bj_at(t211, e1).holds)

    t123_inf = diagonal_operator(linf_3, [1, 2, 3])
    check("diag(1,2,3) preserves at e1", preserves_bj_at(t123_inf, e1).holds)
    record = adjoint_level_transfer(t123_inf, e1)
    check("adjoint transfer psi", record.psi == e1 and record.level_number == 1)

    from .levels import preserves_bj_directional
    from .spaces import adjoint as adjoint_of

    check(
        "adjoint of diag on linf acts on l1",
        adjoint_of(t123_inf).matrix == t123_inf.matrix and adjoint_of(t123_inf).domain == l1_3,
    )
    check(
        "directional preservation diag(2,1,1)",
        preserves_bj_directional(t211, e1, e1).holds,
    )

    t_case = operator([[3, -2, 0], [1, 0, 0], [0, 0, 1]], linf_3)
    check("case3 not level", is_level_vector(t_case, (F(1), F(1, 2), F(0))) is None)
    cert2 = is_level_vector(t_case, (F(1), F(1), F(0)))
    check("case2 level number 1", cert2 is not None and cert2.level_number == 1)

    d21 = diagonal_operator(linf_2, [2, 1])
    check("exam level number u", is_level_vector(d21, (F(0), F(1))).level_number == 1)
    check("exam level number v", is_level_vector(d21, (F(1), F(1))).level_number == 4)
    check("exam enumerate", set(enumerate_level_numbers(d21, 3, 7).values) == {1, 4})

    t123_l1 = diagonal_operator(l1_3, [1, 2, 3])
    check(
        "extreme example refuted",
        certify_scalar_isometry_polyhedral(t123_l1).verdict == "refuted",
    )
    numbers = {is_level_vector(t123_l1, u).level_number for u in [(F(1), 0, 0), (F(0), F(1), 0), (F(0), 0, F(1))]}
    check("extreme example numbers", numbers == {1, 4, 9})
    check("extreme enumerate superset", {1, 4, 9} <= set(enumerate_level_numbers(t123_l1, 3, 5).values))

    check("census linf3", face_census(linf_3).counts == (8, 12, 6))
    check("census l1_3", face_census(l1_3).counts == (6, 12, 8))
    check("bound l1 13", level_count_bound(l1_3, t123_l1) == 13)
    check("bound linf 13", level_count_bound(linf_3, t123_inf) == 13)

    s_case = diagonal_operator(linf_3, [1, 1, 2])
    case3 = scalar_identity_test(t_case, [(F(1), F(1, 2), F(0)), (F(1), F(1), F(0)), (F(1), F(1), F(1, 2))])
    check("identity case3 fails iii", case3.failed_conditions == ("iii",))
    case4 = scalar_identity_test(s_case, [(F(1), F(0), F(0)), (F(1), F(1, 2), F(0)), (F(0), F(0), F(1))])
    check("identity case4 fails iv", case4.failed_conditions == ("iv",))

    sample = preservation_sample_check(t211, e1, 60, 11)
    check("sample check finds violation", len(sample.violations) > 0)
    sample_ok = preservation_sample_check(t123_inf, e1, 60, 11)
    check("sample check clean", len(sample_ok.violations) == 0)

    return {"passed": total - len(failures), "failed": len(failures), "failures": failures}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bjlevel", description=__doc__)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, op_flag=False, x_flag=False, y_flag=False, sampled=False):
        p.add_argument("--space", help="space JSON file")
        if op_flag:
            p.add_argument("--op", help="operator JSON file")
        if x_flag:
            p.add_argument("--x", help="comma-separated rational vector")
        if y_flag:
            p.add_argument("--y", help="comma-separated rational vector")
        if sampled:
            p.add_argument("--samples", type=int, default=5)
            p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("bj"), x_flag=True, y_flag=True)
    common(sub.add_parser("support"), x_flag=True)

    faces = sub.add_parser("faces").add_subparsers(dest="faces_command", required=True)
    common(faces.add_parser("census"))
    common(faces.add_parser("minimal"), x_flag=True)

    level = sub.add_parser("level").add_subparsers(dest="level_command", required=True)
    common(level.add_parser("test"), op_flag=True, x_flag=True)
    common(level.add_parser("enumerate"), op_flag=True, sampled=True)

    preserve = sub.add_parser("preserve").add_subparsers(dest="preserve_command", required=True)
    common(preserve.add_parser("check"), op_flag=True, x_flag=True)

    isometry = sub.add_parser("isometry").add_subparsers(dest="isometry_command", required=True)
    common(isometry.add_parser("certify"), op_flag=True)
    common(isometry.add_parser("probe"), op_flag=True, sampled=True)

    identity = sub.add_parser("identity").add_subparsers(dest="identity_command", required=True)
    ident_test = identity.add_parser("test")
    common(ident_test, op_flag=True)
    ident_test.add_argument("--candidates", help="JSON file with a 'candidates' list")

    adjoint_cmd = sub.add_parser("adjoint").add_subparsers(dest="adjoint_command", required=True)
    common(adjoint_cmd.add_parser("transfer"), op_flag=True, x_flag=True)

    oracle_cmd = sub.add_parser("oracle").add_subparsers(dest="oracle_command", required=True)
    common(oracle_cmd.add_parser("bj"), x_flag=True, y_flag=True)
    common(oracle_cmd.add_parser("preserve"), op_flag=True, x_flag=True, sampled=True)

    sub.add_parser("selftest")
    return parser


_HANDLERS = {
    "bj": _cmd_bj,
    "support": _cmd_support,
    "faces": _cmd_faces,
    "level": _cmd_level,
    "preserve": _cmd_preserve,
    "isometry": _cmd_isometry,
    "identity": _cmd_identity,
    "adjoint": _cmd_adjoint,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        result = _selftest()
        sys.stdout.write(json.dumps({"command": "selftest", "result": result, "tool_version": __version__}) + "\n")
        return 0 if result["failed"] == 0 else 3
    try:
        report = _HANDLERS[args.command](args)
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
