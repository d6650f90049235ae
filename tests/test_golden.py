"""Pinned CLI reports of the single-point and certification commands.

`tests/golden/cli_reports.jsonl` holds the exit code and stdout of
``preserve check``, ``level test``, ``isometry certify`` and ``isometry
probe`` on the seeded battery below, one report per line, generated before
the single-point path moved to integer arithmetic.  `tests/golden/bj_reports.jsonl`
holds the ``bj`` reports of the orthogonality battery, generated while J(x)
was still read from its full vertex list.  Certificates, counterexamples and
witnesses are part of each report, so any change to the exact path that
alters one of them, even to another valid one, fails here.  Regenerate only
on purpose, one file per battery:

    PYTHONPATH=src python -m tests.test_golden cli_reports > tests/golden/cli_reports.jsonl
    PYTHONPATH=src python -m tests.test_golden bj_reports > tests/golden/bj_reports.jsonl
"""

import contextlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from bjlevel.cli import main

from ._util import HEXAGON_VERTICES, cube_cross_vertices

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _lp(p: str, dim: int) -> dict:
    return {"kind": "lp", "p": p, "dim": dim}


def _polyhedral(vertices) -> dict:
    return {"kind": "polyhedral", "dim": len(vertices[0]), "ball_vertices": [[str(c) for c in v] for v in vertices]}


SPACES = {
    "l1_3": _lp("1", 3),
    "l1_4": _lp("1", 4),
    "linf_3": _lp("inf", 3),
    "linf_4": _lp("inf", 4),
    "hexagon": _polyhedral([tuple(Fraction(c) for c in v) for v in HEXAGON_VERTICES]),
    "cube_cross": _polyhedral(cube_cross_vertices(3)),
}


def _vertices(space: dict) -> list[tuple]:
    n = space["dim"]
    if space["kind"] == "polyhedral":
        return [tuple(Fraction(c) for c in v) for v in space["ball_vertices"]]
    if space["p"] == "1":
        return [tuple(Fraction(s) if j == i else Fraction(0) for j in range(n)) for i in range(n) for s in (1, -1)]
    return [tuple(Fraction(s) for s in signs) for signs in itertools.product((1, -1), repeat=n)]


def _operators(rng: random.Random, n: int) -> dict[str, list[list[Fraction]]]:
    """A dense integer, a dense rational, a graded diagonal, a scaled signed
    permutation and a rank-one matrix."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n)]
    w = [Fraction(rng.choice((-1, 1, 3))) for _ in range(n)]
    return {
        "dense": [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)],
        "rational": [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)],
        "diagonal": [[Fraction(rng.choice((1, -1)) * (i + 1)) if i == j else Fraction(0) for j in range(n)] for i in range(n)],
        "permutation": [[Fraction(2 * rng.choice((1, -1))) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)],
        "rank_one": [[a * b for b in w] for a in u],
    }


def _points(rng: random.Random, vertices: list[tuple]) -> list[tuple]:
    """Two ball vertices, two midpoints of vertex pairs and a generic point."""
    n = len(vertices[0])
    chosen = rng.sample(vertices, 2)
    for _ in range(2):
        a, b = rng.sample(vertices, 2)
        if all(x == -y for x, y in zip(a, b)):
            b = vertices[(vertices.index(b) + 1) % len(vertices)]
        chosen.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    generic = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
    if not any(generic):
        generic[0] = Fraction(1)
    chosen.append(tuple(generic))
    return chosen


def battery_argvs(directory: str) -> list[list[str]]:
    """The argv of every call of the battery, its JSON inputs written to ``directory``."""
    argvs = []
    for index, (name, space) in enumerate(SPACES.items()):
        space_path = os.path.join(directory, f"{name}.json")
        with open(space_path, "w", encoding="utf-8") as handle:
            json.dump(space, handle)
        rng = random.Random(1000 + index)
        vertices = _vertices(space)
        for kind, matrix in _operators(rng, space["dim"]).items():
            op_path = os.path.join(directory, f"{name}-{kind}.json")
            with open(op_path, "w", encoding="utf-8") as handle:
                json.dump({"matrix": [[str(c) for c in row] for row in matrix]}, handle)
            files = ["--space", space_path, "--op", op_path]
            for x in _points(rng, vertices):
                flag = "--x=" + ",".join(str(c) for c in x)
                argvs.append(["level", "test", *files, flag])
                argvs.append(["preserve", "check", *files, flag])
            argvs.append(["isometry", "certify", *files])
            argvs.append(["isometry", "probe", *files, "--samples", "3", "--seed", str(index)])
    return argvs


def _centroid(points: list[tuple]) -> tuple:
    return tuple(sum(column) / len(points) for column in zip(*points))


def _bj_points(rng: random.Random, vertices: list[tuple]) -> list[tuple]:
    """Three ball vertices, the centroids of two vertex pairs and of one
    vertex triple, and a generic point; a centroid at 0 is skipped."""
    n = len(vertices[0])
    chosen = rng.sample(vertices, 3)
    for size in (2, 2, 3):
        centroid = _centroid(rng.sample(vertices, size))
        if any(centroid):
            chosen.append(centroid)
    chosen.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) or Fraction(1) for _ in range(n)))
    return chosen


def _bj_directions(rng: random.Random, n: int) -> list[tuple]:
    """Two directions with entries in {-1, 0, 1} and one in {-2, ..., 2}, so
    that y_i = 0 on zeros of x and ends of the interval at exactly 0 are
    common, and one generic rational direction."""
    small = [tuple(Fraction(rng.randint(-1, 1)) for _ in range(n)) for _ in range(2)]
    return [*small, tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))]


def bj_battery_argvs(directory: str) -> list[list[str]]:
    """The argv of every ``bj`` call of the orthogonality battery."""
    argvs = []
    for index, name in enumerate(("l1_3", "l1_4", "linf_3", "hexagon")):
        space = SPACES[name]
        space_path = os.path.join(directory, f"{name}.json")
        with open(space_path, "w", encoding="utf-8") as handle:
            json.dump(space, handle)
        rng = random.Random(2000 + index)
        for x in _bj_points(rng, _vertices(space)):
            for y in _bj_directions(rng, space["dim"]):
                vectors = [f"--{key}=" + ",".join(str(c) for c in vector) for key, vector in (("x", x), ("y", y))]
                argvs.append(["bj", "--space", space_path, *vectors])
    return argvs


BATTERIES = {"cli_reports": (battery_argvs, 360), "bj_reports": (bj_battery_argvs, 112)}


def battery_reports(name: str, directory: str) -> list[str]:
    """Each call's exit code and stdout line, with the input directory
    written as ``DIR`` so the reports do not depend on where they ran."""
    lines = []
    for argv in BATTERIES[name][0](directory):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        lines.append(f"{code} {out.getvalue().replace(directory, 'DIR')}")
    return lines


def _assert_pinned(name: str, directory: str) -> None:
    with open(os.path.join(GOLDEN, f"{name}.jsonl"), encoding="utf-8") as handle:
        expected = handle.readlines()
    got = battery_reports(name, directory)
    assert len(got) == len(expected) == BATTERIES[name][1]
    for line, want in zip(got, expected):
        assert line == want


def test_cli_reports_equal_the_pinned_battery(tmp_path):
    _assert_pinned("cli_reports", str(tmp_path))


def test_bj_reports_equal_the_pinned_battery(tmp_path):
    _assert_pinned("bj_reports", str(tmp_path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("".join(battery_reports(sys.argv[1], tmp)))
