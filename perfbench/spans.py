"""Span recorder for the traced run.

The recorder wraps public functions of each ``bjlevel`` module at every site
that imported them (``bjlevel.levels.feasible_point`` as well as
``bjlevel.simplex.feasible_point``), so no source file is edited.  Each call
made while the recorder is active becomes a span with a parent id and the id
of the operation (request) it belongs to.  Spans stay in memory and are
written out when the run ends.

A span's duration excludes the recorder's own bookkeeping inside it, and its
self time is its duration minus the durations of its direct children.  There
is one client and no queue, so no layer ever waits; waiting time is absent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

# Layer -> functions wrapped.  Helpers too small to time without distorting
# them (dot, mat_vec, ...) are left out and count toward their caller.
LAYERS = {
    "simplex": ("solve_standard_lp", "feasible_point"),
    "support": ("support_set", "functional_in_support", "is_smooth", "eval_range"),
    "levels": (
        "is_level_vector",
        "preserves_bj_at",
        "preserves_bj_directional",
        "kernel_condition",
        "enumerate_level_numbers",
        "level_count_bound",
        "kernel_section_space",
    ),
    "isometry": ("certify_scalar_isometry_polyhedral", "probe_scalar_isometry_grid", "scalar_identity_test", "adjoint_level_transfer"),
    "orthogonality": ("bj_orthogonal", "bj_orthogonal_oracle", "subspace_orthogonal"),
    "spaces": ("polyhedral_space", "polar_vertices", "norm"),
    "faces": ("face_lattice", "face_census", "extreme_points", "minimal_face", "antipodal_representatives"),
    "linalg": ("solve_square", "rref", "matrix_rank", "kernel_basis"),
    "oracle": ("sample_sphere", "minimize_norm_1d", "preservation_sample_check"),
}
# Draws of the library's own rational sampler (a class, wrapped per method).
ORACLE_METHODS = ("next_fraction", "next_positive_fraction")

# Span record fields.
NAME, PARENT, OP, START, END, INSTR_START, INSTR_END, INFO = range(8)


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, int):
            best = max(best, v.bit_length())
    return best


def _simplex_info(args, kwargs, result):
    a_eq = args[0] if args else kwargs["a_eq"]
    rows = len(a_eq)
    cols = len(a_eq[0]) if rows else 0
    b_eq = args[1] if len(args) > 1 else kwargs["b_eq"]
    cost = args[2] if len(args) > 2 else kwargs.get("cost")
    bits = max(_bits(v for row in a_eq for v in row), _bits(b_eq), _bits(cost or ()))
    bits = max(bits, _bits(result.x or ()), _bits([result.value] if result.value is not None else ()))
    return {"cells": rows * cols, "bits": bits, "infeasible": result.status == "infeasible"}


def _info_hooks():
    return {
        "simplex.solve_standard_lp": _simplex_info,
        "support.support_set": lambda a, k, r: {"vertices": len(r.vertices)},
        "levels.is_level_vector": lambda a, k, r: {"yes": r is not None},
        "levels.preserves_bj_at": lambda a, k, r: {"holds": r.holds},
        "isometry.certify_scalar_isometry_polyhedral": lambda a, k, r: {
            "points": len(r.checked_points),
            "refuted": r.verdict == "refuted",
        },
        "spaces.polyhedral_space": lambda a, k, r: {"validate": k.get("validate", len(a) < 2 or a[1])},
    }


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.instr = 0.0  # recorder bookkeeping time, excluded from spans
        self.op_id = -1
        self.patches: list[tuple] = []
        self.hooks = _info_hooks()
        self.lattice_materialized = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self
        hook = self.hooks.get(name)
        lattice = name == "faces.face_lattice"

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            span = [name, rec.stack[-1] if rec.stack else None, rec.op_id, 0.0, 0.0, 0.0, 0.0, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            misses = fn.cache_info().misses if lattice else 0
            start = time.perf_counter()
            rec.instr += start - t_in
            span[INSTR_START] = rec.instr
            span[START] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span[END] = end
                span[INSTR_END] = rec.instr
                rec.stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            if lattice and fn.cache_info().misses > misses:
                rec.lattice_materialized += len(result)
            rec.instr += time.perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace each listed function at every bjlevel module that holds it."""
        modules = [m for name, m in sys.modules.items() if name == "bjlevel" or name.startswith("bjlevel.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"bjlevel.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self.patches.append((module, fname, original))
                        setattr(module, fname, wrapped)
        stream = getattr(sys.modules["bjlevel.oracle"], "RationalStream", None)
        for meth in ORACLE_METHODS if stream is not None else ():
            original = getattr(stream, meth)
            self.patches.append((stream, meth, original))
            setattr(stream, meth, self._wrap(f"oracle.RationalStream.{meth}", original))

    def uninstall(self) -> None:
        for owner, fname, original in reversed(self.patches):
            setattr(owner, fname, original)
        self.patches.clear()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; every span under it shares ``op_id``."""
        self.op_id = op_id
        self.active = True
        span = ["op", None, op_id, 0.0, 0.0, 0.0, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[INSTR_START] = self.instr
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            span[INSTR_END] = self.instr
            self.stack.pop()
            self.active = False

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [(s[END] - s[START]) - (s[INSTR_END] - s[INSTR_START]) for s in self.spans]
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[PARENT] is not None:
                own[s[PARENT]] -= dur[i]
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "parent": s[PARENT],
                            "op": s[OP],
                            "start": s[START],
                            "end": s[END],
                            "bookkeeping": s[INSTR_END] - s[INSTR_START],
                            "info": s[INFO],
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, cache_delta: dict) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    own = rec.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(rec.spans):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += own[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += own[i]
        layer_calls[layer] += 1

    def infos(name):  # calls that raised have no info
        return [s[INFO] for s in rec.spans if s[NAME] == name and s[INFO] is not None]

    lp = infos("simplex.solve_standard_lp")
    sup = [i["vertices"] for i in infos("support.support_set")]
    level = [i["yes"] for i in infos("levels.is_level_vector")]
    preserve = [i["holds"] for i in infos("levels.preserves_bj_at")]
    certify = infos("isometry.certify_scalar_isometry_polyhedral")
    validate = [i for i, s in enumerate(rec.spans) if s[NAME] == "spaces.polyhedral_space" and s[INFO] and s[INFO]["validate"]]

    under_preserve = 0
    for s in rec.spans:
        if s[NAME] != "simplex.solve_standard_lp":
            continue
        parent = s[PARENT]
        while parent is not None:
            if rec.spans[parent][NAME] == "levels.preserves_bj_at":
                under_preserve += 1
                break
            parent = rec.spans[parent][PARENT]

    polar, lattice = cache_delta["polar"], cache_delta["lattice"]
    linalg = LAYERS["linalg"]
    oracle_names = [n for n in calls if n.startswith("oracle.")]
    return {
        "simplex.lp_calls": (len(lp), "count"),
        "simplex.self_s": (layer_self["simplex"], "s"),
        "simplex.infeasible_ratio": (_ratio(sum(i["infeasible"] for i in lp), len(lp)), "ratio"),
        "simplex.cells_mean": (_ratio(sum(i["cells"] for i in lp), len(lp)), "cells"),
        "simplex.cells_max": (max((i["cells"] for i in lp), default=0), "cells"),
        "simplex.max_bits": (max((i["bits"] for i in lp), default=0), "bits"),
        "support.calls": (layer_calls["support"], "count"),
        "support.self_s": (layer_self["support"], "s"),
        "support.vertices_mean": (_ratio(sum(sup), len(sup)), "count"),
        "support.vertices_max": (max(sup, default=0), "count"),
        "levels.level_calls": (len(level), "count"),
        "levels.level_self_s": (self_s["levels.is_level_vector"], "s"),
        "levels.level_yes_ratio": (_ratio(sum(level), len(level)), "ratio"),
        "levels.preserve_calls": (len(preserve), "count"),
        "levels.preserve_self_s": (self_s["levels.preserves_bj_at"], "s"),
        "levels.preserve_holds_ratio": (_ratio(sum(preserve), len(preserve)), "ratio"),
        "levels.lp_per_preserve": (_ratio(under_preserve, len(preserve)), "count"),
        "levels.enumerate_self_s": (self_s["levels.enumerate_level_numbers"], "s"),
        "levels.bound_self_s": (self_s["levels.level_count_bound"], "s"),
        "isometry.certify_calls": (len(certify), "count"),
        "isometry.certify_self_s": (self_s["isometry.certify_scalar_isometry_polyhedral"], "s"),
        "isometry.points_checked": (sum(c["points"] for c in certify), "count"),
        "isometry.refuted_ratio": (_ratio(sum(c["refuted"] for c in certify), len(certify)), "ratio"),
        "orthogonality.calls": (layer_calls["orthogonality"], "count"),
        "orthogonality.self_s": (layer_self["orthogonality"], "s"),
        "spaces.validate_calls": (len(validate), "count"),
        "spaces.validate_self_s": (sum((own[i] for i in validate), 0.0), "s"),
        "spaces.polar_self_s": (self_s["spaces.polar_vertices"], "s"),
        "spaces.polar_misses": (polar["misses"], "count"),
        "spaces.polar_hit_ratio": (_ratio(polar["hits"], polar["hits"] + polar["misses"]), "ratio"),
        "spaces.polar_entries": (polar["entries"], "count"),
        "spaces.norm_calls": (calls["spaces.norm"], "count"),
        "spaces.norm_self_s": (self_s["spaces.norm"], "s"),
        "faces.lattice_self_s": (self_s["faces.face_lattice"], "s"),
        "faces.lattice_misses": (lattice["misses"], "count"),
        "faces.lattice_hit_ratio": (_ratio(lattice["hits"], lattice["hits"] + lattice["misses"]), "ratio"),
        "faces.lattice_entries": (lattice["entries"], "count"),
        "faces.faces_materialized": (rec.lattice_materialized, "count"),
        "faces.census_self_s": (self_s["faces.face_census"], "s"),
        "linalg.calls": (sum(calls[f"linalg.{n}"] for n in linalg), "count"),
        "linalg.self_s": (layer_self["linalg"], "s"),
        "oracle.calls": (sum(calls[n] for n in oracle_names), "count"),
        "oracle.self_s": (sum((self_s[n] for n in oracle_names), 0.0), "s"),
    }
