"""Seeded inputs, operations and exact-output checks of the four workloads.

An op is one user task: a few direct calls into the public functions of the
layers, made through a :class:`tracer.Tracer`.  Its ``run`` is timed; its
``check`` is not.  ``check`` compares the output with an independent reference
where one exists (a closed form, a formula, or the generating data of the
input), raises :class:`CheckFailed` on disagreement, and returns the canonical
record that goes into the workload's digest.

The seed picks the values of the inputs only.  The list of op kinds and sizes
(the ``(kind, size)`` histogram) is the same for every seed, so run time does
not depend on the seed beyond the values themselves.

Inputs whose current acceptance is a known defect (non-ASCII digits in matrix
files, huge sizes that fail late) are deliberately absent: a digest must not
record a bug as the expected output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb, factorial
from pathlib import Path
from typing import Any, Callable

from isocant import combinatorics, conjectures, geometry, matrices, serialize, tropical

from tracer import Tracer


class CheckFailed(Exception):
    """An op's output disagrees with an independent reference or expectation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    size: tuple[int, ...]
    run: Callable[[Tracer], Any]
    check: Callable[[Any], Any]


class Children:
    """Runs the CLI children of a workload, one at a time, and keeps their peak RSS."""

    def __init__(self, env: dict[str, str], workdir: Path) -> None:
        self.env = env
        self.workdir = workdir
        self.peak_kib = 0

    def run(self, cmd: list[str]) -> tuple[int, bytes]:
        """Run ``cmd`` to completion in the work directory: (exit code, stdout)."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.workdir)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return proc.returncode, out


@dataclass
class Workload:
    """A fixed op list; ``children`` is set when the ops run CLI children."""

    ops: list[Op]
    children: Children | None = None


def canon(value: Any) -> Any:
    """JSON-ready form with a fixed order: rationals as ``p/q``, sets sorted."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, F):
        return str(value)
    if value is tropical.NEG_INF:
        return "-inf"
    if isinstance(value, (set, frozenset)):
        items = [canon(v) for v in value]
        return sorted(items, key=lambda v: (not isinstance(v, int), v if isinstance(v, int) else json.dumps(v)))
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def error_record(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------- generators
# Pools follow the decomposition-uniqueness acceptance criterion: with edge
# lengths >= 1 and perturbation entries in [-1/2, 0], box minus perturbation is
# always normal idempotent, so the generating box and perturbation are the
# reference for ``decompose``.
LENGTHS = (F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 3))
PERTS = (F(0), F(-1, 8), F(-1, 4), F(-1, 3), F(-1, 2))
SHIFTS = (F(0), F(1, 8), F(1, 4), F(1, 2))
NORMAL = (F(0), F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3))
LOOSE = (F(-3), F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(2))
EDGES = (F(2), F(5, 2), F(3), F(7, 2), F(4))
CANT_SHARES = (F(1, 4), F(1, 3), F(1, 2), F(2, 3))

Rows = list[list[Any]]


def ni_rows(rng: random.Random, d: int, shifted: bool = True) -> tuple[Rows, Rows, Rows]:
    """Box minus perturbation, conjugated by a diagonal: (matrix, box, perturbation)."""
    n = d + 1
    lengths = [rng.choice(LENGTHS) for _ in range(d)]
    shifts = [rng.choice(SHIFTS) if shifted else F(0) for _ in range(d)] + [F(0)]
    box = [
        [(F(0) if i == j or i == d else -lengths[i]) + shifts[i] - shifts[j] for j in range(n)]
        for i in range(n)
    ]
    pert = [
        [rng.choice(PERTS) if i != j and i < d and j < d else F(0) for j in range(n)]
        for i in range(n)
    ]
    rows = [[box[i][j] - pert[i][j] for j in range(n)] for i in range(n)]
    return rows, box, pert


def iso_spec(rng: random.Random, slot: int) -> tuple[F, F]:
    """Seeded edge length; the cant-to-edge ratio is fixed by the op's slot.

    The oracle's cost depends on how many tree solutions coincide, which the
    ratio decides and the scale does not, so fixing the ratio per slot keeps
    each op's cost independent of the seed.
    """
    ell = rng.choice(EDGES)
    return ell, ell * CANT_SHARES[slot % len(CANT_SHARES)]


def iso_rows(d: int, ell: F, cant: F, placement: str) -> Rows:
    """Entry tables of the visualized and symmetric isocanted matrices."""
    n = d + 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(F(0))
            elif placement == "vni":
                row.append(F(0) if i == d else -ell if j == d else cant - ell)
            else:
                row.append(-ell / 2 if d in (i, j) else cant - ell)
        rows.append(row)
    return rows


def normal_rows(rng: random.Random, d: int) -> Rows:
    n = d + 1
    return [[F(0) if i == j else rng.choice(NORMAL) for j in range(n)] for i in range(n)]


def nonni_rows(rng: random.Random, d: int) -> Rows:
    """Normal, and not idempotent: ``a[i][j] < a[i][k] + a[k][j] = 0``."""
    rows = normal_rows(rng, d)
    i, j, k = rng.sample(range(d + 1), 3)
    rows[i][k] = rows[k][j] = F(0)
    rows[i][j] = rng.choice(NORMAL[2:])
    return rows


def flat_rows(rng: random.Random, d: int) -> Rows:
    """Normal with one pair of equal bounds, so the polytope is not full-dimensional."""
    rows = normal_rows(rng, d)
    i, j = rng.sample(range(d + 1), 2)
    rows[i][j] = rows[j][i] = F(0)
    return rows


def empty_rows(rng: random.Random, d: int) -> Rows:
    """Box bounds plus one difference bound no point of the box meets.

    Every bound pair is consistent on its own, so the emptiness shows only
    when the vertex oracle finds no feasible point.
    """
    n = d + 1
    lengths = [rng.choice(LENGTHS) for _ in range(d)] + [F(0)]
    rows = [[F(0) if i == j or i == d else -lengths[i] for j in range(n)] for i in range(n)]
    p, q = rng.sample(range(d), 2)
    gap = lengths[q] + rng.choice((F(1, 2), F(1), F(2)))
    rows[p][q] = gap
    rows[q][p] = -(gap + 1)
    return rows


def loose_rows(rng: random.Random, d: int) -> Rows:
    """Not normal: one positive off-diagonal entry at least."""
    n = d + 1
    rows = [[F(0) if i == j else rng.choice(LOOSE) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    rows[i][j] = rng.choice((F(1, 3), F(1), F(2)))
    return rows


def grid_rows(rng: random.Random, k: int, neg_inf: int) -> Rows:
    """Seeded numerators over a fixed pattern of denominators.

    The cost of a ``Fraction`` sum depends on the denominators, so fixing
    their pattern keeps a permanent's cost independent of the seed.
    """
    rows = [[F(rng.randint(-6, 6), 1 + (i + 2 * j) % 3) for j in range(k)] for i in range(k)]
    for _ in range(neg_inf):
        rows[rng.randrange(k)][rng.randrange(k)] = tropical.NEG_INF
    return rows


def json_entry(v: Any) -> Any:
    if v is tropical.NEG_INF:
        return "-inf"
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def matrix_text(rows: Rows) -> str:
    return json.dumps({"size": len(rows), "entries": [[json_entry(v) for v in r] for r in rows]})


def bad_texts(rng: random.Random, d: int) -> dict[str, str]:
    """Matrix files the parser must reject: a float, ``+inf``, a ragged row."""
    rows = [[json_entry(v) for v in r] for r in ni_rows(rng, d)[0]]
    i, j = rng.sample(range(d + 1), 2)
    floats = [r[:] for r in rows]
    floats[i][j] = -0.5
    plus_inf = [r[:] for r in rows]
    plus_inf[i][j] = "+inf"
    ragged = [r[:] for r in rows]
    ragged[i] = ragged[i][:-1]
    return {
        name: json.dumps({"size": d + 1, "entries": entries})
        for name, entries in (("float", floats), ("plus_inf", plus_inf), ("ragged", ragged))
    }


def fvector_formula(d: int) -> list[int]:
    return [(2 ** (d + 1 - j) - 2) * comb(d + 1, j) for j in range(d)]


def faces_total(d: int) -> int:
    """Intervals ``[B, T]`` with ``B`` nonempty and ``T`` proper in ``1..d+1``."""
    return 3 ** (d + 1) - 2 ** (d + 2) + 1


def hyperplane_count(h: geometry.HRep) -> int:
    planes = {(i, 0, c) for i, (lo, hi) in enumerate(h.single) for c in (lo, hi)}
    planes |= {(i, j, c) for i, j, lo, hi in h.diff for c in (lo, hi)}
    return len(planes)


def count_oracle(tr: Tracer, h: geometry.HRep, vertices: int) -> None:
    tr.count("geometry.subsets", comb(hyperplane_count(h), h.d))
    tr.count("geometry.vertices", vertices)


# ------------------------------------------------------------------ polytope
# (kind, d) -> ops per pass.  The two d = 5 ops (a 142,506-subset sweep each)
# set the tail; the 27 d = 4 ops hold the 90th percentile and the 80 d = 3 ops
# the median, each well inside its block, and enough random inputs sit in each
# block that its quantile hardly moves with the seed.  d = 6 (36 s per op) is
# excluded.
POLYTOPE_MIX = {
    2: {"ni": 14, "vni": 10, "sni": 10, "nonni": 12, "flat": 12, "empty": 8, "bad": 6},
    3: {"ni": 20, "vni": 12, "sni": 12, "nonni": 16, "flat": 12, "empty": 8},
    4: {"ni": 9, "vni": 4, "sni": 4, "nonni": 5, "flat": 3, "empty": 2},
    5: {"ni": 1, "vni": 1},
}


def polytope_op(kind: str, d: int, text: str, spec: tuple[F, F] | None) -> Op:
    def run(tr: Tracer) -> dict:
        tr.count("serialize.bytes", len(text))
        try:
            a = tr.call(serialize.matrix_from_json, json.loads(text))
        except serialize.MatrixParseError as exc:
            if kind != "bad":
                raise
            return error_record(exc)
        h = tr.call(geometry.hrep_from_matrix, a)
        try:
            vset = tr.call(geometry.enumerate_vertices_oracle, h)
        except ValueError as exc:
            if kind != "empty":
                raise
            count_oracle(tr, h, 0)
            return error_record(exc)
        count_oracle(tr, h, len(vset))
        faces = tr.call(geometry.oracle_face_counts, h, vset)
        tr.count("geometry.faces", sum(faces))
        out = {"hrep": h, "vertices": vset.points, "faces": faces, "ni": tr.call(matrices.is_ni, a)}
        if kind in ("vni", "sni"):
            dec = tr.call(matrices.decompose, a)
            found = matrices.IsocantedSpec(d, dec.edge_lengths[0], dec.perturbation.constant_cant())
            out["labels"] = tr.call(geometry.label_vertices, found, vset, kind).labels
            if kind == "sni":
                out["symmetric"] = tr.call(geometry.central_symmetry_check, a)
                count_oracle(tr, h, len(vset))
        return out

    def check(out: dict) -> Any:
        if kind == "bad":
            require(out.get("error") == "MatrixParseError", "malformed file was not rejected")
            return out
        if kind == "empty":
            require(
                out.get("error") == "ValueError" and out["message"].startswith("empty polytope"),
                "empty polytope was not reported",
            )
            return out
        h = out.pop("hrep")
        points = out["vertices"]
        for p in points:
            require(h.contains(p) and h.tight_rank(p) == d, f"{p} is not a vertex")
        if kind in ("vni", "sni"):
            expected = geometry.closed_form_vertices(matrices.IsocantedSpec(d, *spec), kind)
            require(dict(out["labels"]) == expected, "labels differ from the closed-form map")
            require(list(out["faces"]) == fvector_formula(d), "face counts differ from the f-vector")
            require(out.get("symmetric", True), "symmetric placement is not centrally symmetric")
        if kind != "flat":
            require(out["ni"] == (kind != "nonni"), "NI flag differs from construction")
        return out

    return Op(kind, (d,), run, check)


def build_polytope(seed: int, workdir: Path | None = None) -> Workload:
    rng = random.Random(seed)
    ops = []
    for d, kinds in POLYTOPE_MIX.items():
        for kind, count in kinds.items():
            if kind == "bad":
                texts = [t for _ in range(count // 3) for t in bad_texts(rng, d).values()]
                ops.extend(polytope_op(kind, d, t, None) for t in texts)
                continue
            for slot in range(count):
                spec = None
                if kind == "ni":
                    rows = ni_rows(rng, d)[0]
                elif kind in ("vni", "sni"):
                    spec = iso_spec(rng, slot)
                    rows = iso_rows(d, *spec, kind)
                else:
                    rows = {"nonni": nonni_rows, "flat": flat_rows, "empty": empty_rows}[kind](rng, d)
                ops.append(polytope_op(kind, d, matrix_text(rows), spec))
    rng.shuffle(ops)
    return Workload(ops)


# -------------------------------------------------------------------- matrix
CLASSIFY_KINDS = ("ni", "vni", "sni", "nonni", "loose")
# Two classifications per (size, kind) make the median region dense, so the
# median hardly moves when a few ops trade places.
CLASSIFY_REPEATS = 2
PERMANENT_SIZES = (3, 4, 5, 6)
# Twenty k = 7 permanents (about 0.1 s each) under the single k = 8 one put
# the 90th percentile inside a block of equal-cost ops.
K7_OPS = 20
UV_D5_LABEL_SIZES = (2, 3, 4, 4, 5, 5)


def classify_op(kind: str, a: tropical.TropMatrix, rows: Rows) -> Op:
    n = len(rows)
    ni = kind in ("ni", "vni", "sni")
    expected = {
        "normal": kind != "loose",
        "ni": ni,
        "vni": ni and all(v == 0 for v in rows[-1]),
        "sni": ni and all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n)),
    }

    def run(tr: Tracer) -> dict:
        return {
            "normal": tr.call(matrices.is_normal, a),
            "ni": tr.call(matrices.is_ni, a),
            "vni": tr.call(matrices.is_vni, a),
            "sni": tr.call(matrices.is_sni, a),
        }

    def check(out: dict) -> Any:
        require(out == expected, f"class flags {out} differ from construction {expected}")
        return out

    return Op(f"classify-{kind}", (n,), run, check)


def decompose_op(a: tropical.TropMatrix, box: Rows, pert: Rows) -> Op:
    def run(tr: Tracer) -> Any:
        return tr.call(matrices.decompose, a)

    def check(dec: matrices.Decomposition) -> Any:
        require(
            [list(r) for r in dec.box.entries] == box
            and [list(r) for r in dec.perturbation.entries] == pert,
            "decomposition differs from the generating box and perturbation",
        )
        return {"box": dec.box.entries, "perturbation": dec.perturbation.entries}

    return Op("decompose", (len(box),), run, check)


def isocanted_op(a: tropical.TropMatrix, cant: F) -> Op:
    def run(tr: Tracer) -> Any:
        return tr.call(matrices.is_isocanted, a)

    def check(found: Any) -> Any:
        require(found == cant, f"cant {found} differs from {cant}")
        return found

    return Op("is_isocanted", (a.n,), run, check)


def permanent_op(kind: str, a: tropical.TropMatrix, column: int = 1) -> Op:
    k = a.n

    def run(tr: Tracer) -> Any:
        if kind == "laplace":
            tr.count("tropical.perm_terms", factorial(k))
            full = range(1, k + 1)
            return tr.call(tropical.laplace_terms, a, full, full, column)
        if k > tropical.PERMANENT_SIZE_LIMIT:
            try:
                tr.call(tropical.trop_permanent, a)
            except ValueError as exc:
                return error_record(exc)
            raise CheckFailed(f"a {k} x {k} permanent was accepted")
        tr.count("tropical.perm_terms", factorial(k))
        ev = tr.call(tropical.trop_permanent, a)
        return {"value": ev.value, "multiplicity": ev.multiplicity}

    def check(out: Any) -> Any:
        if k > tropical.PERMANENT_SIZE_LIMIT:
            require("exceeds permanent limit" in out.get("message", ""), "oversized permanent not refused")
        elif kind == "dead":
            require(out == {"value": tropical.NEG_INF, "multiplicity": factorial(k)}, "all -inf permanent")
        return out

    return Op(kind, (k,), run, check)


def unique_vertex_op(spec: matrices.IsocantedSpec, label: tuple[int, ...]) -> Op:
    def run(tr: Tracer) -> Any:
        return tr.call(geometry.verify_unique_vertex, spec, label)

    def check(ok: Any) -> Any:
        require(ok is True, f"closed-form vertex {label} fails the minor conditions")
        return ok

    return Op("unique_vertex", (spec.d, len(label)), run, check)


def build_matrix(seed: int, workdir: Path | None = None) -> Workload:
    rng = random.Random(seed)
    ops = []
    for n in range(3, 10):
        d = n - 1
        for kind in CLASSIFY_KINDS * CLASSIFY_REPEATS:
            if kind == "ni":
                rows = ni_rows(rng, d)[0]
            elif kind in ("vni", "sni"):
                rows = iso_rows(d, *iso_spec(rng, n), kind)
            else:
                rows = {"nonni": nonni_rows, "loose": loose_rows}[kind](rng, d)
            ops.append(classify_op(kind, tropical.TropMatrix.from_rows(rows), rows))
        rows, box, pert = ni_rows(rng, d)
        ops.append(decompose_op(tropical.TropMatrix.from_rows(rows), box, pert))
    for d in (2, 4, 6):
        ell, cant = iso_spec(rng, d)
        ops.append(isocanted_op(tropical.TropMatrix.from_rows(iso_rows(d, ell, cant, "vni")), cant))
    for k in PERMANENT_SIZES:
        ops.append(permanent_op("permanent", tropical.TropMatrix.from_rows(grid_rows(rng, k, 0))))
        ops.append(permanent_op("permanent", tropical.TropMatrix.from_rows(grid_rows(rng, k, k))))
        ops.append(permanent_op("laplace", tropical.TropMatrix.from_rows(grid_rows(rng, k, 1)), rng.randint(1, k)))
    for i in range(K7_OPS):
        kind = "permanent" if i % 2 else "laplace"
        ops.append(permanent_op(kind, tropical.TropMatrix.from_rows(grid_rows(rng, 7, 0)), rng.randint(1, 7)))
    ops.append(permanent_op("permanent", tropical.TropMatrix.from_rows(grid_rows(rng, 8, 0))))
    dead = [[tropical.NEG_INF] * 5 for _ in range(5)]
    ops.append(permanent_op("dead", tropical.TropMatrix.from_rows(dead)))
    ops.append(permanent_op("permanent", tropical.TropMatrix.from_rows(grid_rows(rng, 11, 0))))
    spec4 = matrices.IsocantedSpec(4, *iso_spec(rng, 0))
    ops.extend(unique_vertex_op(spec4, tuple(sorted(w))) for w in combinatorics.all_vertex_labels(4))
    spec5 = matrices.IsocantedSpec(5, *iso_spec(rng, 1))
    ops.extend(unique_vertex_op(spec5, tuple(sorted(rng.sample(range(1, 7), s)))) for s in UV_D5_LABEL_SIZES)
    rng.shuffle(ops)
    return Workload(ops)


# ------------------------------------------------------------------- lattice
LATTICE_DIMS = (5, 6, 7, 8)
# Enough distance checks that the median falls in a dense block of them.
DISTANCE_OPS = {5: 12, 6: 16, 7: 16, 8: 12}
# Ten sweeps of equal cost hold the lattice workload's 90th percentile.
SWEEP_OPS = 10
SWEEP_TOP = 100
FATNESS_OPS = 4


def lattice_op(kind: str, d: int) -> Op:
    fvector = fvector_formula(d)

    def run(tr: Tracer) -> Any:
        if kind == "lattice":
            lattice = tr.call(combinatorics.build_face_lattice, d)
            tr.count("combinatorics.faces_built", sum(len(f) for f in lattice.values()))
            return [len(lattice[k]) for k in sorted(lattice)]
        if kind == "casks":
            part = tr.call(combinatorics.casks_and_belt, d)
            tr.count("combinatorics.faces_built", faces_total(d))
            return {p: part.counts(p) for p in ("north", "south", "belt")}
        if kind == "chains":
            tr.count("combinatorics.faces_built", faces_total(d))
            tr.count("combinatorics.chain_states", faces_total(d))
            return tr.call(combinatorics.count_flags_by_chains, d)
        nodes = 2 ** (d + 1) - 2
        tr.count("combinatorics.bfs_visits", nodes * nodes)
        return tr.call(combinatorics.bfs_diameter, d)

    def check(out: Any) -> Any:
        if kind == "lattice":
            require(out == fvector, "lattice counts differ from the f-vector")
        elif kind == "casks":
            total = [sum(out[p][k] if k < len(out[p]) else 0 for p in out) for k in range(d)]
            require(total == fvector and out["north"] == out["south"], "cask/belt split")
        elif kind == "chains":
            require(out == 2 ** (d - 1) * factorial(d + 1), "chain count differs from 2^(d-1)(d+1)!")
        else:
            require(out == d + 1, "BFS diameter differs from d + 1")
        return out

    return Op(kind, (d,), run, check)


def distance_op(d: int, source: frozenset[int]) -> Op:
    def run(tr: Tracer) -> Any:
        graph = tr.call(combinatorics.skeleton, d)
        dist = tr.call(combinatorics.bfs_distances, graph, source)
        tr.count("combinatorics.bfs_visits", len(dist))
        return dist

    def check(dist: dict) -> Any:
        require(len(dist) == 2 ** (d + 1) - 2, "BFS missed vertices")
        require(all(v == len(w ^ source) for w, v in dist.items()), "distance is not |w1 ^ w2|")
        histogram: dict[int, int] = {}
        for v in dist.values():
            histogram[v] = histogram.get(v, 0) + 1
        return {"source": source, "histogram": sorted(histogram.items())}

    return Op("distance", (d,), run, check)


def fatness_op() -> Op:
    def run(tr: Tracer) -> Any:
        return tr.call(combinatorics.fatness_f03)

    def check(out: Any) -> Any:
        f = fvector_formula(4)
        # 20 facets, each a 3-cube with 8 vertices.
        require(out == (F(f[1] + f[2] - 20, f[0] + f[3] - 10), f[3] * 8), "fatness / f03")
        return out

    return Op("fatness", (4,), run, check)


def sweep_op(lo: int, hi: int) -> Op:
    # Known-false stated claims: argmax fails at the first d >= 5 with
    # d = 2 (mod 3); the flag formula fails at the first chain-checked d >= 4.
    argmax_at = next(d for d in range(max(lo, 5), hi + 1) if d % 3 == 2)
    flag_at = max(lo, 4)

    def run(tr: Tracer) -> Any:
        reports = tr.call(conjectures.run_all, None, lo, hi)
        tr.count("conjectures.dims_swept", sum(len(r.witnesses) for r in reports))
        return [r.to_json() for r in reports]

    def check(reports: list) -> Any:
        failed = {r["name"]: r["counterexample"]["d"] for r in reports if r["status"] == "fail"}
        require(len(reports) == len(conjectures.CHECKS), "missing sweep reports")
        require(failed == {"argmax": argmax_at, "flag": flag_at}, f"unexpected sweep failures {failed}")
        return reports

    return Op("sweep", (hi,), run, check)


def build_lattice(seed: int, workdir: Path | None = None) -> Workload:
    rng = random.Random(seed)
    ops = [lattice_op(kind, d) for kind in ("lattice", "casks", "chains", "bfs_diameter") for d in LATTICE_DIMS]
    for d, count in DISTANCE_OPS.items():
        for _ in range(count):
            source = frozenset(rng.sample(range(1, d + 2), rng.randint(1, d)))
            ops.append(distance_op(d, source))
    ops.extend(fatness_op() for _ in range(FATNESS_OPS))
    ops.extend(sweep_op(rng.randint(2, 5), SWEEP_TOP) for _ in range(SWEEP_OPS))
    rng.shuffle(ops)
    return Workload(ops)


# ----------------------------------------------------------------------- cli
def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_op(kind: str, args: list[str], expect_code: int, children: Children,
           size: tuple[int, ...], verify: Callable[[bytes], bool] | None = None) -> Op:
    cmd = [sys.executable, "-m", "isocant.cli", *args]

    def run(tr: Tracer) -> Any:
        code, out = tr.span(f"cli.{args[0]}", children.run, cmd)
        tr.count("cli.stdout_bytes", len(out))
        return code, out

    def check(result: tuple[int, bytes]) -> Any:
        code, out = result
        require(code == expect_code, f"{' '.join(args)} exited {code}, expected {expect_code}")
        if verify is not None:
            require(verify(out), f"{' '.join(args)} printed a wrong result")
        return {"code": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}

    return Op(kind, size, run, check)


def closed_form_points(d: int, ell: F, cant: F, placement: str) -> set[tuple[str, ...]]:
    spec = matrices.IsocantedSpec(d, ell, cant)
    return {tuple(json.dumps(json_entry(c)) for c in p)
            for p in geometry.closed_form_vertices(spec, placement).values()}


def listed_points(out: bytes) -> set[tuple[str, ...]]:
    return {tuple(json.dumps(c) for c in v["point"]) for v in json.loads(out)["vertices"]}


def build_cli(seed: int, workdir: Path) -> Workload:
    """Writes the matrix files into ``workdir``; every child runs there."""
    rng = random.Random(seed)
    children = Children(cli_env(Path(__file__).resolve().parent.parent), workdir)
    ops = []

    def write(name: str, text: str) -> str:
        (workdir / name).write_text(text + "\n", encoding="utf-8")
        return name

    for dim, extra in ((3, []), (4, ["--extended"]), (6, []), (9, ["--format", "table"]), (12, []), (20, [])):
        def fv_ok(out: bytes, dim: int = dim, extra: list = extra) -> bool:
            counts = [int(v) for v in out.split()] if "table" in extra else json.loads(out)["f"]
            return counts == fvector_formula(dim) + ([1] if "--extended" in extra else [])
        ops.append(cli_op("fvector", ["fvector", "--dim", str(dim), *extra], 0, children, (dim,), fv_ok))
    ops.append(cli_op(
        "lattice", ["lattice", "--dim", "7"], 0, children, (7,),
        lambda out: json.loads(out)["counts"] == fvector_formula(7),
    ))
    for dim in (3, 4, 5, 6):
        ell, cant = iso_spec(rng, dim)
        placement = rng.choice(("vni", "sni"))
        expected = closed_form_points(dim, ell, cant, placement)
        ops.append(cli_op(
            "vertices", ["vertices", "--dim", str(dim), "--ell", str(ell), "--a", str(cant), "--placement", placement],
            0, children, (dim,), lambda out, expected=expected: listed_points(out) == expected,
        ))
    for dim, kind in ((4, "ni"), (4, "ni"), (4, "sni"), (4, "vni"), (5, "vni")):
        if kind == "ni":
            name = write(f"oracle_{len(ops)}_{kind}.json", matrix_text(ni_rows(rng, dim)[0]))
            verify = None
        else:
            ell, cant = iso_spec(rng, len(ops))
            name = write(f"oracle_{len(ops)}_{kind}.json", matrix_text(iso_rows(dim, ell, cant, kind)))
            expected = closed_form_points(dim, ell, cant, kind)
            verify = lambda out, expected=expected: (  # noqa: E731
                listed_points(out) == expected and all(v["label"] for v in json.loads(out)["vertices"])
            )
        ops.append(cli_op("oracle", ["vertices", name], 0, children, (dim,), verify))
    classify_inputs = [
        (3, "ni", ni_rows(rng, 3)[0]), (5, "ni", ni_rows(rng, 5)[0]), (4, "nonni", nonni_rows(rng, 4)),
        (4, "vni", iso_rows(4, *iso_spec(rng, 0), "vni")), (3, "sni", iso_rows(3, *iso_spec(rng, 1), "sni")),
        (4, "flat", flat_rows(rng, 4)),
    ]
    for i, (dim, kind, rows) in enumerate(classify_inputs):
        name = write(f"classify_{i}_{kind}.json", matrix_text(rows))
        ni = kind in ("ni", "vni", "sni")
        verify = None if kind == "flat" else (lambda out, ni=ni: json.loads(out)["ni"] is ni)
        ops.append(cli_op("classify", ["classify", name], 0, children, (dim,), verify))
    for dim in (3, 4, 5, 8):
        ell, cant = iso_spec(rng, dim)
        placement = rng.choice(("vni", "sni"))
        expected = json.loads(matrix_text(iso_rows(dim, ell, cant, placement)))
        ops.append(cli_op(
            "build", ["build", "--dim", str(dim), "--ell", str(ell), "--a", str(cant), "--placement", placement],
            0, children, (dim,), lambda out, expected=expected: json.loads(out) == expected,
        ))
    for slot, fmt in enumerate(("off", "obj")):
        ell, cant = iso_spec(rng, slot)
        ops.append(cli_op(
            "export", ["export", "--dim", "3", "--ell", str(ell), "--a", str(cant), "--format", fmt],
            0, children, (3,),
            lambda out, fmt=fmt: out.count(b"\nv ") == 14 if fmt == "obj" else out.split(b"\n")[2] == b"14 12 24",
        ))

    def verify_all(out: bytes) -> bool:
        reports = [json.loads(line) for line in out.splitlines()]
        failed = {r["name"]: r["counterexample"]["d"] for r in reports if r["status"] == "fail"}
        return failed == {"argmax": 5, "flag": 4}

    # Exit 1 with the two known counterexamples is the expected outcome.
    ops.append(cli_op("verify", ["verify", "all"], 1, children, (60,), verify_all))
    for bad, text in bad_texts(rng, 3).items():
        name = write(f"bad_{bad}.json", text)
        ops.append(cli_op("malformed", ["classify", name], 2, children, (3,), lambda out: out == b""))
    rng.shuffle(ops)
    return Workload(ops, children)


BUILDERS: dict[str, Callable[[int, Path], Workload]] = {
    "polytope": build_polytope,
    "matrix": build_matrix,
    "lattice": build_lattice,
    "cli": build_cli,
}
WORKLOADS = tuple(BUILDERS)
