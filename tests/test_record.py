"""The shared immutable record base: equality, hashing, immutability, repr, import cost."""

import copy
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import isocant
from isocant._record import Record
from isocant.combinatorics import (
    CaskBeltPartition,
    FaceInterval,
    FVectorTables,
    SkeletonGraph,
    casks_and_belt,
    fvector_tables,
    skeleton,
)
from isocant.conjectures import ConjectureReport, check_extremes
from isocant.geometry import HRep, VertexSet, enumerate_vertices_oracle, hrep_from_matrix
from isocant.matrices import (
    Decomposition,
    IsocantedSpec,
    PerturbationMatrix,
    decompose,
    isocanted_vni,
)
from isocant.serialize import MeshExport, build_mesh
from isocant.tropical import NEG_INF, MinorEvaluation, TropMatrix, trop_minor

SPEC = IsocantedSpec(3, F(2), F(1))

# Each maker builds a new record on every call, so two calls give equal,
# distinct instances.
MAKERS = {
    TropMatrix: lambda: isocanted_vni(SPEC),
    MinorEvaluation: lambda: trop_minor(isocanted_vni(SPEC), (1, 2), (1, 2)),
    PerturbationMatrix: lambda: decompose(isocanted_vni(SPEC)).perturbation,
    Decomposition: lambda: decompose(isocanted_vni(SPEC)),
    IsocantedSpec: lambda: IsocantedSpec(3, 2, 1),
    HRep: lambda: hrep_from_matrix(isocanted_vni(SPEC)),
    VertexSet: lambda: VertexSet(1, ((F(0),), (F(1),)), ((frozenset({1}), (F(1),)),)),
    FVectorTables: lambda: fvector_tables(3),
    FaceInterval: lambda: FaceInterval(frozenset({1}), frozenset({1, 2})),
    SkeletonGraph: lambda: skeleton(3),
    CaskBeltPartition: lambda: casks_and_belt(3),
    ConjectureReport: lambda: check_extremes(0, 4),
    MeshExport: lambda: build_mesh(SPEC),
}


# The records whose last field has a default; every other field is required.
DEFAULTED = {VertexSet, ConjectureReport, MeshExport}


def field_values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_is_covered():
    library = {c for c in Record.__subclasses__() if c.__module__.startswith("isocant.")}
    assert library == set(MAKERS)


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda c: c.__name__)
def test_record_semantics(cls):
    record, twin = MAKERS[cls](), MAKERS[cls]()
    assert type(record) is cls and record is not twin
    assert record._fields == tuple(cls.__annotations__)
    values = field_values(record)

    assert record == twin
    assert not record != twin
    # Another class with the same fields and values, and the bare tuple, differ.
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(cls._fields, object)})
    assert record != other(*values)
    assert record != values
    assert record.__eq__(values) is NotImplemented

    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected

    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert field_values(record) == values

    with pytest.raises(TypeError):
        cls(*values, None)
    # Too few values are refused by the one arity text, before any check runs.
    required = len(values) - (cls in DEFAULTED)
    for given in range(required):
        arity = re.escape(f"{cls.__name__}{cls._fields} given {given} values")
        with pytest.raises(TypeError, match=f"^{arity}$"):
            cls(*values[:given])

    if "__repr__" not in cls.__dict__:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(cls._fields, values))
        assert repr(record) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda c: c.__name__)
def test_copies_and_pickles_rebuild_equal_records(cls):
    # Each copy goes through the constructor, so a grid cached on the record
    # (HRep's is filled by hrep_from_matrix) is not carried over.
    record = MAKERS[cls]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
        assert "_grid" not in getattr(twin, "__dict__", {})


def test_copies_keep_the_one_neg_inf():
    a = TropMatrix.from_rows([[0, NEG_INF], [-1, 0]])
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin.entries[0][1] is NEG_INF


def test_construction_defaults_and_validation():
    points = ((F(0),), (F(1),))
    assert VertexSet(1, points).labels == ()
    assert ConjectureReport("x", 0, 1, True, ()).counterexample is None
    assert MeshExport((), (), (), ()).precision == MeshExport.precision
    with pytest.raises(TypeError):
        VertexSet(1)
    # FaceInterval takes Record's constructor and checks containment after it.
    face = FaceInterval(frozenset({1}), frozenset({1, 2}))
    assert (face.bottom, face.top) == (frozenset({1}), frozenset({1, 2}))
    with pytest.raises(ValueError):
        FaceInterval(frozenset({1, 2}), frozenset({1}))


def test_square_records_share_rows_size_and_entry():
    # TropMatrix and PerturbationMatrix take from_rows, n and entry from one
    # plain base listed before Record; their fields are still just entries.
    rows = [[0, -1, 0], [-2, 0, 0], [0, 0, 0]]
    for cls in (TropMatrix, PerturbationMatrix):
        a = cls.from_rows(rows)
        assert type(a) is cls and cls._fields == ("entries",)
        assert a == cls(tuple(tuple(F(v) for v in row) for row in rows))
        assert (a.n, a.entry(2, 1), a.entry(3, 3)) == (3, F(-2), F(0))
        for i, j in ((0, 1), (1, 4)):
            with pytest.raises(IndexError, match=rf"^index \({i}, {j}\) out of range for size 3$"):
                a.entry(i, j)


# Each record of number rows from one entry ``v``, built from tuple rows of
# Fractions and from list rows of ints: one gate makes the second the first.
EXACT_AND_LOOSE = {
    TropMatrix: (
        lambda v: TropMatrix(((F(0), v), (F(-1), F(0)))),
        lambda v: TropMatrix([[0, v], (-1, 0)]),
    ),
    PerturbationMatrix: (
        lambda v: PerturbationMatrix(((F(0), v, F(0)), (F(0),) * 3, (F(0),) * 3)),
        lambda v: PerturbationMatrix([[0, v, 0], [0, 0, 0], [0, 0, 0]]),
    ),
    HRep: (
        lambda v: HRep(2, ((v, F(1)), (F(0), F(1))), ((1, 2, F(-1), v),)),
        lambda v: HRep(2, [[v, 1], [0, 1]], [[1, 2, -1, v]]),
    ),
    VertexSet: (
        lambda v: VertexSet(2, ((v, F(1)), (F(0), F(0)))),
        lambda v: VertexSet(2, [[v, 1], [0, 0]]),
    ),
}


@pytest.mark.parametrize("cls", list(EXACT_AND_LOOSE), ids=lambda c: c.__name__)
def test_number_records_pass_one_exact_gate(cls):
    # Floats and bools are refused with the scalar texts in
    # ``test_builders_reject_floats_and_bools``.
    exact, loose = EXACT_AND_LOOSE[cls]
    record = loose(-1)
    assert record == exact(F(-1)) and hash(record) == hash(exact(F(-1)))
    # The field values' repr tells ints from Fractions and lists from tuples.
    assert repr(record._values) == repr(exact(F(-1))._values)
    if cls is TropMatrix:
        assert loose(NEG_INF).entries[0][1] is exact(NEG_INF).entries[0][1] is NEG_INF
    else:
        for make in (exact, loose):
            with pytest.raises(TypeError):
                make(NEG_INF)


def test_skeleton_adjacency_is_cached():
    graph = skeleton(3)
    assert graph._adjacency is graph._adjacency
    assert graph == skeleton(3)
    assert graph.neighbors(frozenset({1})) == [frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})]


def test_integer_grids_stay_outside_the_fields():
    # TropMatrix, HRep and VertexSet keep their integer grid beside their
    # fields: one read, or one fill by the function that made the record,
    # leaves a record equal to, hashing and printing as its fresh twin.
    a = isocanted_vni(IsocantedSpec(3, F(5, 2), F(3, 4)))
    h = hrep_from_matrix(a)  # reads a's grid and fills h's
    vset = enumerate_vertices_oracle(h)  # fills vset's
    pairs = [
        (a, TropMatrix(a.entries), ("entries",)),
        (h, HRep(h.d, h.single, h.diff), ("d", "single", "diff")),
        (vset, VertexSet(vset.d, vset.points), ("d", "points", "labels")),
    ]
    for record, fresh, fields in pairs:
        assert "_grid" in vars(record) and "_grid" not in vars(fresh)
        assert record == fresh and hash(record) == hash(fresh) and repr(record) == repr(fresh)
        # Every denominator here is 4, so even the walk's grid, over the
        # bounds' denominator, equals the one the twin scales on first read.
        assert record._grid == fresh._grid and "_grid" in vars(fresh)
        assert record == fresh and hash(record) == hash(fresh) and repr(record) == repr(fresh)
        assert record._fields == type(record)._fields == fields
        rows, den = record._grid
        assert record._grid is record._grid and all(type(row) is tuple for row in rows)
        with pytest.raises(AttributeError):
            record._grid = (rows, den)


def test_cli_import_does_not_load_dataclasses_or_inspect():
    # Both cost milliseconds on every command-line call; the set of modules a
    # fresh interpreter adds is deterministic, unlike a wall-clock budget.
    src = str(Path(isocant.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import isocant.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "isocant.cli" in added
    assert not added & {"dataclasses", "inspect"}
