"""Command-line interface.

Subcommands: ``classify``, ``build``, ``vertices``, ``fvector``, ``lattice``,
``verify``, ``export``.  JSON is the default output; ``--format table`` gives
plain text.  Each ``cmd_*`` handler returns its exit code and text, and
``main`` writes that text once, to ``--output`` or to stdout.  Exit codes:
0 success, 1 verification failure (witness printed), 2 usage or parse errors
(an unwritable ``--output`` included).  Outputs carry no timestamps, so
identical inputs yield identical bytes.  Argument parsers raise ``ValueError``,
which ``_arg`` alone turns into argparse's usage error with the same text; the
size caps go through ``_record._require_at_most``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import combinatorics, conjectures, geometry, matrices, serialize
from ._record import _require_at_most
from .combinatorics import label_text
from .matrices import IsocantedSpec
from .serialize import scalar_to_json

#: Largest ``fvector --dim``.  Time and output grow with the digits of the
#: counts (d=2,000: 0.3 s and 1.5 MB); far beyond it the counts outgrow
#: Python's 4,300-digit limit on printing an int, after the whole computation.
FVECTOR_DIM_LIMIT = 2000

#: Largest closed-form ``vertices --dim``.  The listing has ``2^(d+1) - 2``
#: rows, so each step doubles time and output (d=12: 0.5 s and 2.3 MB).
VERTICES_DIM_LIMIT = 12

#: Largest ``build --dim``: the matrix has ``(d+1)**2`` entries (d=400: 0.3 s, 1.6 MB).
BUILD_DIM_LIMIT = 400

#: Largest dimension in ``verify --range``: ``verify all --range 2:500`` takes
#: 0.6 s, and from d=1,424 the flag counts outgrow the 4,300-digit print limit.
VERIFY_DIM_LIMIT = 500

#: Largest matrix size that ``classify`` reads, checked right after parsing: its
#: O(n^3) NI test can run four times (n=140: 0.5 s; n=200: 1.2 s).  ``build`` can
#: write a larger matrix: ``build --dim 400`` gives n=401, 8 to 12 s uncapped.
CLASSIFY_SIZE_LIMIT = 140


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _lines(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


def _arg(parse: Callable[[str], object]) -> Callable[[str], object]:
    """Argparse type that calls ``parse``; a ``ValueError`` becomes a usage error with the same text."""

    def parse_arg(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse_arg


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"not an integer: {text!r}") from exc


def _dim_up_to(limit: int, command: str) -> Callable[[str], int]:
    """Argparse type for ``--dim``: an integer no larger than ``limit``."""
    return _arg(lambda text: _require_at_most(_int(text), limit, "dimension", command))


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("range must look like LO:HI")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError("range bounds must be integers") from exc
    if lo > hi:
        raise ValueError("range must satisfy LO <= HI")
    return lo, _require_at_most(hi, VERIFY_DIM_LIMIT, "dimension", "verify")


def _spec_from_args(args: argparse.Namespace) -> IsocantedSpec:
    return IsocantedSpec(args.dim, args.ell, args.a)


def _infer_labels(a, vset) -> dict | None:
    """Point-to-label map when the matrix is a canonical isocanted placement.

    Best-effort decoration: anything non-canonical (not NI, degenerate box,
    mixed lengths, translated placement) simply yields no labels.  A zero
    last row can only be ``vni``, any other only ``sni``.
    """
    try:
        dec = matrices.decompose(a)  # raises ValueError when ``a`` is not NI
        cant = dec.perturbation.constant_cant()
        lengths = set(dec.edge_lengths)
        if cant is None or len(lengths) != 1:
            return None
        spec = IsocantedSpec(a.n - 1, lengths.pop(), cant)
        labeled = geometry.label_vertices(spec, vset, "sni" if any(a.entries[-1]) else "vni")
    except ValueError:
        return None
    return {point: label for label, point in labeled.labels}


def cmd_classify(args: argparse.Namespace) -> tuple[int, str]:
    a = serialize.read_matrix(args.input)
    _require_at_most(a.n, CLASSIFY_SIZE_LIMIT, "matrix size", "classify")
    if not a.is_finite():
        raise ValueError("classification needs finite entries")
    payload: dict = {
        "size": a.n,
        "normal": matrices.is_normal(a),
        "ni": matrices.is_ni(a),
        "vni": matrices.is_vni(a),
        "sni": matrices.is_sni(a),
        "isocanted": None,
    }
    if payload["ni"]:
        try:
            dec = matrices.decompose(a)
        except ValueError:
            # NI but with a degenerate bounding box (flat polytope).
            payload["decomposition"] = None
        else:
            cant = dec.perturbation.constant_cant()
            payload["isocanted"] = scalar_to_json(cant) if cant is not None else None
            payload["decomposition"] = {
                "box": serialize.matrix_to_json(dec.box),
                "perturbation": [
                    [scalar_to_json(v) for v in row] for row in dec.perturbation.entries
                ],
            }
    if args.format == "table":
        return 0, _lines([f"{k}: {v}" for k, v in payload.items() if k != "decomposition"])
    return 0, _json(payload)


def cmd_build(args: argparse.Namespace) -> tuple[int, str]:
    spec = _spec_from_args(args)
    return 0, _json(serialize.matrix_to_json(matrices.PLACEMENTS[args.placement](spec)))


def cmd_vertices(args: argparse.Namespace) -> tuple[int, str]:
    # ``pairs`` holds (label or None, point) from either source.
    if args.input:
        if (args.dim, args.ell, args.a, args.placement) != (None, None, None, None):
            raise ValueError("vertices takes an input file or --dim/--ell/--a, not both")
        a = serialize.read_matrix(args.input)
        vset = geometry.enumerate_vertices_oracle(geometry.hrep_from_matrix(a))
        labels = _infer_labels(a, vset)
        pairs = [(labels[p] if labels else None, p) for p in vset.points]
        payload: dict = {"d": vset.d, "source": "oracle"}
    else:
        if args.dim is None or args.ell is None or args.a is None:
            raise ValueError("vertices needs either an input file or --dim/--ell/--a")
        spec = _spec_from_args(args)
        placement = args.placement or "vni"
        pairs = geometry.closed_form_vertices(spec, placement).items()
        ell, cant = scalar_to_json(spec.edge_length), scalar_to_json(spec.cant)
        payload = {"d": spec.d, "ell": ell, "a": cant, "placement": placement}
    if args.format == "table":
        return 0, _lines([
            f"{'-' if label is None else label_text(label)}\t"
            + " ".join(str(scalar_to_json(c)) for c in point)
            for label, point in pairs
        ])
    payload["vertices"] = [
        {"label": None if label is None else sorted(label), "point": [scalar_to_json(c) for c in point]}
        for label, point in pairs
    ]
    return 0, _json(payload)


def cmd_fvector(args: argparse.Namespace) -> tuple[int, str]:
    counts = combinatorics.isocanted_fvector(args.dim, extended=args.extended)
    if args.format == "table":
        return 0, " ".join(str(c) for c in counts) + "\n"
    return 0, _json({"d": args.dim, "f": list(counts)})


def cmd_lattice(args: argparse.Namespace) -> tuple[int, str]:
    lattice = combinatorics.build_face_lattice(args.dim)
    dims = sorted(lattice)
    if args.format == "table":
        return 0, _lines([
            f"{k}\t{label_text(face.bottom)}\t{label_text(face.top)}"
            for k in dims
            for face in lattice[k]
        ])
    return 0, _json({
        "d": args.dim,
        "counts": [len(lattice[k]) for k in dims],
        "faces": {
            str(k): [{"bottom": sorted(face.bottom), "top": sorted(face.top)} for face in lattice[k]]
            for k in dims
        },
    })


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    names = None if args.checks == "all" else [s.strip() for s in args.checks.split(",")]
    lo, hi = args.range
    reports = conjectures.run_all(names, lo, hi)
    failed = [r for r in reports if not r.passed]
    code = 1 if failed else 0
    if args.format == "table":
        rows = [f"{r.name}\t[{r.d_min},{r.d_max}]\t{'PASS' if r.passed else 'FAIL'}" for r in reports]
        rows += [f"counterexample {r.name}: {json.dumps(r.counterexample)}" for r in failed]
        return code, _lines(rows)
    return code, _lines([json.dumps(r.to_json()) for r in reports])


def cmd_export(args: argparse.Namespace) -> tuple[int, str]:
    spec = _spec_from_args(args)
    mesh = serialize.build_mesh(spec, args.placement, args.precision)
    return 0, serialize.MESH_FORMATS[args.format](mesh)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocant",
        description="Exact tools for isocanted alcoved polytopes over the max-plus semiring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    @contextlib.contextmanager
    def command(
        name: str, func: Callable, help: str, formats: tuple[str, ...] = ("json", "table")
    ) -> Iterator[argparse.ArgumentParser]:
        """Yield a subparser for its own arguments, then add ``--format`` and ``--output``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        yield p
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    def add_spec(p: argparse.ArgumentParser, required: bool = True, dim_type: Callable = _arg(_int)) -> None:
        p.add_argument("--dim", type=dim_type, required=required, help="ambient dimension d")
        p.add_argument("--ell", type=_arg(serialize.parse_fraction), required=required, help="box edge length")
        p.add_argument("--a", type=_arg(serialize.parse_fraction), required=required, help="cant parameter")
        # Unset in vertices, so that an input file can refuse it; the closed form falls back to vni.
        p.add_argument("--placement", choices=list(matrices.PLACEMENTS), default="vni" if required else None)

    with command("classify", cmd_classify, "matrix class flags and decomposition") as p:
        p.add_argument("input", help="matrix JSON file")

    with command("build", cmd_build, "write an isocanted matrix file", formats=()) as p:
        add_spec(p, dim_type=_dim_up_to(BUILD_DIM_LIMIT, "build"))

    with command("vertices", cmd_vertices, "labeled vertex listing") as p:
        p.add_argument("input", nargs="?", default=None, help="matrix JSON file (oracle mode)")
        add_spec(p, required=False, dim_type=_dim_up_to(VERTICES_DIM_LIMIT, "vertices"))

    with command("fvector", cmd_fvector, "face counts by dimension") as p:
        p.add_argument("--dim", type=_dim_up_to(FVECTOR_DIM_LIMIT, "fvector"), required=True)
        p.add_argument("--extended", action="store_true", help="append the top face count 1")

    with command("lattice", cmd_lattice, "full face listing") as p:
        p.add_argument("--dim", type=_arg(_int), required=True)

    with command("verify", cmd_verify, "run the exact verification sweeps") as p:
        p.add_argument("checks", nargs="?", default="all", help="comma list or 'all'")
        p.add_argument("--range", type=_arg(_parse_range), default=(2, 60), help="LO:HI dimensions")

    with command("export", cmd_export, "write a d=3 mesh (OFF or OBJ)",
                 formats=tuple(serialize.MESH_FORMATS)) as p:
        add_spec(p)
    p.add_argument("--precision", type=_arg(lambda text: serialize.check_precision(_int(text))),
                   default=serialize.DEFAULT_PRECISION)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
