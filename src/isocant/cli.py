"""Command-line interface.

Subcommands: ``classify``, ``build``, ``vertices``, ``fvector``, ``lattice``,
``verify``, ``export``.  JSON is the default output; ``--format table`` gives
plain text.  Exit codes: 0 success, 1 verification failure (witness printed),
2 usage or parse errors.  Outputs carry no timestamps, so identical inputs
yield identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import combinatorics, conjectures, geometry, matrices, serialize
from .combinatorics import label_text
from .matrices import IsocantedSpec
from .serialize import MatrixParseError, scalar_to_json


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload: object, output: str | None) -> None:
    _write_output(json.dumps(payload, indent=2) + "\n", output)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("range must look like LO:HI")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("range bounds must be integers") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError("range must satisfy LO <= HI")
    return lo, hi


def _parse_precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("precision must be at least 1 significant digit")
    return value


def _spec_from_args(args: argparse.Namespace) -> IsocantedSpec:
    return IsocantedSpec(args.dim, args.ell, args.a)


def _infer_labels(a, vset) -> dict | None:
    """Point-to-label map when the matrix is a canonical isocanted placement.

    Best-effort decoration: anything non-canonical (not NI, degenerate box,
    mixed lengths, translated placement) simply yields no labels.
    """
    try:
        if not matrices.is_ni(a) or a.n < 3:
            return None
        dec = matrices.decompose(a)
        cant = dec.perturbation.constant_cant()
        lengths = set(dec.edge_lengths)
        if cant is None or len(lengths) != 1:
            return None
        spec = IsocantedSpec(a.n - 1, lengths.pop(), cant)
        for placement, builder in matrices.PLACEMENTS.items():
            if builder(spec) == a:
                labeled = geometry.label_vertices(spec, vset, placement)
                return {point: label for label, point in labeled.labels}
    except ValueError:
        return None
    return None


def cmd_classify(args: argparse.Namespace) -> int:
    a = serialize.read_matrix(args.input)
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
        rows = [f"{key}: {payload[key]}" for key in ("size", "normal", "ni", "vni", "sni", "isocanted")]
        _write_output("\n".join(rows) + "\n", args.output)
    else:
        _emit_json(payload, args.output)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    _emit_json(serialize.matrix_to_json(matrices.PLACEMENTS[args.placement](spec)), args.output)
    return 0


def cmd_vertices(args: argparse.Namespace) -> int:
    if args.input:
        a = serialize.read_matrix(args.input)
        vset = geometry.enumerate_vertices_oracle(geometry.hrep_from_matrix(a))
        labels = _infer_labels(a, vset)
        listing = [
            {
                "label": sorted(labels[p]) if labels else None,
                "point": [scalar_to_json(c) for c in p],
            }
            for p in vset.points
        ]
        payload = {"d": vset.d, "source": "oracle", "vertices": listing}
    else:
        if args.dim is None or args.ell is None or args.a is None:
            raise ValueError("vertices needs either an input file or --dim/--ell/--a")
        spec = _spec_from_args(args)
        listing = [
            {
                "label": sorted(lab),
                "point": [scalar_to_json(c) for c in point],
            }
            for lab, point in geometry.closed_form_vertices(spec, args.placement).items()
        ]
        payload = {
            "d": spec.d,
            "ell": scalar_to_json(spec.edge_length),
            "a": scalar_to_json(spec.cant),
            "placement": args.placement,
            "vertices": listing,
        }
    if args.format == "table":
        rows = []
        for item in payload["vertices"]:
            label = "-" if item["label"] is None else "".join(str(v) for v in item["label"])
            coords = " ".join(str(c) for c in item["point"])
            rows.append(f"{label}\t{coords}")
        _write_output("\n".join(rows) + "\n", args.output)
    else:
        _emit_json(payload, args.output)
    return 0


def cmd_fvector(args: argparse.Namespace) -> int:
    counts = combinatorics.isocanted_fvector(args.dim, extended=args.extended)
    if args.format == "table":
        _write_output(" ".join(str(c) for c in counts) + "\n", args.output)
    else:
        _emit_json({"d": args.dim, "f": list(counts)}, args.output)
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    lattice = combinatorics.build_face_lattice(args.dim)
    if args.format == "table":
        rows = []
        for dim in sorted(lattice):
            for face in lattice[dim]:
                rows.append(f"{dim}\t{label_text(face.bottom)}\t{label_text(face.top)}")
        _write_output("\n".join(rows) + "\n", args.output)
    else:
        payload = {
            "d": args.dim,
            "counts": [len(lattice[k]) for k in sorted(lattice)],
            "faces": {
                str(k): [
                    {"bottom": sorted(face.bottom), "top": sorted(face.top)}
                    for face in lattice[k]
                ]
                for k in sorted(lattice)
            },
        }
        _emit_json(payload, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = None if args.checks == "all" else [s.strip() for s in args.checks.split(",")]
    lo, hi = args.range
    reports = conjectures.run_all(names, lo, hi)
    if args.format == "table":
        rows = [
            f"{r.name}\t[{r.d_min},{r.d_max}]\t{'PASS' if r.passed else 'FAIL'}"
            for r in reports
        ]
        text = "\n".join(rows) + "\n"
        for r in reports:
            if not r.passed:
                text += f"counterexample {r.name}: {json.dumps(r.counterexample)}\n"
        _write_output(text, args.output)
    else:
        stream = "\n".join(json.dumps(r.to_json()) for r in reports) + "\n"
        _write_output(stream, args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_export(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    mesh = serialize.build_mesh(spec, args.placement, args.precision)
    text = serialize.mesh_to_off(mesh) if args.format == "off" else serialize.mesh_to_obj(mesh)
    _write_output(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocant",
        description="Exact tools for isocanted alcoved polytopes over the max-plus semiring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    def add_spec(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--dim", type=int, required=required, help="ambient dimension d")
        p.add_argument("--ell", type=_parse_fraction, required=required, help="box edge length")
        p.add_argument("--a", type=_parse_fraction, required=required, help="cant parameter")
        p.add_argument("--placement", choices=list(matrices.PLACEMENTS), default="vni")

    p = sub.add_parser("classify", help="matrix class flags and decomposition")
    p.add_argument("input", help="matrix JSON file")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build", help="write an isocanted matrix file")
    add_spec(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("vertices", help="labeled vertex listing")
    p.add_argument("input", nargs="?", default=None, help="matrix JSON file (oracle mode)")
    add_spec(p, required=False)
    add_format(p)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("fvector", help="face counts by dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--extended", action="store_true", help="append the top face count 1")
    add_format(p)
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("lattice", help="full face listing")
    p.add_argument("--dim", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", help="run the exact verification sweeps")
    p.add_argument("checks", nargs="?", default="all", help="comma list or 'all'")
    p.add_argument("--range", type=_parse_range, default=(2, 60), help="LO:HI dimensions")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write a d=3 mesh (OFF or OBJ)")
    add_spec(p)
    p.add_argument("--format", choices=["off", "obj"], default="off")
    p.add_argument("--output", default=None)
    p.add_argument("--precision", type=_parse_precision, default=serialize.DEFAULT_PRECISION)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
