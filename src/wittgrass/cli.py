"""Command-line interface.

Subcommands: enumerate (even diagrams of a frame, with degrees), table (rank
table), verify (the suites of `wittgrass.verify` over a range of frames),
maps (one of the three matrices), classify (strip-and-blocks families),
canonical (symbolic canonical classes from jump tuples).  Output goes to
stdout as ascii, svg or json; diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error.  JSON output is byte-stable for a
fixed command line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .diagrams import FramedDiagram, JumpTuples, enumerate_even
from .grassmann_witt import classify, table_json, total_witt_basis
from .picard import (rel_canonical_fiber, rel_canonical_flag,
                     rel_canonical_grass, relative_dimension)
from .verify import SUITE_FIRST_FRAME, verify_suites
from .witt_modules import MAP_NAMES, map_matrix


def ascii_diagram(diagram: FramedDiagram) -> str:
    """One line per row: '#' for filled cells, '.' for empty frame cells."""
    return "\n".join("#" * r + "." * (diagram.e - r) for r in diagram.rows)


def _print_json(obj) -> None:
    # print(json.dumps(obj, indent=2)), streamed in batches of encoder chunks
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _print_map_json(bm) -> None:
    # _print_json(bm.to_json()), with the matrix encoded one dense row at a
    # time; indent=2 puts each int of a row on a line of its own, and no
    # basis is empty, so neither the matrix nor a row is "[]"
    head = json.dumps(bm.frames_json(), indent=2)[:-len("\n}")]
    sys.stdout.write(head + ',\n  "matrix": [')
    for k, row in enumerate(bm.sparse().dense_rows()):
        cells = ",\n      ".join(map(str, row))
        sys.stdout.write(("," if k else "") + f"\n    [\n      {cells}\n    ]")
    sys.stdout.write("\n  ]\n}\n")


def _svg_sheet(groups, cell_size: int, annotate: bool) -> str:
    """Diagrams grouped into labeled rows, each diagram a framed cell grid."""
    from xml.etree import ElementTree as ET  # only svg output loads xml

    s = cell_size
    gap = s
    caption_h = s if annotate else 0
    margin = s
    width = margin * 2
    for _, diagrams in groups:
        row_w = margin * 2 + sum(dg.e * s + gap for dg in diagrams)
        width = max(width, row_w)
    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg")
    y = margin
    for label, diagrams in groups:
        if annotate:
            text = ET.SubElement(root, "text", x=str(margin), y=str(y + s // 2))
            text.set("font-family", "monospace")
            text.set("font-size", str(max(10, s // 2)))
            text.text = label
            y += caption_h
        x = margin
        row_h = 0
        for dg in diagrams:
            g = ET.SubElement(root, "g", transform=f"translate({x},{y})")
            for r, length in enumerate(dg.rows):
                for c in range(length):
                    ET.SubElement(g, "rect", x=str(c * s), y=str(r * s),
                                  width=str(s), height=str(s), fill="#5b8dbf",
                                  stroke="#1f3a57")
            ET.SubElement(g, "rect", x="0", y="0", width=str(dg.e * s),
                          height=str(dg.d * s), fill="none", stroke="#1f3a57")
            x += dg.e * s + gap
            row_h = max(row_h, dg.d * s)
        y += row_h + gap
    root.set("width", str(width))
    root.set("height", str(y))
    return ET.tostring(root, encoding="unicode")


def _cmd_enumerate(args) -> int:
    if args.cell_size < 1:
        raise ValueError("cell_size must be positive")
    if args.format == "svg" and args.cell_size < 4:
        raise ValueError("svg needs cell_size >= 4")
    basis = total_witt_basis(args.d, args.e)
    elements = [(basis.element(i), deg) for i, deg in enumerate(basis.degrees)]
    if args.format == "json":
        payload = {"frame": [args.d, args.e], "count": len(basis),
                   "diagrams": [{**dg.to_json(), "degree": deg.to_json()}
                                for dg, deg in elements]}
        _print_json(payload)
        return 0
    if args.format == "svg":
        groups: dict[tuple[int, int], list[FramedDiagram]] = {}
        for dg, deg in elements:
            groups.setdefault((deg.shift, deg.det_twist), []).append(dg)
        rows = [(f"shift={key[0]} twist={key[1]}", groups[key])
                for key in sorted(groups)]
        print(_svg_sheet(rows, args.cell_size, args.annotate))
        return 0
    blocks = []
    for dg, deg in elements:
        header = f"rows={dg.rows}"
        if args.annotate:
            base = ",".join(map(str, deg.base))
            header += f" shift={deg.shift} twist={deg.det_twist}"
            if base:
                header += f" base=[{base}]"
        blocks.append(header + "\n" + ascii_diagram(dg))
    print("\n\n".join(blocks))
    return 0


def _cmd_table(args) -> int:
    _print_json(table_json(args.d, args.e, args.trivial_base))
    return 0


def _cmd_maps(args) -> int:
    bm = map_matrix(args.which, args.d, args.e)
    if args.format == "json":
        _print_map_json(bm)
        return 0
    lines = [f"{bm.which}: F({bm.source.d},{bm.source.e}) -> "
             f"F({bm.target.d},{bm.target.e})",
             "arrows (absent source means mapped to zero):"]
    tgt_labels = bm.target.labels()
    for label, i in zip(bm.source.labels(), bm.images):
        if i is not None:
            lines.append(f"  {label} -> {tgt_labels[i]}")
    print("\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    if args.rows is not None:
        rows = tuple(int(v) for v in args.rows.split(",")) if args.rows else ()
        diagram = FramedDiagram(args.d, args.e, rows)
        entries = [(diagram, classify(diagram))]
    else:
        entries = [(dg, classify(dg)) for dg in enumerate_even(args.d, args.e)]
    if args.format == "json":
        payload = {"frame": [args.d, args.e],
                   "classes": [{"rows": list(dg.rows), "class": cls.value}
                               for dg, cls in entries]}
        _print_json(payload)
        return 0
    for dg, cls in entries:
        print(f"rows={dg.rows} class={cls.value}")
    return 0


def _cmd_canonical(args) -> int:
    dvec = tuple(int(v) for v in args.dvec.split(","))
    evec = tuple(int(v) for v in args.evec.split(","))
    tuples = JumpTuples(dvec, evec)
    n = args.ambient
    d = dvec[-1]
    e = n - d
    if e < 1:
        raise ValueError("ambient rank must exceed the last dvec entry")
    payload = {
        "dvec": list(dvec), "evec": list(evec), "ambient": n,
        "relative_dimension": relative_dimension(tuples),
        "grass": rel_canonical_grass(d, n).to_json(),
        "flag": rel_canonical_flag(tuples, n).to_json(),
        "flag_over_grass": rel_canonical_fiber(tuples, d, e).to_json(),
    }
    _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    suites = verify_suites(args.scope, args.max_frame)
    ok = all(s["ok"] for s in suites.values())
    _print_json({"scope": args.scope, "max_frame": args.max_frame,
                 "suites": suites, "ok": ok})
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittgrass",
        description="Even-diagram bases of total Witt groups of Grassmann bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_frame(p):
        p.add_argument("--d", type=int, required=True, help="number of rows")
        p.add_argument("--e", type=int, required=True, help="number of columns")

    p = sub.add_parser("enumerate", help="even diagrams of a frame, with degrees")
    add_frame(p)
    p.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    p.add_argument("--cell-size", type=int, default=24, dest="cell_size")
    p.add_argument("--annotate", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="rank table of a frame")
    add_frame(p)
    p.add_argument("--trivial-base", action="store_true", dest="trivial_base")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run verification suites over frames")
    p.add_argument("--scope", default="all", choices=(*SUITE_FIRST_FRAME, "all"))
    p.add_argument("--max-frame", type=int, default=5, dest="max_frame")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("maps", help="matrix of one map of the cyclic sequence")
    add_frame(p)
    p.add_argument("--which", choices=MAP_NAMES, required=True)
    p.add_argument("--format", choices=("ascii", "json"), default="json")
    p.set_defaults(func=_cmd_maps)

    p = sub.add_parser("classify", help="strip-and-blocks family of diagrams")
    add_frame(p)
    p.add_argument("--rows", help="comma-separated row lengths; omit for all")
    p.add_argument("--format", choices=("ascii", "json"), default="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("canonical", help="canonical classes from jump tuples")
    p.add_argument("--dvec", required=True, help="comma-separated drop rows")
    p.add_argument("--evec", required=True, help="comma-separated co-lengths")
    p.add_argument("--ambient", type=int, required=True, help="ambient rank")
    p.set_defaults(func=_cmd_canonical)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # "--d=--": argparse drops the "--" and keeps []
        parser.error("'--' is not a value")
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
