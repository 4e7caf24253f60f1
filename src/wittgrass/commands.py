"""The commands other than verify: enumerate, table, maps, classify, canonical.

``cli.main`` imports this module only when one of them runs, and only
``canonical`` loads the Picard-class calculus of ``lattice``.
"""

from __future__ import annotations

import json
import sys

from .cli import _print_json, ascii_diagram
from .diagrams import FramedDiagram, JumpTuples, enumerate_even
from .grassmann_witt import classify, table_json, total_witt_basis
from .witt_modules import map_matrix


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
    from .lattice import (rel_canonical_fiber, rel_canonical_flag,
                          rel_canonical_grass, relative_dimension)
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


COMMANDS = {"enumerate": _cmd_enumerate, "table": _cmd_table, "maps": _cmd_maps,
            "classify": _cmd_classify, "canonical": _cmd_canonical}
