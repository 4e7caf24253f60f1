"""Command-line interface.

Subcommands: enumerate (even diagrams of a frame, with degrees), table (rank
table), verify (the suites of `wittgrass.verify` over a range of frames),
maps (one of the three matrices), classify (strip-and-blocks families),
canonical (symbolic canonical classes from jump tuples).  Output goes to
stdout as ascii, svg or json; diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error.  JSON output is byte-stable for a
fixed command line.  The commands other than verify live in ``commands``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .diagrams import FramedDiagram
from .verify import SUITE_FIRST_FRAME, verify_suites
from .witt_modules import MAP_NAMES


def ascii_diagram(diagram: FramedDiagram) -> str:
    """One line per row: '#' for filled cells, '.' for empty frame cells."""
    return "\n".join("#" * r + "." * (diagram.e - r) for r in diagram.rows)


def _print_json(obj) -> None:
    # print(json.dumps(obj, indent=2)), streamed in batches of encoder chunks
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


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

    p = sub.add_parser("table", help="rank table of a frame")
    add_frame(p)
    p.add_argument("--trivial-base", action="store_true", dest="trivial_base")

    p = sub.add_parser("verify", help="run verification suites over frames")
    p.add_argument("--scope", default="all", choices=(*SUITE_FIRST_FRAME, "all"))
    p.add_argument("--max-frame", type=int, default=5, dest="max_frame")

    p = sub.add_parser("maps", help="matrix of one map of the cyclic sequence")
    add_frame(p)
    p.add_argument("--which", choices=MAP_NAMES, required=True)
    p.add_argument("--format", choices=("ascii", "json"), default="json")

    p = sub.add_parser("classify", help="strip-and-blocks family of diagrams")
    add_frame(p)
    p.add_argument("--rows", help="comma-separated row lengths; omit for all")
    p.add_argument("--format", choices=("ascii", "json"), default="json")

    p = sub.add_parser("canonical", help="canonical classes from jump tuples")
    p.add_argument("--dvec", required=True, help="comma-separated drop rows")
    p.add_argument("--evec", required=True, help="comma-separated co-lengths")
    p.add_argument("--ambient", type=int, required=True, help="ambient rank")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # "--d=--": argparse drops the "--" and keeps []
        parser.error("'--' is not a value")
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        from .commands import COMMANDS
        return COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
