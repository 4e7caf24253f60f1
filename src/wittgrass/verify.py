"""Verification suites over a range of frames, run in one pass per frame.

Each frame's sequence and its exactness and transport reports are computed at
most once, on first use, and shared by every suite that checks the frame; a
map's images and a basis's degrees are built only when a suite reads them.
The graded bases come from one store per run, which keeps two rows of frames
at most, builds their keys from blocks they share and keeps one count table
per width; every suite reads it.  The duality suite checks both frames of
each mirror pair {(d, e), (e, d)} at the one with d <= e, from one transpose
of each key, the mirrors (e, d), e > d, of row d on blocks of width d for that
row alone; each suite's failures are sorted into (d, e) order.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from .diagrams import EvenTails
from .grassmann_witt import bord_vanishes, duality_pair, induction_report
from .picard import cond_even_rows
from .witt_modules import (GradedBasis, build_basis, cyclic_sequence,
                           verify_degree_transport, verify_exactness)

# Smallest d and e each verification suite checks, in report order.
SUITE_FIRST_FRAME = {"exactness": 1, "degrees": 2, "cond-even": 1, "bord": 2,
                     "duality": 1, "induction": 2}


class _Frame:
    def __init__(self, d: int, e: int, primes: tuple[int, ...],
                 basis: Callable[[int, int], GradedBasis]) -> None:
        self.d, self.e, self.primes = d, e, primes
        self.basis = basis  # the run's basis store

    @cached_property
    def seq(self):
        return cyclic_sequence(self.d, self.e, self.basis)

    @cached_property
    def exact(self):
        return verify_exactness(self.seq, primes=self.primes)

    @cached_property
    def transport(self):  # full base: it fails wherever the trivial base would
        return verify_degree_transport(self.seq, trivial_base=False)


def _failed(reports) -> list:
    return [r.to_json() for r in reports if not r.ok]


def _cond_even(f: _Frame) -> list:
    failures = []
    for rows in f.basis(f.d, f.e).checked:
        cancels, admissible, in_span = cond_even_rows(f.d, f.e, rows)
        if not cancels:
            failures.append({"frame": [f.d, f.e], "rows": list(rows)})
        if not (admissible and in_span):
            failures.append({"frame": [f.d, f.e], "rows": list(rows),
                             "reason": "admissibility"})
    return failures


def _bord(f: _Frame) -> list:
    try:
        bord_vanishes(f.seq)
    except RuntimeError as exc:
        return [{"frame": [f.d, f.e], "reason": str(exc)}]
    return []


def _duality(f: _Frame) -> list:
    """Both frames of a mirror pair, checked at the one with d <= e."""
    return _failed(duality_pair(f.d, f.e, f.basis)) if f.d <= f.e else []


def _induction(f: _Frame) -> list:
    cert = induction_report(f.seq, f.exact, f.transport)
    return [] if cert["ok"] else [cert]


# Each suite maps one frame to its failures.
_SUITES = {"exactness": lambda f: _failed([f.exact]),
           "degrees": lambda f: _failed([f.transport]),
           "cond-even": _cond_even, "bord": _bord,
           "duality": _duality,
           "induction": _induction}


def _store_reader(bases: dict, tails: EvenTails, mirrors: EvenTails | None,
                  d: int) -> Callable[[int, int], GradedBasis]:
    """Basis lookup for the frames of row d: reads ``bases``, builds what it
    lacks on the run's ``tails`` and keeps the bases of rows d - 1 and d, the
    rows the row's sequences read; any other frame, a duality mirror (r, d), r > d,
    is built on ``mirrors`` (None when no suite reads one) for the one pair of
    checks that reads it."""
    def basis(r: int, c: int) -> GradedBasis:
        found = bases.get((r, c))
        if found is None:
            if not d - 1 <= r <= d:  # in order of r: on (r - 1, c)'s full rows, which go
                found = build_basis(r, c, mirrors)
                mirrors.full.pop((r - 1, c), None)
                return found
            found = bases[r, c] = build_basis(r, c, tails)
        return found
    return basis


def verify_suites(scope: str, max_frame: int) -> dict:
    """Report of each suite ``scope`` selects (one name, or "all").

    A suite checks each frame with first <= d, e <= max_frame and reports the
    frame count, its failures in (d, e) order and "ok".  Raises ValueError
    on an unknown scope, a ``max_frame`` that is not an int, or when a
    selected suite would check no frame.
    """
    if scope != "all" and scope not in SUITE_FIRST_FRAME:
        raise ValueError(f"unknown scope {scope!r}; expected one of "
                         f"{(*SUITE_FIRST_FRAME, 'all')}")
    if type(max_frame) is not int:
        raise ValueError(f"max_frame must be an int, not {max_frame!r}")
    names = tuple(SUITE_FIRST_FRAME) if scope == "all" else (scope,)
    for name in names:
        lo = SUITE_FIRST_FRAME[name]
        if max_frame < lo:
            raise ValueError(f"--max-frame {max_frame} leaves suite {name!r} no "
                             f"frames to check; it needs --max-frame {lo} or more")
    primes = (2, 3, 5) if "exactness" in names else (2,)
    failures: dict[str, list] = {name: [] for name in names}
    first = min(SUITE_FIRST_FRAME[name] for name in names)
    bases: dict = {}  # (d, e) -> GradedBasis, of the two rows being swept
    tails = EvenTails(max_frame, max_frame)  # their keys' blocks, a count table per width
    for d in range(first, max_frame + 1):
        # the row's duality mirrors (r, d), r > d: blocks of width d, for this row only
        mirrors = EvenTails(max_frame, d) if "duality" in names else None
        basis = _store_reader(bases, tails, mirrors, d)
        for e in range(first, max_frame + 1):
            frame = _Frame(d, e, primes, basis)
            for name in names:
                if min(d, e) >= SUITE_FIRST_FRAME[name]:
                    failures[name] += _SUITES[name](frame)
            # no later sequence reads row d - 1 up to column e: the one at (d, c)
            # is the last to read (d - 1, c), and only the one at (d - 1, first)
            # reads (d - 1, first - 1); on the last row, none reads (d, e - 1)
            for dead in [(d - 1, e - 1), (d - 1, e)] + [(d, e - 1)] * (d == max_frame):
                bases.pop(dead, None)
                tails.full.pop(dead, None)  # a full-row block goes with its basis
    return {name: {"frames": (max_frame - SUITE_FIRST_FRAME[name] + 1) ** 2,
                   "failures": sorted(failures[name], key=lambda f: f["frame"]),
                   "ok": not failures[name]}
            for name in names}
