"""Framed Young diagram combinatorics.

A framed diagram is a weakly decreasing tuple of row lengths confined to a
rectangle with d rows and e columns.  Trailing zero rows are explicit: the
frame is part of the data, and the same row vector can satisfy the evenness
conditions in one frame while failing them in a larger one.

This module owns the combinatorics of one frame: construction and validation,
the jump-tuple encoding and its inverse, the evenness predicate, the numeric
invariants (area, nonzero-row count, co-rank, half-perimeter parity) and
enumeration of all even diagrams of a frame.  Transposition into the flipped
frame is stated once, as a rule on row tuples (``transpose_rows``), which the
duality check applies to a basis element's rows.  The three maps between
neighbouring frames are stated in ``witt_modules``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass


@dataclass(frozen=True)
class JumpTuples:
    """Strictly increasing row-index and co-length vectors of equal length.

    ``dvec`` lists the row indices (1-based) where the row value strictly
    drops, the last entry being the number of rows; ``evec`` lists the
    corresponding co-lengths (frame width minus row value).  Entries of
    ``evec`` may start at 0; frame membership is checked when a frame is
    supplied, not here.
    """

    dvec: tuple[int, ...]
    evec: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dvec", tuple(self.dvec))
        object.__setattr__(self, "evec", tuple(self.evec))
        if len(self.dvec) != len(self.evec) or not self.dvec:
            raise ValueError("dvec and evec must be nonempty and of equal length")
        if any(type(v) is not int for v in self.dvec + self.evec):
            raise ValueError("jump tuples must be integers")
        if self.dvec[0] < 1 or self.evec[0] < 0:
            raise ValueError("need dvec[0] >= 1 and evec[0] >= 0")
        if any(b <= a for a, b in zip(self.dvec, self.dvec[1:])):
            raise ValueError("dvec must be strictly increasing")
        if any(b <= a for a, b in zip(self.evec, self.evec[1:])):
            raise ValueError("evec must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.dvec)


@dataclass(frozen=True, slots=True)
class FramedDiagram:
    """Weakly decreasing row lengths in a d-by-e frame, zeros explicit."""

    d: int
    e: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if type(self.d) is not int or type(self.e) is not int or self.d < 1 or self.e < 1:
            raise ValueError("frame dimensions must be integers, at least 1")
        if len(self.rows) != self.d:
            raise ValueError(f"expected {self.d} rows, got {len(self.rows)}")
        prev = e = self.e  # one pass: an int, and 0 <= row <= the row above it
        for r in self.rows:
            if type(r) is not int:
                raise ValueError("row lengths must be integers")
            if not 0 <= r <= prev:
                raise ValueError(f"row lengths must lie in [0, {e}]" if not 0 <= r <= e
                                 else "rows must be weakly decreasing")
            prev = r

    def area(self) -> int:
        """Number of cells."""
        return sum(self.rows)

    def rho(self) -> int:
        """Number of nonzero rows."""
        return self.d - self.zeta()

    def zeta(self) -> int:
        """Number of zero rows, d - rho."""
        return self.rows.count(0)

    def twist(self) -> int:
        """Half-perimeter parity (first row + nonzero rows) mod 2."""
        return (self.rows[0] + self.rho()) % 2

    def _jumps(self) -> tuple[list[int], list[int]]:
        # (dvec, evec) of jump_tuples as plain lists; the rows are already valid
        rows = self.rows
        dvec = [pos for pos in range(1, self.d) if rows[pos] < rows[pos - 1]]
        dvec.append(self.d)
        return dvec, [self.e - rows[pos - 1] for pos in dvec]

    def jump_tuples(self) -> JumpTuples:
        """Encode as jump tuples: drop positions and their co-lengths."""
        return JumpTuples(*self._jumps())

    def is_even(self) -> bool:
        """Whether every boundary segment strictly inside the frame has even length.

        Equivalent, via the jump encoding with the convention d_0 = 0:
        interior drop gaps d_{i+1}-d_i (i <= k-2) and all co-length gaps
        e_{i+1}-e_i are even; when 0 < e_1 < e the first block height d_1 is
        even; when 0 < e_k < e the last block height d_k-d_{k-1} is even.
        """
        dv, ev = self._jumps()
        if any((b - a) % 2 for a, b in zip(dv, dv[1:-1])):
            return False
        if any((b - a) % 2 for a, b in zip(ev, ev[1:])):
            return False
        return _even_ends(dv, ev, self.e)

    def to_json(self) -> dict:
        return {"frame": [self.d, self.e], "rows": list(self.rows)}


def from_jump_tuples(tuples: JumpTuples, d: int, e: int) -> FramedDiagram:
    """Rebuild the diagram of a frame from its jump tuples."""
    if tuples.dvec[-1] != d:
        raise ValueError(f"dvec must end at the row count {d}")
    if tuples.evec[-1] > e:
        raise ValueError(f"evec entries must not exceed the column count {e}")
    return FramedDiagram(d, e, _rows_from_jumps(tuples.dvec, tuples.evec, e))


def _rows_from_jumps(dvec, evec, e: int) -> list[int]:
    # row pos (1-based) lies in the block of the first jump d_i >= pos
    return [e - evec[bisect_left(dvec, pos)] for pos in range(1, dvec[-1] + 1)]


def _even_gap_chains(lo: int, hi: int, k: int):
    """Strictly increasing k-chains in [lo, hi] with even gaps: k values of one parity."""
    for first in (lo, lo + 1) if k else (lo,):  # the empty chain once
        yield from itertools.combinations(range(first, hi + 1, 2), k)


def _even_ends(dvec, evec, e: int) -> bool:
    # the block-height conditions of is_even at the first and the last jump
    last_gap = dvec[-1] - (dvec[-2] if len(dvec) >= 2 else 0)
    return not (0 < evec[0] < e and dvec[0] % 2 or 0 < evec[-1] < e and last_gap % 2)


def _even_jump_candidates(d: int, e: int):
    # dvec: first value and final gap free, interior gaps even, last entry d;
    # an evec has at most e + 1 entries in [0, e]
    for k in range(1, min(d, e + 1) + 1):
        dvecs = [prefix + (d,) for prefix in _even_gap_chains(1, d - 1, k - 1)]
        for evec in _even_gap_chains(0, e, k):
            for dvec in dvecs:
                if _even_ends(dvec, evec, e):
                    yield dvec, evec


def enumerate_even(d: int, e: int) -> tuple[FramedDiagram, ...]:
    """All even diagrams of the d-by-e frame, largest row vector first.

    Generated directly from jump tuples satisfying the evenness constraints,
    so the cost tracks the number of even diagrams rather than the number of
    all C(d+e, d) monotone row vectors.
    """
    if d < 1 or e < 1:
        raise ValueError("frame dimensions must be at least 1")
    rows = sorted((_rows_from_jumps(dvec, evec, e)
                   for dvec, evec in _even_jump_candidates(d, e)), reverse=True)
    return tuple(FramedDiagram(d, e, r) for r in rows)


def transpose_rows(rows: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Column heights of the row vector ``rows`` of width ``e``: its transpose."""
    heights, covered = (), 0
    for height, r in zip(range(len(rows), 0, -1), reversed(rows)):
        if r > covered:  # the columns row ``height`` covers beyond the rows below it
            heights += (height,) * (r - covered)
            covered = r
    return heights + (0,) * (e - covered)

