"""Framed Young diagram combinatorics.

A framed diagram is a weakly decreasing tuple of row lengths confined to a
rectangle with d rows and e columns.  Trailing zero rows are explicit: the
frame is part of the data, and the same row vector can satisfy the evenness
conditions in one frame while failing them in a larger one.

This module owns the combinatorics of one frame: construction and validation,
the jump-tuple encoding (``row_jumps``, on row tuples) and its inverse, the
numeric invariants, transposition (``transpose_rows``, on row tuples), and
evenness, stated once on the rows: all rows share one parity, and every value
strictly between 0 and e occurs an even number of times.  ``is_even`` checks
that rule, ``even_rows`` builds a frame's even row tuples from it, with no
``FramedDiagram`` each, and ``even_counts`` counts their completions, by which
``even_rank`` ranks a row tuple.  The maps between frames are in ``witt_modules``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple


class JumpTuples(namedtuple("JumpTuples", "dvec evec")):
    """Strictly increasing row-index and co-length vectors of equal length.

    ``dvec`` lists the row indices (1-based) where the row value strictly
    drops, the last entry being the number of rows; ``evec`` lists the
    corresponding co-lengths (frame width minus row value).  Entries of
    ``evec`` may start at 0; frame membership is checked when a frame is
    supplied, not here.
    """

    __slots__ = ()

    def __new__(cls, dvec, evec) -> JumpTuples:
        dvec, evec = tuple(dvec), tuple(evec)
        if len(dvec) != len(evec) or not dvec:
            raise ValueError("dvec and evec must be nonempty and of equal length")
        if any(type(v) is not int for v in dvec + evec):
            raise ValueError("jump tuples must be integers")
        if dvec[0] < 1 or evec[0] < 0:
            raise ValueError("need dvec[0] >= 1 and evec[0] >= 0")
        if any(b <= a for a, b in zip(dvec, dvec[1:])):
            raise ValueError("dvec must be strictly increasing")
        if any(b <= a for a, b in zip(evec, evec[1:])):
            raise ValueError("evec must be strictly increasing")
        return tuple.__new__(cls, (dvec, evec))

    @property
    def k(self) -> int:
        return len(self.dvec)


class FramedDiagram(namedtuple("FramedDiagram", "d e rows")):
    """Weakly decreasing row lengths in a d-by-e frame, zeros explicit."""

    __slots__ = ()

    def __new__(cls, d: int, e: int, rows) -> FramedDiagram:
        rows = tuple(rows)
        if type(d) is not int or type(e) is not int or d < 1 or e < 1:
            raise ValueError("frame dimensions must be integers, at least 1")
        if len(rows) != d:
            raise ValueError(f"expected {d} rows, got {len(rows)}")
        prev = e  # one pass: an int, and 0 <= row <= the row above it
        for r in rows:
            if type(r) is not int:
                raise ValueError("row lengths must be integers")
            if not 0 <= r <= prev:
                raise ValueError(f"row lengths must lie in [0, {e}]" if not 0 <= r <= e
                                 else "rows must be weakly decreasing")
            prev = r
        return tuple.__new__(cls, (d, e, rows))

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

    def jump_tuples(self) -> JumpTuples:
        """Encode as validated jump tuples."""
        return JumpTuples(*row_jumps(self.rows, self.e))

    def is_even(self) -> bool:
        """Whether every boundary stretch strictly inside the frame has even length.

        Read off the rows: the horizontal stretch between rows i and i+1 has
        length rows[i] - rows[i+1], and lies inside the frame for every i, so
        all rows share one parity.  The vertical stretch at column v has
        length the number of rows equal to v, and lies inside the frame when
        0 < v < e, so each such value occurs an even number of times.  The
        rows are weakly decreasing, so those values pair up in order.
        """
        inner = [r for r in self.rows if 0 < r < self.e]
        return len({r % 2 for r in self.rows}) == 1 and inner[::2] == inner[1::2]

    def to_json(self) -> dict:
        return {"frame": [self.d, self.e], "rows": list(self.rows)}


def from_jump_tuples(tuples: JumpTuples, d: int, e: int) -> FramedDiagram:
    """Rebuild the diagram of a frame from its jump tuples."""
    if tuples.dvec[-1] != d:
        raise ValueError(f"dvec must end at the row count {d}")
    if tuples.evec[-1] > e:
        raise ValueError(f"evec entries must not exceed the column count {e}")
    starts = (0,) + tuples.dvec  # block i holds rows starts[i]+1 .. dvec[i]
    return FramedDiagram(d, e, [e - co for start, end, co
                                in zip(starts, tuples.dvec, tuples.evec)
                                for _ in range(end - start)])


def row_jumps(rows: tuple[int, ...], e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Drop positions of ``rows``, of width ``e``, and their co-lengths: (dvec, evec)."""
    dvec, evec, prev = [], [], rows[0]
    for pos, r in enumerate(rows):
        if r < prev:  # row pos (1-based) is the last of its block
            dvec.append(pos)
            evec.append(e - prev)
        prev = r
    dvec.append(len(rows))
    evec.append(e - prev)
    return tuple(dvec), tuple(evec)


def even_rows(d: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Row tuples of the even diagrams of the d-by-e frame, largest first.

    Built from the rule of ``FramedDiagram.is_even``: for each parity p, rows
    equal to e (only when e has parity p) over equal pairs of values of
    parity p strictly between 0 and e over rows equal to 0 (only when p is
    0).  So the cost tracks the even diagrams, not all C(d+e, d) row vectors.
    """
    if type(d) is not int or type(e) is not int or d < 1 or e < 1:
        raise ValueError("frame dimensions must be integers, at least 1")
    rows = []
    for p in (0, 1):
        values = [v for v in range(e - 1, 0, -1) if v % 2 == p]
        for pairs in range(d // 2 + 1):
            rest = d - 2 * pairs  # rows equal to e or to 0
            # all of them at the top when p is 1, none when e has not parity p
            tops = range(rest if p else 0, (rest if e % 2 == p else 0) + 1)
            for chosen in itertools.combinations_with_replacement(values, pairs):
                middle = tuple(sorted(chosen * 2, reverse=True))  # each value twice
                rows += [(e,) * top + middle + (0,) * (rest - top) for top in tops]
    rows.sort(reverse=True)
    return tuple(rows)


def even_counts(d: int, e: int) -> list[list[list[int]]]:
    """table[p][k][b]: how many k-row tails, of parity p and rows at most b, end an
    even diagram of width e; by the rule of ``is_even`` each starts with e or 0, or
    with a pair of one value between.  The d-by-e frame has [0][d][e] + [1][d][e]."""
    table, ends = [[[1] * (e + 1)], [[1] * (e + 1)]], (0, e)
    for p, counts in enumerate(table):
        for k in range(1, d + 1):
            counts.append(list(itertools.accumulate(
                0 if v % 2 != p else counts[k - 1][v] if v in ends
                else counts[k - 2][v] if k > 1 else 0 for v in range(e + 1))))
    return table


def even_rank(rows, d: int, e: int, counts: list[list[list[int]]]) -> int | None:
    """Position of ``rows`` in ``even_rows(d, e)``, or None when it is not there.
    One pass: ``counts = even_counts(d, e)`` gives, at each row, how many come first."""
    if type(rows) is not tuple or len(rows) != d or type(rows[0]) is not int:
        return None
    parity, it = rows[0] % 2, iter(rows)
    table, position, bound, k = counts[parity], 0, e, d  # k: the rows left
    for r in it:
        if r != bound:  # a smaller row here: the rows with a larger one come first
            if type(r) is not int or not 0 <= r < bound or r % 2 != parity:
                return None
            position += table[k][bound] - table[k][r]
            bound = r
        elif type(r) is not int:
            return None
        k -= 1
        if 0 < r < e:  # an interior row opens a pair, which the next row closes
            closer = next(it, None)
            if type(closer) is not int or closer != r:
                return None
            k -= 1
    other = counts[1 - parity][d]  # the other parity, first row larger
    return position + other[e] - other[rows[0]]


def enumerate_even(d: int, e: int) -> tuple[FramedDiagram, ...]:
    """A ``FramedDiagram`` of each row tuple of ``even_rows(d, e)``, in order."""
    return tuple(FramedDiagram(d, e, rows) for rows in even_rows(d, e))


def transpose_rows(rows: tuple[int, ...], e: int) -> tuple[int, ...]:
    """Column heights of the row vector ``rows`` of width ``e``: its transpose."""
    heights, covered = (), 0
    for height, r in zip(range(len(rows), 0, -1), reversed(rows)):
        if r > covered:  # the columns row ``height`` covers beyond the rows below it
            heights += (height,) * (r - covered)
            covered = r
    return heights + (0,) * (e - covered)

