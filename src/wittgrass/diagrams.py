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
that rule, and ``even_pattern`` on bytes, one byte per row; ``even_rows`` builds a
frame's even keys from it, such bytes, bottom-up by row count from blocks frames
share (``EvenTails``) and with no ``FramedDiagram`` each; ``even_counts`` counts
their completions, by which ``even_rank`` ranks a row tuple or byte key.  The
maps between frames are in ``witt_modules``.
"""

from __future__ import annotations

import functools
import itertools
import re
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


class EvenTails:
    """The blocks of ``even_rows`` that frames of at most ``cols`` columns share:
    ``levels[k][v + 1]`` holds the k-row tails of first row v (for v > 0 a pair
    block, for v = 0 the zeros), as bytes, and ``levels[k][0]`` the one tail of no rows;
    ``full[d, e]`` holds a frame's full-row block.  A caller that shares one drops a
    full-row block with its frame."""

    def __init__(self, cols: int) -> None:
        self.cols, self.levels, self.full = cols, {}, {}

    def frame(self, d: int, e: int) -> tuple[tuple[int, ...], ...]:
        k = d - 1 if (d - 1, e) in self.full else 0
        block = self.full.get((k, e), ())  # that of (d - 1, e), else built from 0 rows
        for j in range(k + 1, d + 1):  # e, then a key of (j - 1, e) of e's parity
            tails = self._level(j - 1)[e - 1::-2]
            block = tuple(map(bytes((e,)).__add__, itertools.chain(block, *tails)))
        self.full[d, e] = block
        return (*block, *itertools.chain(*self._level(d)[e::-1]))

    def _level(self, k: int) -> list:
        """The k-row tails by first row: those of pairs of v's parity, each at most
        v, then zeros if v is even, are at v + 1, v - 1, ... down to 1 or 0.  Built
        up from the level two rows below (or none), each level drops it."""
        if k < 2:  # no pair fits
            return [() if k else (b"",), (bytes(k),)] + [()] * (self.cols - 1)
        low = k if k in self.levels else k - 2 if k - 2 in self.levels else k % 2
        for j in range(low + 2, k + 1, 2):
            below = self._level(j - 2)
            self.levels[j] = [(), (bytes(j),)] + [
                tuple(map(bytes((v, v)).__add__, itertools.chain(*below[v + 1::-2])))
                for v in range(1, self.cols)]
            self.levels.pop(j - 2, None)
        return self.levels[k]


def even_rows(d: int, e: int, tails: EvenTails | None = None) -> tuple[bytes, ...]:
    """The even diagrams of the d-by-e frame as bytes, one byte per row, largest
    first, by the rule of ``FramedDiagram.is_even``: the full-row block, ``e`` then
    each key of (d - 1, e) of e's parity; for v = e - 1 down to 1, the pair block of
    (d, v), ``v, v`` then each (d - 2)-row tail of pairs of v's parity, each at most
    v, then zero rows when v is even; then d zeros.  Each block is built bottom-up
    by row count, with no walk of the diagrams; a pair block does not depend on e,
    so frames built on one ``tails`` (by default new ones, at least e wide) share it."""
    if type(d) is not int or type(e) is not int or d < 1 or e < 1:
        raise ValueError("frame dimensions must be integers, at least 1")
    if e > 255:
        raise ValueError(f"a key has a byte per row: at most 255 columns, not {e}")
    if tails is not None and e > tails.cols:
        raise ValueError(f"tails of width {tails.cols} are too narrow for width {e}")
    return (EvenTails(e) if tails is None else tails).frame(d, e)


@functools.cache  # one compiled pattern per width
def even_pattern(e: int) -> re.Pattern:
    """The rule of ``FramedDiagram.is_even`` on the byte keys of width e, which each
    even key matches in full: rows of one parity p, the full ones if e has parity p,
    then pairs of each value of parity p from e - 1 down to 1, then zeros if p is 0."""
    def rows(p: int) -> bytes:
        pairs = b"".join(b"(?:\\x%02x\\x%02x)*" % (v, v)
                         for v in range(e - 1, 0, -1) if v % 2 == p)
        return (b"\\x%02x*" % e if e % 2 == p else b"") + pairs + (b"" if p else b"\\x00*")
    return re.compile(rows(0) + b"|" + rows(1))


def even_counts(d: int, e: int) -> list[list[list[int]]]:
    """table[p][k][b]: how many k-row tails, of parity p and rows at most b, end an
    even diagram of width e; by the rule of ``is_even`` each starts with e or 0, or
    with a pair of one value between.  The d-by-e frame has [0][d][e] + [1][d][e]."""
    table = [[[1] * (e + 1)], [[1] * (e + 1)]]
    for p, counts in enumerate(table):
        for k in range(1, d + 1):  # the k-row tails by first row: a pair of it
            starts = [0] * (e + 1)  # over k - 2 rows, or 0 or e over k - 1 rows
            if k > 1:
                starts[p::2] = counts[k - 2][p::2]
            for v in (0, e):
                if v % 2 == p:
                    starts[v] = counts[k - 1][v]
            counts.append(list(itertools.accumulate(starts)))
    return table


def even_rank(rows, d: int, e: int, counts: list[list[list[int]]]) -> int | None:
    """Position of ``rows`` (a tuple or bytes) in ``even_rows(d, e)``, or None when it is
    not there.  One pass: ``counts = even_counts(d, e)`` gives, at each row, how many first."""
    if type(rows) not in (tuple, bytes) or len(rows) != d or type(rows[0]) is not int:
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
    heights, covered, height = (), 0, len(rows)
    for r in reversed(rows):
        if r > covered:  # the columns row ``height`` covers beyond the rows below it
            heights += (height,) * (r - covered)
            covered = r
        height -= 1
    return heights + (0,) * (e - covered)
