"""Exact integer matrix routines on sparse matrices.

Everything here is fraction-free: unimodular row/column operations over the
integers, no floating point, no rationals.  Used by the exactness checker to
compute kernels, test membership in column spans, and take ranks over the
integers and over small prime fields.  One diagonalization serves both the
kernel of A (``kernel_rows``) and membership in its column span
(``span_solver``); ``integer_kernel`` and ``solve_in_span`` are those two
applied to a fresh diagonalization.  It keeps each pivot at its own place
and only the rows of U and columns of V that elimination changed, so a
partial permutation's U and V are empty.

Every routine takes and returns matrices in one form, a ``SparseMatrix``:
one dict {column: nonzero int} per row, and its shape.

The isolated entries of a matrix, each alone in its row and its column, are
found once, by one count per column, and kept on the matrix: over Z and at
every prime they are pivots that need no operation.  Only the other rows,
none for a partial permutation, are eliminated, each routine in a loop of
its own over a dict of row dicts.  A map's matrix has at most one entry per
column, so over Z it never needs a row operation.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import isqrt


class SparseMatrix:
    """An integer matrix of ``shape`` (m, n) as m dicts {column: nonzero int}.

    The routines here never modify a matrix they are given, so it keeps its
    ``_split`` once found.
    """

    __slots__ = ("rows", "shape", "_parts")

    def __init__(self, rows: list[dict[int, int]], shape: tuple[int, int]) -> None:
        self.rows = rows
        self.shape = shape
        self._parts = None

    @classmethod
    def from_entries(cls, shape: tuple[int, int], entries) -> SparseMatrix:
        """The matrix with the given (row, column, value) entries, zero elsewhere.

        Raises ValueError for an index outside ``shape`` or a value that is
        not a nonzero int.
        """
        m, n = shape
        rows: list[dict[int, int]] = [{} for _ in range(m)]
        for i, j, v in entries:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) outside a {m}x{n} matrix")
            if type(v) is not int or not v:
                raise ValueError("matrix entries must be nonzero integers")
            rows[i][j] = v
        return cls(rows, (m, n))

    def dense_rows(self):
        """Each row as a new list of ints, one row at a time."""
        n = self.shape[1]
        for row in self.rows:
            dense = [0] * n
            for j, v in row.items():
                dense[j] = v
            yield dense

    def dense(self) -> list[list[int]]:
        return list(self.dense_rows())

    def transpose(self) -> SparseMatrix:
        m, n = self.shape
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return SparseMatrix(cols, (n, m))


def _split(A: SparseMatrix):
    """(values, rest) of A, found on first use and kept on A: the value of
    each entry alone in its row and its column, in row order, and each other
    nonempty row as rest[row], not copied.  One pass counts each column."""
    if A._parts is None:
        count = Counter(chain.from_iterable(A.rows))
        values, rest = [], {}
        for i, row in enumerate(A.rows):
            if len(row) == 1:
                (j, v), = row.items()
                if count[j] == 1:
                    values.append(v)
                    continue
            if row:
                rest[i] = row
        A._parts = values, rest
    return A._parts


def _add(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    """dst += c * src on sparse vectors."""
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            del dst[k]


def diagonalize(A: SparseMatrix):
    """Diagonalize over the integers: returns (shape, pivots, U, V).

    ``shape`` is A's.  ``pivots`` lists (row, column, value) of each pivot
    at its own place: the isolated entries of the split first, in row order,
    then those of the rest, each the entry of least absolute value, once
    Euclidean remainders have cleared its column and then its row.  U is
    {row: that row of U} and V is {column: that column of V}, holding only
    the lines that elimination changed; every other row of U and column of
    V is a unit vector.  With those filled in, U and V are unimodular and
    U A V holds each pivot's value at its place and zeros elsewhere.  A
    partial permutation gets empty U and V.
    """
    rest = _split(A)[1]
    rows = {i: dict(row) for i, row in rest.items()}
    U: dict[int, dict[int, int]] = {}
    V: dict[int, dict[int, int]] = {}
    # each row outside the rest is empty or one isolated entry, a pivot as it is
    pivots = [(i, j, v) for i, row in enumerate(A.rows) if i not in rest
              for j, v in row.items()]
    while True:
        # the entry of least absolute value, the first by row and column
        entries = [(abs(v), k, l) for k, row in rows.items() for l, v in row.items()]
        if not entries:
            break
        _, i, j = min(entries)
        pivot = rows[i][j]
        # clear the column; each remainder is smaller than the pivot
        for k in [k for k, row in rows.items() if j in row and k != i]:
            q = rows[k][j] // pivot
            _add(rows[k], rows[i], -q)
            _add(U.setdefault(k, {k: 1}), U.get(i) or {i: 1}, -q)
        if any(j in row for k, row in rows.items() if k != i):
            continue
        # clear the row; the pivot is alone in its column now, so each
        # column operation changes row i only
        for l in [l for l in rows[i] if l != j]:
            q = rows[i][l] // pivot
            _add(rows[i], {l: pivot}, -q)
            _add(V.setdefault(l, {l: 1}), V.get(j) or {j: 1}, -q)
        if len(rows[i]) == 1:
            del rows[i]
            pivots.append((i, j, pivot))
    return A.shape, pivots, U, V


def kernel_rows(factors) -> SparseMatrix:
    """Basis of the integer kernel {x : A x = 0}, one row per basis vector,
    read off a diagonalization ``factors`` = (shape, pivots, U, V) of A.

    The rows are the columns of V at the columns of A that hold no pivot, in
    increasing order.  They span a saturated sublattice (the full kernel),
    so every rational kernel vector is a rational combination of them.
    """
    (_, n), pivots, _, V = factors
    pivoted = {j for _, j, _ in pivots}
    return SparseMatrix([V.get(j) or {j: 1} for j in range(n) if j not in pivoted],
                        (n - len(pivots), n))


def integer_kernel(A: SparseMatrix) -> SparseMatrix:
    """Basis of the integer kernel of A, one column per basis vector."""
    return kernel_rows(diagonalize(A)).transpose()


def span_solver(factors):
    """Membership in the column span of A, from a diagonalization ``factors``
    = (shape, pivots, U, V) of A: a function that maps a SparseMatrix whose
    rows are right-hand sides b to a list with, for each b, a sparse integer
    x with A x = b, or None when no such x exists.  Raises ValueError when
    the right-hand sides are not as long as A has rows.

    b is an integer combination of the columns of A exactly when c = U b
    vanishes off the pivot rows and each pivot's value v divides c[i] at its
    row i, and then x is the sum of c[i] / v times V's column j of each
    pivot (i, j, v).
    """
    (m, _), pivots, U, V = factors
    at_row = {i: (j, v) for i, j, v in pivots}

    def solve_many(vectors: SparseMatrix) -> list[dict[int, int] | None]:
        if vectors.shape[1] != m:
            raise ValueError(f"right-hand sides of length {vectors.shape[1]}, not {m}")
        out: list[dict[int, int] | None] = []
        for b in vectors.rows:
            # a row that U does not hold is a unit row, so c[i] = b[i] there
            c = {i: b_i for i, b_i in b.items() if i not in U}
            for i, u in U.items():
                if c_i := sum(u_k * b.get(k, 0) for k, u_k in u.items()):
                    c[i] = c_i
            if any(i not in at_row or c_i % at_row[i][1] for i, c_i in c.items()):
                out.append(None)
                continue
            x: dict[int, int] = {}
            for i, c_i in c.items():
                j, v = at_row[i]
                _add(x, V.get(j) or {j: 1}, c_i // v)
            out.append(x)
        return out
    return solve_many


def solve_in_span(A: SparseMatrix, b: dict[int, int]) -> dict[int, int] | None:
    """A sparse integer x with A x = b, for a sparse b, or None when none exists."""
    b_row = SparseMatrix.from_entries((1, A.shape[0]), ((0, i, v) for i, v in b.items()))
    return span_solver(diagonalize(A))(b_row)[0]


def multiply(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """The product A B."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply {A.shape[1]} columns by {B.shape[0]} rows")
    out = []
    for row in A.rows:
        acc: dict[int, int] = {}
        for k, a in row.items():
            _add(acc, B.rows[k], a)
        out.append(acc)
    return SparseMatrix(out, (A.shape[0], B.shape[1]))


def rank_mod_p(A: SparseMatrix, p: int) -> int:
    """Rank over the prime field with p elements.  In the rest of the split,
    reduced mod p, any entry is a unit that pivots and clears its column.

    Raises ValueError unless p is a prime int (bool excluded).
    """
    if type(p) is not int or p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime int, got {p!r}")
    values, rest = _split(A)
    rows = {i: {j: r for j, v in row.items() if (r := v % p)} for i, row in rest.items()}
    rank = sum(1 for v in values if v % p)  # an isolated v that p divides is 0 mod p
    while rows:
        if not (row := rows.popitem()[1]):
            continue
        j, v = next(iter(row.items()))
        inv = pow(v, -1, p)
        for other in [other for other in rows.values() if j in other]:
            c = -other[j] * inv
            for l, w in row.items():
                if r := (other.get(l, 0) + c * w) % p:
                    other[l] = r
                else:
                    del other[l]
        rank += 1
    return rank
