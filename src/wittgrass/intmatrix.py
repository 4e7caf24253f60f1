"""Exact integer matrix routines on sparse matrices.

Fraction-free unimodular row/column operations over the integers, for the
exactness checker's kernels, span membership and ranks over Z and small
prime fields.  One diagonalization serves both the kernel of A
(``kernel_rows``) and membership in its column span (``span_solver``);
``integer_kernel`` and ``solve_in_span`` apply them to a fresh one.

Every routine takes and returns one form, a ``SparseMatrix`` split once,
when it is built: its isolated entries, each alone in its row and its
column, in two flat sequences by column, and only the rest, none for a
partial permutation, as {row: {column: value}}.  Over Z and at every prime
an isolated entry is a pivot that needs no operation, so only the rest is
eliminated, by each routine in a loop of its own.  A map's matrix has at
most one entry per column, so over Z it never needs a row operation.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, count, repeat
from math import isqrt


class SparseMatrix:
    """An integer matrix of ``shape`` (m, n): column j holds the isolated
    entry ``values[j]`` at row ``at[j]``, or none where ``values[j]`` is 0
    (``at[j]`` is then not read), and ``rest`` every other entry, as
    {row: {column: value}}.  The routines here never modify a given matrix."""

    __slots__ = ("shape", "at", "values", "rest")

    def __init__(self, shape: tuple[int, int], at, values, rest: dict) -> None:
        self.shape, self.at, self.values, self.rest = shape, at, values, rest

    @classmethod
    def from_columns(cls, m: int, at, values) -> SparseMatrix:
        """The m-row matrix with ``values[j]`` at row ``at[j]`` of each column j
        where it is not 0; an entry is isolated unless another column hits its row."""
        hit = bytearray(m)
        any(map(hit.__setitem__, compress(at, values), repeat(1)))  # mark each row hit
        if hit.count(1) == len(values) - values.count(0):
            return cls((m, len(at)), at, values, {})
        return cls.from_entries((m, len(at)), compress(zip(at, count(), values), values))

    @classmethod
    def from_entries(cls, shape: tuple[int, int], entries) -> SparseMatrix:
        """The matrix with the given (row, column, value) entries, zero
        elsewhere, split by one pass that counts the entries of each column.
        Raises ValueError for an index outside ``shape`` or a value that is
        not a nonzero int."""
        m, n = shape
        rows: dict[int, dict[int, int]] = {}
        for i, j, v in entries:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) outside a {m}x{n} matrix")
            if type(v) is not int or not v:
                raise ValueError("matrix entries must be nonzero integers")
            rows.setdefault(i, {})[j] = v
        in_column = Counter(chain.from_iterable(rows.values()))
        rest = {i: row for i, row in rows.items() if len(row) > 1 or in_column[min(row)] > 1}
        at, values = [0] * n, [0] * n
        for i in rows.keys() - rest:
            (j, v), = rows[i].items()
            at[j], values[j] = i, v
        return cls(shape, at, values, rest)

    def entries(self):
        """(row, column, value) of each entry, the isolated ones first, by column."""
        isolated = compress(zip(self.at, count(), self.values), self.values)
        return chain(isolated, ((i, j, v) for i, row in self.rest.items()
                                for j, v in row.items())) if self.rest else isolated

    def dense_rows(self):
        """Each row as a new list of ints, one row at a time."""
        by_row: dict[int, dict[int, int]] = {}
        for i, j, v in self.entries():
            by_row.setdefault(i, {})[j] = v
        for i in range(self.shape[0]):
            yield list(map(by_row.get(i, {}).get, range(self.shape[1]), repeat(0)))

    def dense(self) -> list[list[int]]:
        return list(self.dense_rows())

    def transpose(self) -> SparseMatrix:
        return SparseMatrix.from_entries(self.shape[::-1],
                                         ((j, i, v) for i, j, v in self.entries()))


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

    ``pivots`` lists (row, column, value) of each pivot at its own place:
    the isolated entries, read off the columns, then each entry of least
    absolute value of the rest once Euclidean remainders have cleared its
    column and then its row.  U is {row: that row of U} and V {column: that
    column of V}, holding only the lines elimination changed, none for a
    partial permutation; other lines are unit vectors.  U and V are then
    unimodular and U A V is zero but for each pivot's value at its place.
    """
    rows = {i: dict(row) for i, row in A.rest.items()}
    U: dict[int, dict[int, int]] = {}
    V: dict[int, dict[int, int]] = {}
    pivots = list(compress(zip(A.at, count(), A.values), A.values))
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
    increasing order: they span the full, saturated kernel.  Such a column j
    that V does not hold is the unit row e_j, an isolated 1 in column j; V's
    changed columns are the rest, not copied.
    """
    (_, n), pivots, _, V = factors
    values = [1] * n
    for _, j, _ in pivots:
        values[j] = 0
    at = list(accumulate(values, initial=0))[:-1]  # at[j]: unpivoted columns before j
    rest = {at[j]: column for j, column in V.items() if values[j]}
    for j in V:
        values[j] = 0
    return SparseMatrix((n - len(pivots), n), at, values, rest)


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
    row i; x is then the sum of c[i] / v times V's column j of each pivot
    (i, j, v).  An isolated entry w in column i is read as b = w e_i."""
    (m, _), pivots, U, V = factors
    at_row = {pivot[0]: pivot for pivot in pivots}

    def solve(b: dict[int, int]) -> dict[int, int] | None:
        c = {i: b_i for i, b_i in b.items() if i not in U}  # U's other rows are units
        for i, u in U.items():
            if c_i := sum(u_k * b.get(k, 0) for k, u_k in u.items()):
                c[i] = c_i
        if any(i not in at_row or c_i % at_row[i][2] for i, c_i in c.items()):
            return None
        x: dict[int, int] = {}
        for i, c_i in c.items():
            _, j, v = at_row[i]
            _add(x, V.get(j) or {j: 1}, c_i // v)
        return x

    def solve_many(vectors: SparseMatrix) -> list[dict[int, int] | None]:
        if vectors.shape[1] != m:
            raise ValueError(f"right-hand sides of length {vectors.shape[1]}, not {m}")
        out: list = [{} for _ in range(vectors.shape[0])]  # x = 0 solves b = 0
        for r, i, w in compress(zip(vectors.at, count(), vectors.values), vectors.values):
            _, j, v = at_row.get(i, (None, None, 0))  # b = w e_i is w / v times V's column j
            out[r] = (solve({i: w}) if U or j in V else
                      None if not v or w % v else {j: w // v})
        for r, b in vectors.rest.items():
            out[r] = solve(b)
        return out
    return solve_many


def solve_in_span(A: SparseMatrix, b: dict[int, int]) -> dict[int, int] | None:
    """A sparse integer x with A x = b, for a sparse b, or None when none exists."""
    b_row = SparseMatrix.from_entries((1, A.shape[0]), ((0, i, v) for i, v in b.items()))
    return span_solver(diagonalize(A))(b_row)[0]


def multiply(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """The product A B, split as any matrix is; when no entry of B meets an
    entry of A, as for consecutive maps of an exact sequence, it is empty
    and one list of zeros serves as both its sequences."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply {A.shape[1]} columns by {B.shape[0]} rows")
    shape = (A.shape[0], B.shape[1])
    if not (A.rest or B.rest or any(map(A.values.__getitem__, compress(B.at, B.values)))):
        zeros = [0] * shape[1]
        return SparseMatrix(shape, zeros, zeros, {})
    in_column: dict[int, list] = {}  # A's entries by column
    for i, k, a in A.entries():
        in_column.setdefault(k, []).append((i, a))
    product: Counter = Counter()
    for k, j, b in B.entries():
        for i, a in in_column.get(k, ()):
            product[i, j] += a * b
    return SparseMatrix.from_entries(shape, ((i, j, v) for (i, j), v in product.items() if v))


def rank_mod_p(A: SparseMatrix, p: int) -> int:
    """Rank over the prime field with p elements: the isolated values that p
    does not divide, each a pivot, and the rank of the rest reduced mod p,
    in which any entry is a unit that pivots and clears its column.  Raises
    ValueError unless p is a prime int (bool excluded)."""
    if type(p) is not int or p < 2 or 0 in map(p.__mod__, range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime int, got {p!r}")
    rank = len(A.values) - sum([A.values.count(v) for v in set(A.values) if not v % p])
    rows = [{j: r for j, v in row.items() if (r := v % p)} for row in A.rest.values()]
    while rows:
        if not (row := rows.pop()):
            continue
        j, v = next(iter(row.items()))
        inv = pow(v, -1, p)
        for other in [other for other in rows if j in other]:
            c = -other[j] * inv
            for l, w in row.items():
                if r := (other.get(l, 0) + c * w) % p:
                    other[l] = r
                else:
                    del other[l]
        rank += 1
    return rank
