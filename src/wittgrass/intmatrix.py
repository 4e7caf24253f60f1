"""Exact integer matrix routines on lists of int rows.

Everything here is fraction-free: unimodular row/column operations over the
integers, no floating point, no rationals.  Used by the exactness checker to
compute kernels, test membership in column spans, and take ranks over the
integers and over small prime fields.

A matrix is a list of rows, each a list of ints.  A matrix with no rows
cannot show how many columns it has, so the routines the exactness checker
may hand one take an optional ``ncols``; without it the width is read off
the first row.  Elimination
touches only the rows and columns with a nonzero entry in the pivot's column
or row, so sparse inputs such as partial permutations eliminate in time close
to their size.
"""

from __future__ import annotations


def _width(M, ncols: int | None) -> int:
    return ncols if ncols is not None else (len(M[0]) if M else 0)


def as_int_matrix(rows, ncols: int | None = None) -> list[list[int]]:
    """Copy nested sequences into a new list of int rows of equal length.

    Raises ValueError for a non-int entry (bool included), for rows of
    unequal length, and for rows whose length is not ``ncols`` when given.
    """
    try:
        M = [list(row) for row in rows]
    except TypeError:
        raise ValueError("expected a two-dimensional matrix") from None
    width = _width(M, ncols)
    for row in M:
        if len(row) != width:
            raise ValueError(f"expected rows of length {width}, got {len(row)}")
        if not set(map(type, row)) <= {int}:
            raise ValueError("matrix entries must be integers")
    return M


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _nonzeros(seq) -> list[tuple[int, int]]:
    """(index, value) of each nonzero entry."""
    return [(k, v) for k, v in enumerate(seq) if v]


def _smallest_nonzero(row, start: int):
    """(|v|, column) of a smallest nonzero entry of row[start:], or None.

    Stops at the first entry of absolute value 1.
    """
    best = None
    for j in range(start, len(row)):
        v = row[j]
        if v:
            if v in (1, -1):
                return 1, j
            if best is None or abs(v) < best[0]:
                best = abs(v), j
    return best


def _swap_columns(M, a: int, b: int, rows) -> None:
    for i in rows:
        row = M[i]
        row[a], row[b] = row[b], row[a]


def diagonalize(A, ncols: int | None = None):
    """Diagonalize over the integers: returns (U, D, V) with U A V = D.

    U and V are unimodular; D is diagonal (no divisibility chain is
    enforced), with its nonzero entries first.  Diagonal shape suffices for
    ranks, kernels and membership.
    """
    D = as_int_matrix(A, ncols)
    m, n = len(D), _width(D, ncols)
    U, V = _identity(m), _identity(n)
    # Rows live.. of D are zero.  Row operations only change rows with a
    # nonzero in the pivot column and column operations only the pivot row,
    # so a zero row stays zero once it has been moved down there.
    live = m
    for t in range(min(m, n)):
        best = None
        i = t
        while i < live:
            found = _smallest_nonzero(D[i], t)
            if found is None:
                live -= 1
                D[i], D[live] = D[live], D[i]
                U[i], U[live] = U[live], U[i]
                continue
            if best is None or found[0] < best[0]:
                best = found[0], i, found[1]
                if found[0] == 1:
                    break
            i += 1
        if best is None:
            break
        _, i, j = best
        D[t], D[i] = D[i], D[t]
        U[t], U[i] = U[i], U[t]
        _swap_columns(D, t, j, range(t, live))
        _swap_columns(V, t, j, range(n))
        while True:
            if D[t][t] < 0:
                D[t] = [-v for v in D[t]]
                U[t] = [-v for v in U[t]]
            pivot = D[t][t]
            # clear the column below the pivot
            below = [i for i in range(t + 1, live) if D[i][t]]
            if below:
                d_row, u_row = _nonzeros(D[t]), _nonzeros(U[t])
                for i in below:
                    q = D[i][t] // pivot
                    d_i, u_i = D[i], U[i]
                    for k, v in d_row:
                        d_i[k] -= q * v
                    for k, v in u_row:
                        u_i[k] -= q * v
                dirty = [i for i in below if D[i][t]]
                if dirty:
                    # a remainder is strictly smaller than the pivot; promote it
                    i = min(dirty, key=lambda i: abs(D[i][t]))
                    D[t], D[i] = D[i], D[t]
                    U[t], U[i] = U[i], U[t]
                    continue
            # clear the row right of the pivot; the pivot is alone in its
            # column now, so each column operation changes D in row t only
            d_t = D[t]
            right = [j for j in range(t + 1, n) if d_t[j]]
            if not right:
                break
            v_col = _nonzeros(row[t] for row in V)
            for j in right:
                q = d_t[j] // pivot
                d_t[j] -= q * pivot
                for r, v in v_col:
                    V[r][j] -= q * v
            dirty = [j for j in right if d_t[j]]
            if not dirty:
                break
            j = min(dirty, key=lambda j: abs(d_t[j]))
            _swap_columns(D, t, j, range(t, live))
            _swap_columns(V, t, j, range(n))
    return U, D, V


def _rank_of_diagonal(D) -> int:
    r = 0
    while r < min(len(D), len(D[0]) if D else 0) and D[r][r]:
        r += 1
    return r


def integer_kernel(A, ncols: int | None = None) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}, one column per basis vector.

    The basis spans a saturated sublattice (it is the full kernel), so every
    rational kernel vector is a rational combination of these columns.
    """
    _, D, V = diagonalize(A, ncols)
    free = range(_rank_of_diagonal(D), len(V))
    return [[row[j] for j in free] for row in V]


def solve_in_span_many(A, vectors, ncols: int | None = None) -> list[list[int] | None]:
    """For each vector b, an integer x with A x = b, or None when none exists.

    One diagonalization U A V = D serves every vector: b is an integer
    combination of the columns of A exactly when c = U b vanishes past the
    rank r of D and D[i][i] divides c[i] for i < r, and then x = V y with
    y[i] = c[i] / D[i][i].
    """
    U, D, V = diagonalize(A, ncols)
    m = len(U)
    r = _rank_of_diagonal(D)
    u_cols = [_nonzeros(col) for col in zip(*U)]
    v_cols = [_nonzeros(col) for col in list(zip(*V))[:r]]
    out: list[list[int] | None] = []
    for b in as_int_matrix(vectors, m):
        c = [0] * m
        for j, b_j in _nonzeros(b):
            for i, u in u_cols[j]:
                c[i] += u * b_j
        if any(c[r:]) or any(c[i] % D[i][i] for i in range(r)):
            out.append(None)
            continue
        x = [0] * len(V)
        for i, c_i in _nonzeros(c[:r]):
            y = c_i // D[i][i]
            for k, v in v_cols[i]:
                x[k] += v * y
        out.append(x)
    return out


def solve_in_span(A, b) -> list[int] | None:
    """An integer x with A x = b, or None when no such x exists."""
    return solve_in_span_many(A, [b])[0]


def multiply(A, B, ncols: int | None = None) -> list[list[int]]:
    """The product A B, where B has ``ncols`` columns; zero entries are skipped."""
    A = as_int_matrix(A)
    B = as_int_matrix(B, ncols)
    if A and len(A[0]) != len(B):
        raise ValueError(f"cannot multiply {len(A[0])} columns by {len(B)} rows")
    n = _width(B, ncols)
    b_rows = [_nonzeros(row) for row in B]
    out = []
    for row in A:
        acc = [0] * n
        for k, a in _nonzeros(row):
            for j, v in b_rows[k]:
                acc[j] += a * v
        out.append(acc)
    return out


def rank_mod_p(A, p: int) -> int:
    """Rank over the prime field with p elements, by exact elimination."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    M = [[v % p for v in row] for row in as_int_matrix(A)]
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][col], -1, p)
        M[r] = [(v * inv) % p for v in M[r]]
        for i in range(m):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return r
