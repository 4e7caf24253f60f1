"""Shared test utilities: independent oracles and hypothesis strategies."""

from collections import Counter
from itertools import combinations_with_replacement
from math import comb, prod

from hypothesis import strategies as st

from wittgrass import FramedDiagram, enumerate_even
from wittgrass.intmatrix import SparseMatrix


def replace(record, **changes):
    """A copy of ``record``, a namedtuple record or a ``GradedBasis``, with
    the fields in ``changes``; its constructor validates it, as
    ``dataclasses.replace`` did for the dataclasses these records were."""
    fields = record._asdict() if isinstance(record, tuple) else {
        name: getattr(record, name) for name in ("d", "e", "keys", "degrees")}
    return type(record)(**{**fields, **changes})


def all_row_vectors(d, e):
    """Every weakly decreasing length-d vector with entries in 0..e."""
    return combinations_with_replacement(range(e, -1, -1), d)


def _runs(values):
    out = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            out.append((values[start], i - start))
            start = i
    return out


def evenness_oracle(d, e, rows):
    """Evenness by walking the boundary of the region inside the frame.

    The boundary splits into maximal vertical segments (runs of equal row
    lengths) and maximal horizontal segments (runs of equal column heights).
    A segment strictly inside the frame must have even length; segments on
    the frame edge are free.  This is a different decomposition from the
    jump-tuple conditions, so it serves as an independent oracle.
    """
    for value, length in _runs(list(rows)):
        if 0 < value < e and length % 2:
            return False
    heights = [sum(1 for r in rows if r >= c) for c in range(1, e + 1)]
    for value, length in _runs(heights):
        if 0 < value < d and length % 2:
            return False
    return True


def even_count_by_rule(d, e):
    """Number of even diagrams of the d x e frame, counted without listing them.

    By the parity-and-pairs description: for each parity p the rows are t
    rows equal to e (t > 0 only when e has parity p), then m equal pairs of
    values of parity p strictly between 0 and e, then z rows equal to 0
    (z > 0 only when p is 0), with t + 2m + z = d.  The pairs form a
    multiset of m of the n values of parity p, C(n + m - 1, m) of them, and
    the d - 2m outer rows split between the top and the bottom in as many
    ways as both ends allow.  Plain binomials: no wittgrass code.
    """
    total = 0
    for p in (0, 1):
        n = len([v for v in range(1, e) if v % 2 == p])
        for m in range(d // 2 + 1):
            rest = d - 2 * m
            top_ok, bottom_ok = e % 2 == p, p == 0
            splits = rest + 1 if top_ok and bottom_ok else int(top_ok or bottom_ok or rest == 0)
            total += (comb(n + m - 1, m) if n else int(m == 0)) * splits
    return total


def _is_block_union(rows):
    """Doubled diagram: values even, rows equal in pairs, an odd leftover row empty."""
    if any(r % 2 for r in rows):
        return False
    if any(rows[i] != rows[i + 1] for i in range(0, len(rows) - 1, 2)):
        return False
    return not (len(rows) % 2 and rows[-1] != 0)


def strip_families(d, e, rows):
    """Names of the families whose strip leaves 2x2 blocks, by trying all four.

    Strip nothing (Blocks), a full first row when e is even (RowPlusBlocks), a
    full first column when d is even (ColumnPlusBlocks), or both when d and e
    are odd (RowColumnPlusBlocks), and test what is left.
    """
    found = []
    if _is_block_union(rows):
        found.append("Blocks")
    if e % 2 == 0 and rows[0] == e and _is_block_union(rows[1:]):
        found.append("RowPlusBlocks")
    if d % 2 == 0 and rows[-1] >= 1 and _is_block_union(tuple(r - 1 for r in rows)):
        found.append("ColumnPlusBlocks")
    if (d % 2 and e % 2 and rows[0] == e and all(r >= 1 for r in rows)
            and _is_block_union(tuple(r - 1 for r in rows[1:]))):
        found.append("RowColumnPlusBlocks")
    return found


def map_oracle(which, d, e, rows):
    """Image of a diagram of the source frame under one map of the (d,e)
    cyclic sequence F(d,e-1) --iota--> F(d,e) --kappa--> F(d-1,e) --bord-->
    F(d,e-1), or None when the map sends it to zero.  Only maps between
    frames of diagrams: e >= 2 for iota, d >= 2 for kappa, both for bord.

    Stated on the set of cells (i, j), row i and column j counted from 1,
    as the paper states the maps: iota shifts every cell one column right
    and fills the new first column, when an even number of rows holds no
    cell; kappa keeps the cells and drops row d, when it holds none; bord
    drops the first column and moves the cells into a frame one row taller,
    when row d - 1 holds an odd number of cells.  Plain set bookkeeping: no
    wittgrass map code.
    """
    cells = {(i, j) for i, r in enumerate(rows, 1) for j in range(1, r + 1)}
    if which == "iota":
        if sum((i, 1) not in cells for i in range(1, d + 1)) % 2:
            return None
        image = {(i, 1) for i in range(1, d + 1)} | {(i, j + 1) for i, j in cells}
        target = (d, e)
    elif which == "kappa":
        if any(i == d for i, _ in cells):
            return None
        image, target = cells, (d - 1, e)
    else:
        if sum(i == d - 1 for i, _ in cells) % 2 == 0:
            return None
        image, target = {(i, j - 1) for i, j in cells if j > 1}, (d, e - 1)
    return FramedDiagram(*target, tuple(sum(i == row for i, _ in image)
                                        for row in range(1, target[0] + 1)))


def _normalized(coeffs, dvec, evec):
    # co-length-zero steps: TautDet(d_i) becomes BaseDet(d_i); zeros dropped
    out = Counter(coeffs)
    for di, ei in zip(dvec, evec):
        if ei == 0:
            out[("BaseDet", di)] += out.pop(("TautDet", di), 0)
    return {key: c for key, c in out.items() if c}


def _flag_coeffs(dvec, evec):
    """Flag canonical before normalization, term by term (d_0 = 0)."""
    k = len(dvec)
    d_ = (0, *dvec)  # d_[i] is d_i, 1-based
    e_ = (None, *evec)
    coeffs = Counter()
    for i in range(1, k + 1):
        coeffs[("BaseDet", d_[i] + e_[i])] += d_[i - 1] - d_[i]
    for i in range(1, k):
        coeffs[("TautDet", d_[i])] += d_[i] - d_[i - 1] + e_[i] - e_[i + 1]
    coeffs[("TautDet", d_[k])] += d_[k] - d_[k - 1] + e_[k]
    return coeffs


def canonical_flag_oracle(dvec, evec, n):
    """Relative canonical of the flag bundle, coefficient dict, from the formula

    sum_i (d_{i-1}-d_i) BaseDet(d_i+e_i) + sum_{i<k} (d_i-d_{i-1}+e_i-e_{i+1})
    TautDet(d_i) + (d_k-d_{k-1}+e_k) TautDet(d_k), then normalized.  Plain
    integer bookkeeping: no wittgrass class arithmetic.
    """
    assert dvec[-1] + evec[-1] <= n
    return _normalized(_flag_coeffs(dvec, evec), dvec, evec)


def canonical_fiber_oracle(dvec, evec, d, e):
    """Flag canonical minus the pulled-back Grassmann canonical, normalized.

    The Grassmann class is -d BaseDet(n) + n TautDet(d) with n = d + e; the
    pullback fixes BaseDet and sends TautDet(d) to TautDet(d_k) = TautDet(d).
    """
    assert dvec[-1] == d
    n = d + e
    coeffs = _flag_coeffs(dvec, evec)
    coeffs[("BaseDet", n)] += d
    coeffs[("TautDet", dvec[-1])] -= n
    return _normalized(coeffs, dvec, evec)


def _rank_mod2(rows):
    """Rank over GF(2) of vectors given as int bit masks, by xor elimination."""
    pivots = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def sq2_rank_oracle(d, e, twist):
    """Witt ranks of Gr(d, d+e) over a point by shift, from Sq² cohomology.

    Zibrowius ("Witt groups of complex cellular varieties", Doc. Math. 16,
    2011): the Witt groups of a complex cellular variety are the cohomology
    of its mod-2 Chow ring under Sq², twisted by a line bundle L to
    Sq² + c1(L).  The Schubert classes of Gr(d, d+e) are all diagrams in the
    d x e frame; Sq² sends a diagram to the sum of the diagrams with one box
    more of odd content (column - row), and O(1) adds sigma_1 (Pieri: every
    box), so twist 1 takes the boxes of even content instead.  The rank of
    W^i is the cohomology summed over the areas k = i mod 4.  Returns
    {shift: rank} for the nonzero ranks.  Plain integer bookkeeping: no
    wittgrass arithmetic.
    """
    by_area = {}
    for rows in all_row_vectors(d, e):
        by_area.setdefault(sum(rows), []).append(rows)
    index = {lam: i for lams in by_area.values() for i, lam in enumerate(lams)}
    boundary_rank = {}  # rank of the differential out of each area
    for k, lams in by_area.items():
        images = []
        for lam in lams:
            v = 0
            for r, length in enumerate(lam):
                addable = length < e and (r == 0 or lam[r - 1] > length)
                if addable and (length - r) % 2 != twist:
                    v |= 1 << index[lam[:r] + (length + 1,) + lam[r + 1:]]
            images.append(v)
        boundary_rank[k] = _rank_mod2(images)
    ranks = {}
    for k, lams in by_area.items():
        h = len(lams) - boundary_rank[k] - boundary_rank.get(k - 1, 0)
        if h:
            ranks[k % 4] = ranks.get(k % 4, 0) + h
    return ranks


def mat_mul(A, B):
    """Product of two matrices given as lists of rows; B may have no columns.

    Raises AssertionError when a row of A does not match the row count of B.
    """
    width = len(B[0]) if B else 0
    for row in A:
        assert len(row) == len(B), f"cannot multiply {len(row)} columns by {len(B)} rows"
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(width)]
            for row in A]


def mat_vec(A, x):
    """A x for a matrix given as a list of rows and a vector given as a list."""
    return [sum(a * v for a, v in zip(row, x, strict=True)) for row in A]


def is_zero(M):
    return all(v == 0 for row in M for v in row)


def invariant_factors(M):
    """The invariant factors of M (list of lists), min(m, n) of them with
    zeros past the rank, from sympy's Smith form of a ``DomainMatrix`` over ZZ."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors as factors

    m = len(M)
    n = len(M[0]) if m else 0
    if not m or not n:
        return ()
    return tuple(abs(int(f)) for f in factors(DomainMatrix([[ZZ(v) for v in row] for row in M],
                                                           (m, n), ZZ)))


def _minors_gcd_from(factors, k):
    """The gcd of the k x k minors, as the product of the first k invariant
    factors: 0 past the rank or past min(m, n), and 1 for k = 0."""
    return prod(factors[:k]) if k <= len(factors) else 0


def minors_gcd(M, k):
    """gcd of all k x k minors of M (list of lists), read off its invariant factors."""
    return _minors_gcd_from(invariant_factors(M), k)


def integer_solvable_oracle(M, b):
    """Whether M x = b has an integer solution, by the minors-gcd criterion.

    Solvable over the integers iff the augmented matrix has the same rank
    and the same gcd of k x k minors as M for every k up to the rank; every
    k is read off one factor list of M and one of the augmented matrix.
    """
    factors = invariant_factors(M)
    augmented = invariant_factors([list(row) + [v] for row, v in zip(M, b)])
    rank = sum(1 for f in factors if f)
    if sum(1 for f in augmented if f) != rank:
        return False
    return all(_minors_gcd_from(factors, k) == _minors_gcd_from(augmented, k)
               for k in range(1, rank + 1))


@st.composite
def framed_diagrams(draw, max_d=6, max_e=6, min_d=1, min_e=1):
    d = draw(st.integers(min_d, max_d))
    e = draw(st.integers(min_e, max_e))
    rows = draw(st.lists(st.integers(0, e), min_size=d, max_size=d))
    return FramedDiagram(d, e, tuple(sorted(rows, reverse=True)))


@st.composite
def even_diagrams(draw, max_d=6, max_e=6, min_d=1, min_e=1):
    d = draw(st.integers(min_d, max_d))
    e = draw(st.integers(min_e, max_e))
    return draw(st.sampled_from(enumerate_even(d, e)))


def sparse(rows, width=None):
    """The dense int rows as a SparseMatrix: the one place tests convert a
    dense matrix.  ``width`` is the column count of a matrix with no rows."""
    shape = (len(rows), len(rows[0]) if rows else width)
    return SparseMatrix.from_entries(shape, [(i, j, v) for i, row in enumerate(rows)
                                             for j, v in enumerate(row) if v])


@st.composite
def int_matrices(draw, max_dim=5, max_entry=6):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return draw(st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
        min_size=m, max_size=m))


def rank_mod_p_oracle(M, p):
    """Rank of M over the field with p elements, by sympy's domain matrices."""
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    m = len(M)
    n = len(M[0]) if m else 0
    return DomainMatrix([[ZZ(v) for v in row] for row in M], (m, n), ZZ).convert_to(GF(p)).rank()


@st.composite
def sparse_int_matrices(draw, max_dim=7, max_entry=6):
    """(dense rows, SparseMatrix) of one mostly-zero matrix with entries in
    -max_entry..max_entry; about half of the draws hold no entry ±1 at all,
    so that elimination must take Euclidean remainders."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    no_unit = draw(st.booleans())
    values = [v for v in range(-max_entry, max_entry + 1)
              if v and not (no_unit and abs(v) == 1)]
    cells = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                         max_size=max(1, m * n // 3)))
    entries = [(i, j, draw(st.sampled_from(values))) for i, j in sorted(cells)]
    rows = [[0] * n for _ in range(m)]
    for i, j, v in entries:
        rows[i][j] = v
    return rows, sparse(rows)
