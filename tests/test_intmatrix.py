"""Exact integer linear algebra against sympy and minors-gcd oracles."""

import random
from itertools import chain, combinations, product
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import mat_mul, mat_vec, replace, sparse
from wittgrass import MAP_NAMES, cyclic_sequence
from wittgrass.intmatrix import (SparseMatrix, diagonalize, integer_kernel, kernel_rows,
                                 multiply, rank_mod_p, solve_in_span, span_solver)


def _is_diagonal(D):
    return all(v == 0 for i, row in enumerate(D) for j, v in enumerate(row)
               if i != j)


def _nonzero_diagonal(D):
    """The rank of a diagonal matrix: its count of nonzero diagonal entries."""
    return sum(1 for i, row in enumerate(D) if i < len(row) and row[i])


def _unimodular(M):
    return int(sympy.Matrix(M).det()) in (1, -1)


def _dense_diagonalize(A):
    """diagonalize(A) expanded to dense U, D and V with U A V = D: the unit
    lines filled in, pivot k moved to (k, k) and made positive."""
    (m, n), pivots, U, V = diagonalize(A)

    def order(size, first):
        return first + [k for k in range(size) if k not in first]

    rows = order(m, [i for i, _, _ in pivots])
    cols = order(n, [j for _, j, _ in pivots])
    signs = [-1 if v < 0 else 1 for _, _, v in pivots] + [1] * (m - len(pivots))
    U_dense = [[s * U.get(i, {i: 1}).get(k, 0) for k in range(m)]
               for s, i in zip(signs, rows)]
    D = [[abs(pivots[k][2]) if k == l and k < len(pivots) else 0 for l in range(n)]
         for k in range(m)]
    V_dense = [[V.get(j, {j: 1}).get(k, 0) for j in cols] for k in range(n)]
    return U_dense, D, V_dense


def _vec(x, n):
    """A sparse witness {index: value} as a list of n ints."""
    return [x.get(k, 0) for k in range(n)]


def _sparse_vec(b):
    """A list of ints as a sparse vector {index: nonzero value}."""
    return {k: v for k, v in enumerate(b) if v}


def _solve_in_span(rows, b):
    """solve_in_span on dense rows and a dense b."""
    return solve_in_span(sparse(rows), _sparse_vec(b))


def _solve_many(rows, vectors):
    """span_solver of the dense rows, applied to the dense right-hand sides."""
    return span_solver(diagonalize(sparse(rows)))(sparse(vectors, len(rows)))


class TestInput:
    def test_zero_row_matrix_keeps_its_width(self):
        assert integer_kernel(sparse([], 3)).dense() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        no_rows = span_solver(diagonalize(sparse([], 2)))
        assert [_vec(x, 2) for x in no_rows(sparse([[]]))] == [[0, 0]]
        assert multiply(sparse([[]]), sparse([], 2)).dense() == [[0, 0]]


class TestDiagonalize:
    def test_frozen_small(self):
        A = [[2, 4], [6, 8]]
        U, D, V = _dense_diagonalize(sparse(A))
        assert _is_diagonal(D)
        assert mat_mul(mat_mul(U, A), V) == D
        assert _nonzero_diagonal(D) == 2

    def test_partial_permutation_needs_no_row_operations(self):
        A = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
        U, D, V = _dense_diagonalize(sparse(A))
        assert D == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert mat_mul(mat_mul(U, A), V) == D
        assert all(sorted(map(abs, row)) == [0, 0, 1] for row in U + V)

    @settings(max_examples=60, deadline=None)
    @given(helpers.int_matrices())
    def test_transforms_are_unimodular_and_exact(self, rows):
        U, D, V = _dense_diagonalize(sparse(rows))
        assert _is_diagonal(D)
        assert mat_mul(mat_mul(U, rows), V) == D
        assert _unimodular(U)
        assert _unimodular(V)
        assert _nonzero_diagonal(D) == sympy.Matrix(rows).rank()


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(helpers.int_matrices())
    def test_kernel_is_complete_and_saturated(self, rows):
        K = integer_kernel(sparse(rows)).dense()
        assert helpers.is_zero(mat_mul(rows, K))
        expected_dim = len(rows[0]) - sympy.Matrix(rows).rank()
        assert len(K[0]) == expected_dim
        if expected_dim:
            assert sympy.Matrix(K).rank() == expected_dim
        for vec in sympy.Matrix(rows).nullspace():
            scale = sympy.lcm([term.q for term in vec])
            primitive = [int(term * scale) for term in vec]
            assert _solve_in_span(K, primitive) is not None


class TestSpanMembership:
    @settings(max_examples=60, deadline=None)
    @given(helpers.int_matrices(max_dim=4, max_entry=4), st.data())
    def test_products_are_in_span_with_verified_witness(self, rows, data):
        x = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows[0]),
                               max_size=len(rows[0])))
        b = mat_vec(rows, x)
        witness = _solve_in_span(rows, b)
        assert witness is not None
        assert mat_vec(rows, _vec(witness, len(rows[0]))) == b

    @settings(max_examples=40, deadline=None)
    @given(helpers.int_matrices(max_dim=3, max_entry=3), st.data())
    def test_matches_minors_gcd_oracle(self, rows, data):
        b = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows),
                               max_size=len(rows)))
        witness = _solve_in_span(rows, b)
        solvable = helpers.integer_solvable_oracle(rows, b)
        assert (witness is not None) == solvable
        if witness is not None:
            assert mat_vec(rows, _vec(witness, len(rows[0]))) == b

    def test_frozen_divisibility(self):
        assert _solve_in_span([[2]], [4]) is not None
        assert _solve_in_span([[2]], [3]) is None
        assert _solve_in_span([[0]], [1]) is None
        assert _solve_in_span([[2, 3]], [1]) is not None

    def test_rejects_vector_of_wrong_length(self):
        with pytest.raises(ValueError):
            _solve_many([[1, 0], [0, 1]], [[1, 2, 3]])
        with pytest.raises(ValueError):
            solve_in_span(sparse([[1, 0], [0, 1]]), {2: 3})


class TestBatchedMembership:
    @settings(max_examples=40, deadline=None)
    @given(helpers.int_matrices(max_dim=3, max_entry=3), st.data())
    def test_matches_per_column_oracle(self, rows, data):
        m = len(rows)
        vectors = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m), max_size=4))
        witnesses = _solve_many(rows, vectors)
        assert len(witnesses) == len(vectors)
        for b, x in zip(vectors, witnesses):
            assert (x is not None) == helpers.integer_solvable_oracle(rows, b)
            if x is not None:
                assert mat_vec(rows, _vec(x, len(rows[0]))) == b

    @settings(max_examples=40, deadline=None)
    @given(helpers.int_matrices(max_dim=3, max_entry=3), st.data())
    def test_exactly_one_column_outside(self, rows, data):
        # every vector in the span of 2A is even, so adding e_0 to one of
        # them leaves the span
        doubled = [[2 * v for v in row] for row in rows]
        n = len(rows[0])
        xs = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=1, max_size=4))
        vectors = [mat_vec(doubled, x) for x in xs]
        outside = data.draw(st.integers(0, len(vectors) - 1))
        vectors[outside][0] += 1
        witnesses = _solve_many(doubled, vectors)
        assert [i for i, x in enumerate(witnesses) if x is None] == [outside]
        for b, x in zip(vectors, witnesses):
            assert (x is not None) == helpers.integer_solvable_oracle(doubled, b)
            if x is not None:
                assert mat_vec(doubled, _vec(x, n)) == b

    def test_frozen(self):
        A = [[2, 0], [0, 1]]
        vectors = [[2, 3], [1, 0], [4, -1]]
        witnesses = _solve_many(A, vectors)
        assert [None if x is None else _vec(x, 2) for x in witnesses] == \
            [[1, 3], None, [2, -1]]
        assert [helpers.integer_solvable_oracle(A, b) for b in vectors] == \
            [True, False, True]


class TestMultiply:
    @settings(max_examples=40, deadline=None)
    @given(helpers.int_matrices(max_dim=4), st.data())
    def test_matches_dense_product(self, rows, data):
        k = len(rows[0])
        width = data.draw(st.integers(0, 4))
        other = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=width, max_size=width),
            min_size=k, max_size=k))
        assert multiply(sparse(rows), sparse(other, width)).dense() == mat_mul(rows, other)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            multiply(sparse([[1, 2]]), sparse([[1, 2]]))


class TestModP:
    def test_frozen(self):
        A = sparse([[2, 0], [0, 3]])
        assert rank_mod_p(A, 2) == 1
        assert rank_mod_p(A, 3) == 1
        assert rank_mod_p(A, 5) == 2

    @settings(max_examples=60, deadline=None)
    @given(helpers.int_matrices())
    def test_matches_smith_diagonal(self, rows):
        _, D, _ = _dense_diagonalize(sparse(rows))
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        for p in (2, 3, 5):
            assert rank_mod_p(sparse(rows), p) == sum(1 for v in diag if v % p)

    @pytest.mark.parametrize("p", [1, 4, 9, True])
    def test_rejects_a_modulus_that_is_not_a_prime_int(self, p):
        with pytest.raises(ValueError):
            rank_mod_p(sparse([[1, 0], [0, 1]]), p)


class TestSparseForm:
    def test_from_entries(self):
        M = SparseMatrix.from_entries((2, 3), [(0, 2, 5), (1, 0, -1)])
        assert M.shape == (2, 3)
        assert M.dense() == [[0, 0, 5], [-1, 0, 0]]
        assert M.transpose().dense() == [[0, -1], [0, 0], [5, 0]]

    @pytest.mark.parametrize("entry", [(2, 0, 1), (0, 3, 1), (-1, 0, 1),
                                       (0, 0, 0), (0, 0, True), (0, 0, 1.0)])
    def test_from_entries_rejects(self, entry):
        with pytest.raises(ValueError):
            SparseMatrix.from_entries((2, 3), [entry])


class TestOneDiagonalization:
    """One diagonalization serves the kernel and span membership."""

    # the last: a negative isolated pivot beside a row that needs column operations
    MATRICES = [[[2, 4, 0], [0, 0, 3]], [[1, 1], [1, 1], [0, 2]], [[0, 0, 0]],
                [[6, 0, 0, 0], [0, 4, 0, 0], [0, 0, 0, 0]], [[-2, 0, 0], [0, 2, 3]]]

    @pytest.mark.parametrize("rows", MATRICES)
    def test_pieces_equal_the_wrappers(self, rows):
        factors = diagonalize(sparse(rows))
        assert kernel_rows(factors).transpose().dense() == integer_kernel(sparse(rows)).dense()
        vectors = [[1] * len(rows), [2 * k for k in range(len(rows))],
                   [row[0] for row in rows]]
        assert span_solver(factors)(sparse(vectors)) == [_solve_in_span(rows, b)
                                                         for b in vectors]

    def test_solver_keeps_no_factor(self):
        """The solver holds no matrix, and a partial permutation's
        diagonalization changes no line of U or V."""
        factors = diagonalize(sparse([[2, 4, 0], [0, 0, 3]]))
        held = [cell.cell_contents for cell in span_solver(factors).__closure__]
        assert not any(isinstance(value, SparseMatrix) for value in held)
        _, _, U, V = diagonalize(sparse([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
        assert U == {} and V == {}


class TestSparseNonUnit:
    """Mostly-zero matrices given in sparse form, many with no unit entry,
    against the sympy rank, minors-gcd and Smith-diagonal oracles."""

    @settings(max_examples=80, deadline=None)
    @given(helpers.sparse_int_matrices())
    def test_diagonalize_and_kernel(self, drawn):
        rows, A = drawn
        U, D, V = _dense_diagonalize(A)
        assert _is_diagonal(D)
        assert mat_mul(mat_mul(U, rows), V) == D
        assert _unimodular(U)
        assert _unimodular(V)
        rank = sympy.Matrix(rows).rank()
        assert _nonzero_diagonal(D) == rank
        K = integer_kernel(A)
        assert K.shape == (len(rows[0]), len(rows[0]) - rank)
        assert helpers.is_zero(mat_mul(rows, K.dense()))
        for vec in sympy.Matrix(rows).nullspace():
            scale = sympy.lcm([term.q for term in vec])
            assert solve_in_span(K, _sparse_vec([int(term * scale) for term in vec])) is not None

    @settings(max_examples=60, deadline=None)
    @given(helpers.sparse_int_matrices(max_dim=4, max_entry=4), st.data())
    def test_span_membership_matches_minors_gcd(self, drawn, data):
        rows, A = drawn
        m, n = A.shape
        vectors = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=1, max_size=3))
        for b, x in zip(vectors, span_solver(diagonalize(A))(sparse(vectors))):
            assert (x is not None) == helpers.integer_solvable_oracle(rows, b)
            if x is not None:
                assert mat_vec(rows, _vec(x, n)) == b

    @settings(max_examples=80, deadline=None)
    @given(helpers.sparse_int_matrices())
    def test_rank_mod_p_matches_oracles(self, drawn):
        rows, A = drawn
        _, D, _ = _dense_diagonalize(A)
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        for p in (2, 3, 5):
            rank = rank_mod_p(A, p)
            assert rank == helpers.rank_mod_p_oracle(rows, p)
            assert rank == sum(1 for v in diag if v % p)


def _check_oracles(rows, width=None):
    """diagonalize, kernel_rows, span_solver and rank_mod_p of the dense
    rows against the oracles.  The right-hand sides are each unit vector,
    each column and the sum of the columns."""
    A = sparse(rows, width)
    m, n = A.shape
    U, D, V = _dense_diagonalize(A)
    assert _is_diagonal(D)
    assert mat_mul(mat_mul(U, rows), V) == D
    assert _unimodular(U)
    assert _unimodular(V)
    for k in range(1, min(A.shape) + 1):
        assert helpers.minors_gcd(D, k) == helpers.minors_gcd(rows, k), k
    for p in (2, 3, 5):
        assert rank_mod_p(A, p) == helpers.rank_mod_p_oracle(rows, p), p
    # the kernel rows span the nullspace and a saturated lattice
    factors = diagonalize(A)
    K = kernel_rows(factors).dense()
    nullspace = sympy.Matrix(m, n, [v for row in rows for v in row]).nullspace()
    assert len(K) == len(nullspace)
    assert all(v == 0 for k in K for v in mat_vec(rows, k))
    if K:
        assert sympy.Matrix(K).rank() == len(K)
        assert helpers.minors_gcd(K, len(K)) == 1
    columns = [list(col) for col in zip(*rows)]
    vectors = [[int(i == k) for i in range(m)] for k in range(m)]
    vectors += columns + [[sum(row) for row in rows]]
    for b, x in zip(vectors, span_solver(factors)(sparse(vectors, m))):
        assert (x is not None) == helpers.integer_solvable_oracle(rows, b), b
        if x is not None:
            assert mat_vec(rows, _vec(x, n)) == b
    return D


class TestRowOperationChain:
    def test_row_operations_from_a_changed_row(self):
        """In the column (2, 3, 5) the pivot 2 clears rows 1 and 2 to 1, so
        their rows of U change; row 1 then pivots and clears rows 0 and 2, so
        two row operations read U's row 1 after it changed, and row 2's
        second one adds it to a changed row of its own.  In the 3x3 matrix,
        after the isolated-free pivot 1 at (0, 2), rows 1 and 2 run Euclid's
        algorithm on 3 and 5 beside a column operation, each step reading
        the other's changed row of U."""
        (m, n), pivots, U, V = diagonalize(sparse([[2], [3], [5]]))
        assert [i for i, _, _ in pivots] == [1] and V == {}
        assert U == {0: {0: 3, 1: -2}, 1: {0: -1, 1: 1}, 2: {0: -1, 1: -1, 2: 1}}
        D = _check_oracles([[2], [3], [5]])
        assert _nonzero_diagonal(D) == 1
        D = _check_oracles([[2, 0, 1], [3, 0, 0], [5, 4, 0]])
        assert _nonzero_diagonal(D) == 3


class TestIsolatedSplit:
    """Entries alone in their row and column are pivots taken before any
    elimination, at every prime: an isolated entry that p divides counts 0
    mod p and stays a pivot over Z.  Held to the minors-gcd and sympy
    rank oracles."""

    @pytest.mark.parametrize("rows, ranks", [([[2]], (1, 0, 1, 1)),
                                             ([[6, 0], [0, 1]], (2, 1, 1, 2))])
    def test_non_unit_isolated_entry(self, rows, ranks):
        """Ranks over Z, then mod 2, 3 and 5."""
        D = _check_oracles(rows)
        assert _nonzero_diagonal(D) == ranks[0]
        assert [rank_mod_p(sparse(rows), p) for p in (2, 3, 5)] == list(ranks[1:])
        assert sorted(D[i][i] for i in range(len(D))) == sorted(max(map(abs, r)) for r in rows)

    def test_block_beside_isolated_pivots(self):
        """Rows 1 and 2 form the block [[1, 2], [2, 0]]: row 2's one entry
        shares its column, so it is not isolated.  Its Smith form is
        diag(1, 4), so the determinantal divisor of the whole is 12."""
        rows = [[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 0, 0], [0, 0, 0, 3]]
        D = _check_oracles(rows)
        assert helpers.minors_gcd(D, 4) == 12
        assert [rank_mod_p(sparse(rows), p) for p in (2, 3, 5)] == [3, 3, 4]

    def test_shared_column_of_single_entry_rows(self):
        D = _check_oracles([[0, 3], [0, 3], [1, 0]])
        assert _nonzero_diagonal(D) == 2

    def test_kernel_through_column_operations(self):
        """Row [0, 2, 3] needs column operations, so its kernel vector is a
        changed column of V; the -2 beside it is an isolated pivot."""
        D = _check_oracles([[-2, 0, 0], [0, 2, 3]])
        assert _nonzero_diagonal(D) == 2

    def test_double_arrow_fills_in(self):
        """Ones along row 0 and column 0, and 2 on the rest of the diagonal:
        the first least entry, at (0, 0), sits on a dense row and a dense
        column, so row operations reach every other row.  Its determinant
        is 2^4 (1 - 5/2) = -48."""
        rows = [[1] * 6] + [[1] + [2 * (k == i) for k in range(1, 6)] for i in range(1, 6)]
        D = _check_oracles(rows)
        assert _nonzero_diagonal(D) == 6
        assert helpers.minors_gcd(D, 6) == 48
        assert [rank_mod_p(sparse(rows), p) for p in (2, 3, 5)] == [2, 5, 6]
        assert sorted(diagonalize(sparse(rows))[2]) == [1, 2, 3, 4, 5]

    def test_partial_permutation(self):
        rows = [[0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 0, 0, 2]]
        D = _check_oracles(rows)
        assert [D[i][i] for i in range(3)] == [1, 1, 2]
        assert rank_mod_p(sparse(rows), 2) == 2

    @pytest.mark.parametrize("rows, width", [([], 3), ([[], [], []], None)])
    def test_no_rows_or_no_columns(self, rows, width):
        _check_oracles(rows, width)
        assert rank_mod_p(sparse(rows, width), 2) == 0


def _minors_gcd_literal(M, k):
    """gcd of every k x k minor of M (list of lists), one sympy determinant each."""
    m = len(M)
    n = len(M[0]) if m else 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = gcd(g, int(sympy.Matrix([[M[i][j] for j in cols] for i in rows]).det()))
    return g


class TestMinorsOracle:
    """``helpers.minors_gcd`` reads the minors gcd off sympy's invariant
    factors; held here to the literal loop over every k x k minor, for every
    k up to one past the smaller side, and ``integer_solvable_oracle`` to the
    criterion stated with the literal loop."""

    @staticmethod
    def _agree(M):
        for k in range(min(len(M), len(M[0])) + 2):
            assert helpers.minors_gcd(M, k) == _minors_gcd_literal(M, k), (M, k)

    def test_every_sign_matrix_up_to_2x3(self):
        """Every matrix with entries in {-1, 0, 1}, at most 2 rows and 3 columns."""
        for m, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
            for cells in product((-1, 0, 1), repeat=m * n):
                self._agree([list(cells[i * n:(i + 1) * n]) for i in range(m)])

    def test_seeded_random_integer_matrices_up_to_4x4(self):
        rng = random.Random(26)
        for _ in range(80):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = [[rng.randint(-6, 6) * (rng.random() < 0.7) for _ in range(n)]
                 for _ in range(m)]
            self._agree(M)
            b = [rng.randint(-6, 6) for _ in range(m)]
            augmented = [row + [v] for row, v in zip(M, b)]
            rank = sympy.Matrix(M).rank()
            literal = sympy.Matrix(augmented).rank() == rank and all(
                _minors_gcd_literal(M, k) == _minors_gcd_literal(augmented, k)
                for k in range(1, rank + 1))
            assert helpers.integer_solvable_oracle(M, b) == literal, (M, b)


def _row_dicts(M):
    """The dicts a SparseMatrix holds as rows, and any among its column sequences."""
    return len(M.rest) + sum(type(x) is dict for x in chain(M.at, M.values))


class TestMapMatrices:
    """Why the pivot rule costs nothing on the verifier's matrices: a map's
    images are a function, so its matrix holds at most one entry per column
    even when the map is broken, and its diagonalization needs column
    operations at most, never a row operation."""

    def test_well_formed_maps_hold_no_dict_per_row(self):
        """At every position of every sequence up to 6x6, counted in the
        returned matrices: each map's matrix is all isolated entries, its
        kernel holds each vector as an isolated 1 and no dict, and B A holds
        no entry and no dict."""
        for d in range(1, 7):
            for e in range(1, 7):
                seq = cyclic_sequence(d, e)
                matrices = {bm.which: bm.sparse() for bm in seq.maps()}
                for incoming, outgoing in [("iota", "kappa"), ("kappa", "bord"),
                                           ("bord", "iota")]:
                    A, B = matrices[incoming], matrices[outgoing]
                    assert _row_dicts(A) == _row_dicts(B) == 0, (d, e, incoming)
                    K = kernel_rows(diagonalize(B))
                    assert _row_dicts(K) == 0 and sum(K.values) == K.shape[0], (d, e)
                    P = multiply(B, A)
                    assert _row_dicts(P) == 0 and not any(P.values), (d, e, incoming)

    def test_broken_maps_need_no_row_operation(self):
        """Each map of every sequence up to 5x5, broken by sending each pair
        of its mapped sources to one target, and every distinct matrix held
        to the oracles."""
        merged, checked = 0, set()
        for d in range(1, 6):
            for e in range(1, 6):
                seq = cyclic_sequence(d, e)
                for which in MAP_NAMES:
                    bm = getattr(seq, which)
                    images = list(bm.images)
                    hit = [j for j, i in enumerate(images) if i is not None]
                    for a, b in zip(hit[::2], hit[1::2]):
                        images[b] = images[a]
                    A = replace(bm, images=tuple(images)).sparse()
                    columns = [j for _, j, _ in A.entries()]
                    assert len(columns) == len(set(columns)) == len(hit)
                    _, _, U, V = diagonalize(A)
                    assert U == {}, (d, e, which)
                    assert bool(V) == (len(hit) > 1), (d, e, which)
                    merged += len(hit) > 1
                    rows = A.dense()
                    key = tuple(map(tuple, rows))
                    if key not in checked:
                        checked.add(key)
                        _check_oracles(rows)
        assert (merged, len(checked)) == (36, 52)
