"""Diagram combinatorics: frames, jump tuples, evenness, transposition, and
the three moves as the cyclic sequence's maps, against the cell oracle."""

import itertools

import pytest
from hypothesis import given, settings

import helpers
from wittgrass import (FramedDiagram, JumpTuples, build_basis, cyclic_sequence,
                       enumerate_even, expected_rank, from_jump_tuples)
from wittgrass.diagrams import EvenTails, even_pattern, even_rows, transpose_rows


class TestValidation:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            FramedDiagram(2, 3, (1, 2))

    def test_rejects_row_longer_than_frame(self):
        with pytest.raises(ValueError):
            FramedDiagram(2, 3, (4, 0))

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            FramedDiagram(2, 3, (1, -1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FramedDiagram(3, 3, (1, 1))

    def test_rejects_bool_rows(self):
        with pytest.raises(ValueError):
            FramedDiagram(2, 2, (True, False))

    def test_rejects_float_frame(self):
        with pytest.raises(ValueError):
            FramedDiagram(2.0, 2, (1, 1))

    def test_accepts_exactly_decreasing_int_rows_in_frame(self):
        """Brute force over {-1, ..., e+1}^d for d, e <= 3."""
        for d in range(1, 4):
            for e in range(1, 4):
                for rows in itertools.product(range(-1, e + 2), repeat=d):
                    valid = (all(0 <= r <= e for r in rows)
                             and all(a >= b for a, b in zip(rows, rows[1:])))
                    try:
                        FramedDiagram(d, e, rows)
                    except ValueError:
                        assert not valid, rows
                    else:
                        assert valid, rows
                    if not valid:
                        continue
                    for i, r in enumerate(rows):  # the same value with the wrong type
                        for bad in [float(r)] + ([bool(r)] if r in (0, 1) else []):
                            with pytest.raises(ValueError):
                                FramedDiagram(d, e, rows[:i] + (bad,) + rows[i + 1:])

    def test_trailing_zero_rows_are_explicit(self):
        dg = FramedDiagram(3, 2, (2, 0, 0))
        assert dg.rows == (2, 0, 0)
        assert dg != FramedDiagram(2, 2, (2, 0))


class TestInvariants:
    def test_frozen_statistics(self):
        dg = FramedDiagram(2, 2, (2, 0))
        assert (dg.area(), dg.rho(), dg.zeta(), dg.twist()) == (2, 1, 1, 1)
        dg = FramedDiagram(2, 2, (1, 1))
        assert (dg.area(), dg.rho(), dg.zeta(), dg.twist()) == (2, 2, 0, 1)
        dg = FramedDiagram(5, 5, (5,) * 5)
        assert (dg.area(), dg.rho(), dg.twist()) == (25, 5, 0)
        assert FramedDiagram(4, 7, (0,) * 4).twist() == 0

    @given(helpers.framed_diagrams())
    def test_twist_is_first_row_plus_support(self, dg):
        assert dg.twist() == (dg.rows[0] + dg.rho()) % 2

    @given(helpers.even_diagrams())
    def test_even_halfperimeter_parity(self, dg):
        """Each block with partial co-length sees the same twist parity."""
        t = dg.jump_tuples()
        for di, ei in zip(t.dvec, t.evec):
            if ei < dg.e:
                assert (di + dg.e - ei) % 2 == dg.twist()


class TestJumpTuples:
    def test_frozen_tuples(self):
        assert FramedDiagram(2, 2, (2, 0)).jump_tuples() == JumpTuples((1, 2), (0, 2))
        assert FramedDiagram(2, 2, (1, 1)).jump_tuples() == JumpTuples((2,), (1,))
        assert FramedDiagram(3, 2, (0, 0, 0)).jump_tuples() == JumpTuples((3,), (2,))
        assert FramedDiagram(3, 2, (2, 2, 2)).jump_tuples() == JumpTuples((3,), (0,))

    def test_tuple_validation(self):
        for dvec, evec in [((0, 2), (0, 1)), ((1, 2), (-1, 1))]:
            with pytest.raises(ValueError, match=r"^need dvec\[0\] >= 1 and evec\[0\] >= 0$"):
                JumpTuples(dvec, evec)
        with pytest.raises(ValueError):
            JumpTuples((2, 1), (0, 1))
        with pytest.raises(ValueError):
            JumpTuples((1, 2), (1, 1))
        with pytest.raises(ValueError):
            JumpTuples((1, 2), (0,))

    def test_rejects_bool_entries(self):
        with pytest.raises(ValueError):
            JumpTuples((True,), (0,))

    @given(helpers.framed_diagrams())
    def test_roundtrip(self, dg):
        assert from_jump_tuples(dg.jump_tuples(), dg.d, dg.e) == dg

    def test_from_tuples_rejects_mismatched_frame(self):
        with pytest.raises(ValueError):
            from_jump_tuples(JumpTuples((2,), (0,)), 3, 2)
        with pytest.raises(ValueError):
            from_jump_tuples(JumpTuples((2,), (3,)), 2, 2)


class TestEvenness:
    @given(helpers.framed_diagrams(max_d=7, max_e=7))
    def test_matches_boundary_walk_oracle(self, dg):
        assert dg.is_even() == helpers.evenness_oracle(dg.d, dg.e, dg.rows)

    def test_matches_oracle_on_every_row_vector(self):
        """Even and non-even alike, on every frame up to 7x7."""
        for d in range(1, 8):
            for e in range(1, 8):
                for rows in helpers.all_row_vectors(d, e):
                    assert FramedDiagram(d, e, rows).is_even() == \
                        helpers.evenness_oracle(d, e, rows), (d, e, rows)

    def test_frame_sensitivity(self):
        assert FramedDiagram(2, 2, (1, 1)).is_even()
        assert not FramedDiagram(3, 3, (1, 1, 0)).is_even()

    def test_full_and_empty_always_even(self):
        for d in range(1, 6):
            for e in range(1, 6):
                assert FramedDiagram(d, e, (0,) * d).is_even()
                assert FramedDiagram(d, e, (e,) * d).is_even()


class TestEvenPattern:
    def test_matches_the_oracle(self):
        """On every weakly decreasing vector up to 8x8, the pattern of its width
        matches in full exactly the even ones; it refuses every vector up to
        5x5 that is not weakly decreasing."""
        decreasing = other = 0
        for d in range(1, 9):
            for e in range(1, 9):
                pattern = even_pattern(e)
                for rows in helpers.all_row_vectors(d, e):
                    assert (pattern.fullmatch(bytes(rows)) is not None) == \
                        helpers.evenness_oracle(d, e, rows), (d, e, rows)
                    decreasing += 1
                if d < 6 and e < 6:
                    for rows in itertools.product(range(e + 1), repeat=d):
                        if list(rows) != sorted(rows, reverse=True):
                            assert pattern.fullmatch(bytes(rows)) is None, (d, e, rows)
                            other += 1
        assert (decreasing, other) == (48602, 14112)


class TestEnumeration:
    def test_frozen_orders(self):
        assert [dg.rows for dg in enumerate_even(2, 2)] == [
            (2, 2), (2, 0), (1, 1), (0, 0)]
        assert [dg.rows for dg in enumerate_even(2, 3)] == [
            (3, 3), (2, 2), (1, 1), (0, 0)]
        assert [dg.rows for dg in enumerate_even(3, 2)] == [
            (2, 2, 2), (2, 2, 0), (2, 0, 0), (0, 0, 0)]

    def test_matches_bruteforce_filter(self):
        for d in range(1, 8):
            for e in range(1, 8):
                expected = sorted(
                    (rows for rows in helpers.all_row_vectors(d, e)
                     if helpers.evenness_oracle(d, e, rows)),
                    reverse=True)
                assert [dg.rows for dg in enumerate_even(d, e)] == expected

    def test_one_tails_object_serves_the_whole_sweep(self):
        """Frames built one after another on one EvenTails, row by row as a
        verify run builds them or column by column, equal the oracle up to
        7x7 and a fresh enumeration up to 14x14; a wider frame is refused."""
        frames = [(d, e) for d in range(1, 15) for e in range(1, 15)]
        for order in (frames, sorted(frames, key=lambda frame: frame[::-1])):
            tails = EvenTails(14)
            for d, e in order:
                shared = even_rows(d, e, tails)
                assert shared == even_rows(d, e), (d, e)
                if d < 8 and e < 8:
                    assert list(shared) == sorted(
                        (bytes(rows) for rows in helpers.all_row_vectors(d, e)
                         if helpers.evenness_oracle(d, e, rows)),
                        reverse=True), (d, e)
        with pytest.raises(ValueError, match="^tails of width 14 are too narrow for width 15$"):
            even_rows(3, 15, tails)

    def test_pair_blocks_are_shared_across_widths(self):
        """Each key (v, v) + t of a pair block is one tuple in every frame of
        its row that one EvenTails builds: (d, e) and (d, e + 1) hold the same."""
        tails, shared = EvenTails(9), 0
        for d in range(2, 10):
            for e in range(2, 9):
                narrow, wide = even_rows(d, e, tails), even_rows(d, e + 1, tails)
                held = {rows: rows for rows in wide}
                pairs = [rows for rows in narrow if 0 < rows[0] < e]
                assert all(held[rows] is rows for rows in pairs), (d, e)
                shared += len(pairs)
        assert shared  # not vacuous

    def test_frames_of_255_columns_at_most(self):
        """A row is one byte: the widest frame enumerates, one column more is a
        ValueError naming the bound; a tall frame has no bound."""
        assert even_rows(1, 255) == (b"\xff", b"\x00")
        keys = even_rows(3, 255)
        assert len(keys) == expected_rank(3, 255)
        assert keys[:2] == (b"\xff" * 3, b"\xff\xfd\xfd")
        bound = "^a key has a byte per row: at most 255 columns, not 256$"
        for d in (1, 3):
            for build in (even_rows, build_basis):
                with pytest.raises(ValueError, match=bound):
                    build(d, 256)
        assert len(even_rows(300, 2)) == expected_rank(300, 2)

    def test_rule_count_is_the_closed_form(self):
        """The parity-and-pairs count, by binomials, is 2 * C(d//2 + e//2, e//2)
        on every frame up to 22x22, far beyond what brute force reaches."""
        for d in range(1, 23):
            for e in range(1, 23):
                assert helpers.even_count_by_rule(d, e) == expected_rank(d, e), (d, e)

    def test_rejects_non_int_frame(self):
        for d, e in [(2.0, 2), (2, 2.0), (True, 2), (2, True)]:
            with pytest.raises(ValueError, match="frame dimensions must be integers"):
                enumerate_even(d, e)


class TestDuality:
    def test_frozen(self):
        assert transpose_rows((2, 0), 2) == (1, 1)
        assert transpose_rows((2, 2, 0), 2) == (2, 2)

    @given(helpers.framed_diagrams())
    def test_involution_and_invariants(self, dg):
        mirror = FramedDiagram(dg.e, dg.d, transpose_rows(dg.rows, dg.e))
        assert mirror.rows == tuple(sum(1 for r in dg.rows if r >= c)
                                    for c in range(1, dg.e + 1))  # column heights
        assert transpose_rows(mirror.rows, dg.d) == dg.rows
        assert mirror.area() == dg.area()
        assert mirror.is_even() == dg.is_even()


def _images(which, d, e):
    """(source diagram, its image or None) under one map of the (d,e) sequence."""
    bm = getattr(cyclic_sequence(d, e), which)
    return [(bm.source.element(j), None if i is None else bm.target.element(i))
            for j, i in enumerate(bm.images)]


def _check_map(which, frames, defined):
    """Each image is defined exactly when ``defined`` holds of its source, is
    the cell oracle's image, and is even."""
    for d, e in frames:
        for src, image in _images(which, d, e):
            assert (image is not None) == defined(src), (which, d, e, src.rows)
            assert image == helpers.map_oracle(which, d, e, src.rows)
            assert image is None or image.is_even()


class TestMoves:
    def test_widen_defined_iff_zeta_even(self):
        _check_map("iota", itertools.product(range(1, 6), range(2, 6)),
                   lambda src: src.zeta() % 2 == 0)

    def test_shorten_defined_iff_last_row_empty(self):
        _check_map("kappa", itertools.product(range(2, 6), range(1, 6)),
                   lambda src: src.rows[-1] == 0)

    def test_peel_defined_iff_last_row_odd(self):
        peeled = FramedDiagram(3, 2, (2, 2, 0))
        assert dict(_images("bord", 3, 3))[FramedDiagram(2, 3, (3, 3))] == peeled
        assert helpers.map_oracle("bord", 3, 3, (3, 3)) == peeled
        _check_map("bord", itertools.product(range(2, 6), range(2, 6)),
                   lambda src: src.rows[-1] % 2 == 1)

    def test_consecutive_moves_compose_to_zero(self):
        for d in range(2, 6):
            for e in range(2, 6):
                iota, kappa, bord = cyclic_sequence(d, e).maps()
                for first, then in ((iota, kappa), (kappa, bord), (bord, iota)):
                    assert all(then.images[i] is None
                               for i in first.images if i is not None)
