"""Line-bundle calculus: canonical classes, twists, admissibility, cells."""

import pytest
from hypothesis import given, settings

import helpers
from wittgrass import lattice, picard
from wittgrass import (FramedDiagram, JumpTuples, PicClass, PicClassMod2,
                       base_det, canonical_in_pullback_span,
                       cell_canonicals, cond_even_verdicts, enumerate_even,
                       les_twists,
                       pullback_to_flag, pushforward_admissible, quotient_det,
                       rel_canonical_fiber, rel_canonical_flag,
                       rel_canonical_grass, relative_dimension, taut_det,
                       taut_det2, twist_class, verify_cond_even)
from wittgrass.diagrams import row_jumps
from wittgrass.verify import verify_suites

B = "BaseDet"
T = "TautDet"


class TestPicClassAlgebra:
    def test_canonical_form_drops_zeros_and_sorts(self):
        cls = PicClass(4, ((T, 2, 0), (B, 4, 1), (B, 2, -1)))
        assert cls.terms == ((B, 2, -1), (B, 4, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            PicClass(4, (("Other", 1, 1),))
        with pytest.raises(ValueError):
            PicClass(4, ((B, 5, 1),))
        with pytest.raises(ValueError):
            PicClass(4, ((B, 2, 1), (B, 2, 1)))
        with pytest.raises(ValueError):
            base_det(4, 2) + base_det(5, 2)
        with pytest.raises(ValueError):
            PicClass(4, ((B, 2),))
        with pytest.raises(ValueError):
            PicClassMod2(4, ((B, 2, 0),))

    def test_rejects_bool_rank(self):
        with pytest.raises(ValueError):
            PicClass(True, ())

    def test_rejects_bool_coefficient(self):
        with pytest.raises(ValueError):
            PicClass(4, ((B, 2, True),))

    def test_arithmetic(self):
        a = base_det(4, 4)
        b = taut_det(4, 2)
        assert (a + b) - a == b
        assert (-a) + a == PicClass(4)
        assert 3 * a - a == 2 * a
        assert (2 * a).terms == ((B, 4, 2),)
        assert 0 * a == PicClass(4)

    def test_scalar_on_either_side(self):
        """A class is a tuple, but ``cls * k`` scales it, not repeats it."""
        a = PicClass(4, ((B, 2, 1), (T, 3, -2)))
        assert a * 2 == 2 * a == a + a
        assert (a * 3).terms == ((B, 2, 3), (T, 3, -6))
        with pytest.raises(TypeError):
            a * 1.5

    def test_mod2(self):
        cls = 2 * base_det(4, 4) + 3 * taut_det(4, 2) - base_det(4, 1)
        assert cls.mod2().support == ((B, 1), (T, 2))
        assert (cls + cls).mod2().is_zero()

    def test_mod2_symmetric_difference(self):
        x = PicClassMod2(4, ((B, 4),)) + taut_det2(4, 2)
        y = taut_det2(4, 2) + PicClassMod2(4, ((B, 3),))
        assert (x + y).support == ((B, 3), (B, 4))
        assert (x + x).is_zero()

    def test_quotient_det(self):
        assert quotient_det(4) == base_det(4, 4) - base_det(4, 3)
        with pytest.raises(ValueError):
            quotient_det(1)


class TestCanonicalClasses:
    def test_grass_frozen(self):
        assert rel_canonical_grass(2, 4) == -2 * base_det(4, 4) + 4 * taut_det(4, 2)
        with pytest.raises(ValueError):
            rel_canonical_grass(4, 4)

    def test_flag_frozen(self):
        cls = rel_canonical_flag(JumpTuples((1, 3), (1, 2)), 6)
        assert cls == (-1) * base_det(6, 2) - 2 * base_det(6, 5) + 4 * taut_det(6, 3)
        assert rel_canonical_flag(JumpTuples((3,), (0,)), 3).is_zero()

    def test_fiber_frozen(self):
        cls = rel_canonical_fiber(JumpTuples((2,), (1,)), 2, 2)
        assert cls == 2 * base_det(4, 4) - 2 * base_det(4, 3) - taut_det(4, 2)
        assert rel_canonical_fiber(JumpTuples((3,), (2,)), 3, 2).is_zero()
        full = rel_canonical_fiber(JumpTuples((3,), (0,)), 3, 2)
        assert full == 3 * base_det(5, 5) - 5 * base_det(5, 3)

    def test_fiber_requires_matching_rank(self):
        with pytest.raises(ValueError):
            rel_canonical_fiber(JumpTuples((2,), (1,)), 3, 2)

    def test_fiber_equals_flag_minus_grass_pullback(self):
        """Independent route: subtract the pulled-back Grassmann class."""
        for d in range(1, 6):
            for e in range(1, 6):
                n = d + e
                for rows in helpers.all_row_vectors(d, e):
                    t = FramedDiagram(d, e, rows).jump_tuples()
                    pb = (-d) * base_det(n, n) + n * taut_det(n, d)
                    if t.k == 1 and t.evec[0] == 0:
                        pb = pb - n * taut_det(n, d) + n * base_det(n, d)
                    lhs = rel_canonical_fiber(t, d, e)
                    assert lhs == rel_canonical_flag(t, n) - pb, rows

    def test_flag_and_fiber_match_counter_oracles(self):
        """Coefficientwise against the docstring formulas, every diagram up to 6x6."""
        for d in range(1, 7):
            for e in range(1, 7):
                for rows in helpers.all_row_vectors(d, e):
                    t = FramedDiagram(d, e, rows).jump_tuples()
                    fiber = helpers.canonical_fiber_oracle(t.dvec, t.evec, d, e)
                    assert rel_canonical_fiber(t, d, e).as_dict() == fiber, rows
                    flag = helpers.canonical_flag_oracle(t.dvec, t.evec, d + e)
                    assert rel_canonical_flag(t, d + e).as_dict() == flag, rows

    def test_fiber_mod2_route(self):
        for d in range(1, 5):
            for e in range(1, 5):
                n = d + e
                for rows in helpers.all_row_vectors(d, e):
                    t = FramedDiagram(d, e, rows).jump_tuples()
                    lhs = rel_canonical_fiber(t, d, e).mod2()
                    rhs = (rel_canonical_flag(t, n).mod2()
                           + pullback_to_flag(rel_canonical_grass(d, n).mod2(), t))
                    assert lhs == rhs, rows

    def test_relative_dimension_frozen(self):
        assert relative_dimension(JumpTuples((1, 3), (1, 2))) == 5

    @given(helpers.framed_diagrams())
    def test_area_plus_fiber_dimension_fills_frame(self, dg):
        assert dg.area() + relative_dimension(dg.jump_tuples()) == dg.d * dg.e


class TestPullback:
    def test_fixes_base_and_matches_last_jump(self):
        t = JumpTuples((1, 3), (1, 2))
        cls = PicClassMod2(6, ((B, 6),)) + taut_det2(6, 3)
        assert pullback_to_flag(cls, t) == cls

    def test_rejects_other_taut_indices(self):
        with pytest.raises(ValueError):
            pullback_to_flag(taut_det2(6, 2), JumpTuples((1, 3), (1, 2)))

    def test_normalizes_colength_zero(self):
        t = JumpTuples((3,), (0,))
        assert pullback_to_flag(taut_det2(5, 3), t) == PicClassMod2(5, ((B, 3),))


class TestTwist:
    def test_frozen(self):
        assert twist_class(FramedDiagram(2, 2, (1, 1))) == taut_det2(4, 2)
        assert twist_class(FramedDiagram(2, 2, (2, 0))) == (
            PicClassMod2(4, ((B, 4),)) + taut_det2(4, 2))
        assert twist_class(FramedDiagram(3, 3, (0, 0, 0))).is_zero()

    def test_cancellation_for_all_even_diagrams(self):
        for d in range(1, 6):
            for e in range(1, 6):
                for dg in enumerate_even(d, e):
                    assert verify_cond_even(dg), dg.rows

    def test_rejects_non_even(self):
        with pytest.raises(ValueError):
            verify_cond_even(FramedDiagram(2, 2, (2, 1)))

    def test_suite_reports_a_broken_canonical(self, monkeypatch):
        """A stray TautDet(d_1) in one diagram's canonical fails exactly that diagram."""
        broken = FramedDiagram(3, 4, (4, 2, 2))
        jumps = row_jumps(broken.rows, broken.e)
        assert broken.is_even() and jumps[0][0] != jumps[0][-1]
        original = picard._masks

        def stray_term(d, e, rows):
            fiber, twist, admissible = original(d, e, rows)
            if (d, e, tuple(rows)) == broken:
                fiber ^= 1 << (d + e + jumps[0][0])  # TautDet(d_1)
            return fiber, twist, admissible

        monkeypatch.setattr(picard, "_masks", stray_term)
        assert not verify_cond_even(broken)
        assert all(verify_cond_even(dg) for dg in enumerate_even(3, 4) if dg != broken)
        suite = verify_suites("cond-even", 4)["cond-even"]
        witness = {"frame": [3, 4], "rows": [4, 2, 2]}
        assert suite["failures"] == [witness, {**witness, "reason": "admissibility"}]
        assert not suite["ok"]

    def test_suite_reports_a_broken_admissibility_parity(self, monkeypatch):
        """A parity check that fails one diagram fails exactly that diagram's
        admissibility, and no cancellation."""
        broken = FramedDiagram(3, 4, (4, 2, 2))
        original, masks = picard._admissible, picard._masks
        jumps = row_jumps(broken.rows, broken.e)

        def fails_broken(e, dvec, evec):
            return (e, dvec, evec) != (broken.e, *jumps) and original(e, dvec, evec)

        def masks_failing_broken(d, e, rows):  # the same fault in the one-pass parity
            fiber, twist, admissible = masks(d, e, rows)
            return fiber, twist, admissible and (d, e, tuple(rows)) != broken

        monkeypatch.setattr(picard, "_admissible", fails_broken)
        monkeypatch.setattr(picard, "_masks", masks_failing_broken)
        assert not pushforward_admissible(broken)
        assert verify_cond_even(broken) and canonical_in_pullback_span(broken)
        suite = verify_suites("cond-even", 4)["cond-even"]
        assert suite["failures"] == [
            {"frame": [3, 4], "rows": [4, 2, 2], "reason": "admissibility"}]


class TestCondEvenVerdicts:
    """One jump encoding and one fiber mask give all three verdicts."""

    def test_equal_to_the_three_checks(self):
        for d in range(1, 9):
            for e in range(1, 9):
                for dg in enumerate_even(d, e):
                    assert cond_even_verdicts(dg) == (
                        verify_cond_even(dg), pushforward_admissible(dg),
                        canonical_in_pullback_span(dg)), dg.rows

    def test_equal_to_the_three_checks_on_a_broken_canonical(self, monkeypatch):
        broken = FramedDiagram(3, 4, (4, 2, 2))
        jumps = row_jumps(broken.rows, broken.e)
        original = picard._masks

        def stray_term(d, e, rows):
            fiber, twist, admissible = original(d, e, rows)
            stray = 1 << (d + e + jumps[0][0])  # TautDet(d_1)
            return (fiber ^ stray if (d, e, rows) == broken else fiber), twist, admissible

        monkeypatch.setattr(picard, "_masks", stray_term)
        assert cond_even_verdicts(broken) == (False, True, False) == (
            verify_cond_even(broken), pushforward_admissible(broken),
            canonical_in_pullback_span(broken))

    def test_rejects_non_even(self):
        with pytest.raises(ValueError, match="expects an even diagram"):
            cond_even_verdicts(FramedDiagram(2, 2, (2, 1)))

    def test_admissibility_reads_no_canonical(self, monkeypatch):
        def unread(*args):
            raise AssertionError("the fiber mask was computed")

        monkeypatch.setattr(picard, "_masks", unread)
        assert pushforward_admissible(FramedDiagram(3, 3, (2, 1, 1)))
        assert all(pushforward_admissible(dg) for dg in enumerate_even(4, 5))


def _support(mask, n):
    """Generators of a mask: bit i is BaseDet(i), bit n + j is TautDet(j)."""
    return {(B, i) if i <= n else (T, i - n) for i in range(mask.bit_length())
            if mask >> i & 1}


def _row_vectors_up_to_8x8():
    for d in range(1, 9):
        for e in range(1, 9):
            for rows in helpers.all_row_vectors(d, e):
                yield FramedDiagram(d, e, rows)


class TestMasks:
    """The two masks the verdicts read, held to the coefficient oracle and to
    the PicClass route on every row vector up to 8x8, even or not; the
    admissibility read in the same pass, to the one read off the jumps."""

    def test_match_the_coefficient_oracle(self):
        count = 0
        for dg in _row_vectors_up_to_8x8():
            d, e, n = dg.d, dg.e, dg.d + dg.e
            dvec, evec = row_jumps(dg.rows, dg.e)
            fiber_mask, twist_mask, admissible = picard._masks(d, e, dg.rows)
            assert admissible == picard._admissible(e, dvec, evec), dg.rows
            fiber = helpers.canonical_fiber_oracle(dvec, evec, d, e)
            assert _support(fiber_mask, n) == {
                key for key, c in fiber.items() if c % 2}, dg.rows
            twist = helpers._normalized({(B, n): dg.rho(), (T, d): dg.twist()}, dvec, evec)
            assert _support(twist_mask, n) == {
                key for key, c in twist.items() if c % 2}, dg.rows
            count += 1
        assert count == 48602

    def test_match_the_picard_class_route(self):
        for dg in _row_vectors_up_to_8x8():
            d, e, n = dg.d, dg.e, dg.d + dg.e
            t = dg.jump_tuples()
            fiber_mask, twist_mask, _ = picard._masks(d, e, dg.rows)
            assert _support(fiber_mask, n) == set(
                rel_canonical_fiber(t, d, e).mod2().support), dg.rows
            assert _support(twist_mask, n) == set(
                pullback_to_flag(twist_class(dg), t).support), dg.rows

    def test_verdicts_build_no_picard_class(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a Picard class was built")

        monkeypatch.setattr(lattice, "_validated_terms", unbuilt)
        with pytest.raises(AssertionError, match="was built"):
            twist_class(FramedDiagram(2, 2, (1, 1)))
        for dg in enumerate_even(5, 6):
            assert cond_even_verdicts(dg) == (True, True, True), dg.rows
            assert verify_cond_even(dg) and canonical_in_pullback_span(dg)
        assert verify_suites("cond-even", 6)["cond-even"]["ok"]


class TestAdmissibility:
    def test_witnesses(self):
        loose = FramedDiagram(3, 3, (2, 1, 1))
        assert not loose.is_even()
        assert pushforward_admissible(loose)
        assert not pushforward_admissible(FramedDiagram(3, 3, (2, 2, 1)))

    def test_even_diagrams_are_admissible(self):
        for d in range(1, 6):
            for e in range(1, 6):
                for dg in enumerate_even(d, e):
                    assert pushforward_admissible(dg), dg.rows

    def test_equivalent_to_span_membership(self):
        for d in range(1, 6):
            for e in range(1, 6):
                for rows in helpers.all_row_vectors(d, e):
                    dg = FramedDiagram(d, e, rows)
                    assert (pushforward_admissible(dg)
                            == canonical_in_pullback_span(dg)), rows


class TestCells:
    def test_frozen_d2_n4(self):
        cc = cell_canonicals(2, 4)
        vv1 = quotient_det(4)
        assert cc.sub_grassmannian == -taut_det(4, 2) + 2 * vv1
        assert cc.exceptional_divisor == vv1 + taut_det(4, 1) - taut_det(4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            cell_canonicals(1, 4)
        with pytest.raises(ValueError):
            cell_canonicals(3, 4)


class TestLesTwists:
    def test_frozen(self):
        sub, comp = les_twists(2, 2, PicClassMod2.zero(4))
        assert sub == taut_det2(4, 2)
        assert comp.is_zero()

        sub, comp = les_twists(3, 2, taut_det2(5, 3))
        vv1 = quotient_det(5).mod2()
        assert sub == vv1
        assert comp == taut_det2(5, 2) + vv1

    def test_base_generators_ride_along(self):
        ell = PicClassMod2(5, ((B, 1),))
        sub, comp = les_twists(2, 3, ell)
        assert sub == ell + taut_det2(5, 2)
        assert comp == ell

    def test_frozen_d1(self):
        """At d = 1 TautDet(0) is trivial: the complementary side keeps only
        the quotient det."""
        vv1 = quotient_det(4).mod2()
        sub, comp = les_twists(1, 3, PicClassMod2.zero(4))
        assert sub == taut_det2(4, 1) + vv1
        assert comp.is_zero()

        sub, comp = les_twists(1, 3, taut_det2(4, 1))
        assert sub == vv1
        assert comp == vv1

    def test_validation(self):
        with pytest.raises(ValueError):
            les_twists(2, 2, PicClassMod2.zero(5))
        with pytest.raises(ValueError):
            les_twists(2, 2, taut_det2(4, 1))
        with pytest.raises(ValueError):
            les_twists(0, 4, PicClassMod2.zero(4))

    def test_sub_side_is_the_sub_grassmannian_canonical(self):
        """The localization lemma's sub side adds exactly the relative
        canonical class of the sub-Grassmannian from the blow-up square."""
        for d in range(2, 11):
            for e in range(2, 11):
                n = d + e
                for twist in (PicClassMod2.zero(n), taut_det2(n, d),
                              PicClassMod2(n, ((B, n),)) + PicClassMod2(n, ((B, 1),))
                              + taut_det2(n, d)):
                    sub, _ = les_twists(d, e, twist)
                    assert sub == twist + cell_canonicals(d, n).sub_grassmannian.mod2()

    def test_complementary_side_is_the_exceptional_divisor_canonical(self):
        """The complementary side adds the relative canonical class of the
        exceptional divisor exactly when the twist carries TautDet(d), and
        leaves every other twist as it is."""
        for d in range(2, 11):
            for e in range(2, 11):
                n = d + e
                exc = cell_canonicals(d, n).exceptional_divisor.mod2()
                for twist in (PicClassMod2.zero(n), taut_det2(n, d),
                              PicClassMod2(n, ((B, n),)),
                              PicClassMod2(n, ((B, 1),)) + taut_det2(n, d),
                              PicClassMod2(n, ((B, n),)) + PicClassMod2(n, ((B, d),))
                              + taut_det2(n, d),
                              PicClassMod2(n, ((B, n - 1),)) + PicClassMod2(n, ((B, 2),))):
                    _, comp = les_twists(d, e, twist)
                    if twist.has(T, d):
                        assert comp == twist + exc, (d, e, twist)
                    else:
                        assert comp == twist, (d, e, twist)

    @settings(max_examples=50)
    @given(helpers.even_diagrams())
    def test_involutive_on_sub_side(self, dg):
        """Applying the sub-side shift twice returns the original twist."""
        tw = twist_class(dg)
        once, _ = les_twists(dg.d, dg.e, tw)
        twice, _ = les_twists(dg.d, dg.e, once)
        assert twice == tw
