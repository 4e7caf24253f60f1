"""Rank tables, classification census, duality and induction certificates."""

import math
import re

import pytest

import helpers
from helpers import replace
from wittgrass import grassmann_witt
from wittgrass import (FramedDiagram, GeneratorClass, bord_vanishes, build_basis,
                       class_degree, classify, cyclic_sequence, degree,
                       duality_check, enumerate_even, expected_rank,
                       induction_report, rank_table, table_json,
                       total_witt_basis, verify_degree_transport,
                       verify_exactness)
from wittgrass.diagrams import transpose_rows


class TestRanks:
    def test_expected_rank_frozen(self):
        assert expected_rank(1, 1) == 2
        assert expected_rank(2, 2) == 4
        assert expected_rank(2, 3) == 4
        assert expected_rank(4, 4) == 12
        assert expected_rank(4, 5) == 12
        assert expected_rank(5, 5) == 12
        assert expected_rank(8, 8) == 140

    @pytest.mark.parametrize("frame", [(-1, 3), (-2, 4), (True, 2), (0, 0), (2.0, 2)])
    def test_expected_rank_rejects_what_build_basis_rejects(self, frame):
        for fn in (build_basis, expected_rank):
            with pytest.raises(ValueError, match="frame dimensions must be integers, "
                                                 "at least 0 and not both zero"):
                fn(*frame)

    def test_expected_rank_counts_every_basis(self):
        """Point frames included: their two point generators."""
        for d in range(9):
            for e in range(9):
                if (d, e) != (0, 0):
                    assert expected_rank(d, e) == len(build_basis(d, e)), (d, e)

    def test_basis_matches_expected_rank(self):
        for d in range(1, 7):
            for e in range(1, 7):
                assert len(total_witt_basis(d, e)) == expected_rank(d, e)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            total_witt_basis(0, 3)

    @pytest.mark.parametrize("frame", [(0, 3), (3, 0), (-1, 2), ("2", 2), (2.0, 2),
                                       (True, 3), (2, False)])
    def test_basis_rejects_point_and_non_int_frames(self, frame):
        """One message, enumerate_even's, for point frames and non-int
        dimensions alike."""
        with pytest.raises(ValueError, match="frame dimensions must be integers, at least 1"):
            total_witt_basis(*frame)

    def test_rank_table_frozen(self):
        assert rank_table(1, 1) == {(0, 0): 1, (1, 0): 1}
        assert rank_table(2, 2) == {(0, 0): 2, (2, 1): 2}
        assert rank_table(4, 4) == {(0, 0): 6, (0, 1): 6}
        assert rank_table(4, 5) == {(0, 0): 6, (0, 1): 6}
        assert rank_table(5, 5) == {(0, 0): 6, (1, 0): 6}

    def test_projective_space_matches_walter(self):
        """The 1 x e frame is P^e; Walter's projective-bundle theorem
        (Grothendieck-Witt groups of projective bundles, 2003) puts its two
        generators in W^0(P^e, O) and W^e(P^e, O(e+1))."""
        for e in range(1, 9):
            assert rank_table(1, e) == {(0, 0): 1, (e % 4, (e + 1) % 2): 1}

    def test_matches_sq2_cohomology(self):
        """Every frame up to 6 x 6 has, at each (shift, twist), the rank of
        Zibrowius's Sq² cohomology of the Schubert classes; with the two
        twists swapped the oracle disagrees, so it sees the twist grading."""
        swapped_disagree = 0
        for d in range(1, 7):
            for e in range(1, 7):
                table = rank_table(d, e)
                by_twist = [{s: r for (s, t), r in table.items() if t == twist}
                            for twist in (0, 1)]
                oracle = [helpers.sq2_rank_oracle(d, e, twist) for twist in (0, 1)]
                assert oracle == by_twist, (d, e)
                swapped_disagree += oracle[::-1] != by_twist
        assert swapped_disagree > 0

    def test_odd_frames_have_no_twist_one_diagram(self):
        """In an odd x odd frame every even diagram has first row plus
        nonzero-row count even, so the frame's ranks all sit at twist 0."""
        for d in range(1, 8, 2):
            for e in range(1, 8, 2):
                for rows in helpers.all_row_vectors(d, e):
                    if helpers.evenness_oracle(d, e, rows):
                        nonzero = sum(1 for r in rows if r)
                        assert (rows[0] + nonzero) % 2 == 0, (d, e, rows)

    def test_rank_table_with_base_support(self):
        assert rank_table(2, 2, trivial_base=False) == {
            (0, (), 0): 2, (2, (), 1): 1, (2, (4,), 1): 1}

    def test_table_json_shape(self):
        obj = table_json(2, 2)
        assert set(obj) == {"frame", "trivial_base", "ranks", "total"}
        assert obj["total"] == 4
        assert obj["ranks"][0] == {"shift": 0, "twist": 0, "rank": 2}
        obj = table_json(2, 2, trivial_base=False)
        assert all(set(row) == {"shift", "base", "twist", "rank"}
                   for row in obj["ranks"])
        assert sum(row["rank"] for row in obj["ranks"]) == obj["total"]


class TestClassification:
    def test_census_4x4(self):
        got = {dg.rows: classify(dg).value for dg in enumerate_even(4, 4)}
        assert got == {
            (4, 4, 4, 4): "Blocks", (4, 4, 2, 2): "Blocks",
            (4, 4, 0, 0): "Blocks", (2, 2, 2, 2): "Blocks",
            (2, 2, 0, 0): "Blocks", (0, 0, 0, 0): "Blocks",
            (4, 4, 4, 0): "RowPlusBlocks", (4, 2, 2, 0): "RowPlusBlocks",
            (4, 0, 0, 0): "RowPlusBlocks",
            (3, 3, 3, 3): "ColumnPlusBlocks", (3, 3, 1, 1): "ColumnPlusBlocks",
            (1, 1, 1, 1): "ColumnPlusBlocks",
        }

    def test_family_counts(self):
        def counts(d, e):
            out = {cls: 0 for cls in GeneratorClass}
            for dg in enumerate_even(d, e):
                out[classify(dg)] += 1
            return {cls.value: v for cls, v in out.items() if v}

        assert counts(5, 5) == {"Blocks": 6, "RowColumnPlusBlocks": 6}
        assert counts(4, 5) == {"Blocks": 6, "ColumnPlusBlocks": 6}
        assert counts(5, 4) == {"Blocks": 6, "RowPlusBlocks": 6}

    def test_blocks_count_is_binomial(self):
        for d in range(1, 8):
            for e in range(1, 8):
                blocks = sum(1 for dg in enumerate_even(d, e)
                             if classify(dg) is GeneratorClass.BLOCKS)
                assert blocks == math.comb(d // 2 + e // 2, e // 2)

    def test_degree_matches_family(self):
        for d in range(1, 7):
            for e in range(1, 7):
                for dg in enumerate_even(d, e):
                    deg = degree(d, e, dg.rows)
                    shift, twist = class_degree(classify(dg), d, e)
                    assert (deg.shift, deg.det_twist) == (shift, twist), dg.rows

    def test_parity_matches_the_four_strips(self):
        """On every even diagram up to 12x12, exactly one of the four trial
        strips leaves 2x2 blocks, and it is the family the parities give."""
        checked = 0
        for d in range(1, 13):
            for e in range(1, 13):
                for dg in enumerate_even(d, e):
                    assert helpers.strip_families(d, e, dg.rows) == [classify(dg).value], \
                        (d, e, dg.rows)
                    checked += 1
        assert checked == 15518

    def test_non_even_rejected(self):
        for d in range(1, 6):
            for e in range(1, 6):
                for rows in helpers.all_row_vectors(d, e):
                    dg = FramedDiagram(d, e, rows)
                    if dg.is_even():
                        classify(dg)
                    else:
                        with pytest.raises(ValueError):
                            classify(dg)


class TestBordVanishing:
    def test_parity_criterion(self):
        for d in range(1, 7):
            for e in range(1, 7):
                assert bord_vanishes(cyclic_sequence(d, e)) == (d % 2 == 0 and e % 2 == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bord_vanishes(cyclic_sequence(0, 2))

    def test_added_image_is_named(self):
        for d, e in [(2, 2), (4, 4)]:
            seq = cyclic_sequence(d, e)
            images = (None,) * (len(seq.bord.source) - 1) + (0,)
            label = seq.bord.source.labels()[-1]
            with pytest.raises(RuntimeError, match=re.escape(f"maps {label} to")):
                bord_vanishes(replace(seq, bord=replace(seq.bord, images=images)))

    def test_first_of_several_added_images_is_named(self):
        seq = cyclic_sequence(4, 4)
        images = (None,) * (len(seq.bord.source) - 3) + (0, None, 1)
        label = seq.bord.source.labels()[-3]
        with pytest.raises(RuntimeError, match=re.escape(f"maps {label} to")):
            bord_vanishes(replace(seq, bord=replace(seq.bord, images=images)))

    def test_removed_image_is_reported(self):
        for d, e in [(2, 3), (3, 2)]:
            seq = cyclic_sequence(d, e)
            assert len(seq.bord.images) - seq.bord.images.count(None) == 1
            images = (None,) * len(seq.bord.source)
            with pytest.raises(RuntimeError, match=r"at \(\d,\d\), but it maps all"):
                bord_vanishes(replace(seq, bord=replace(seq.bord, images=images)))


class TestDuality:
    def test_range(self):
        for d in range(1, 7):
            for e in range(1, 7):
                report = duality_check(d, e)
                assert report.ok, report.to_json()
                assert report.pairs_checked == expected_rank(d, e)

    def test_rejects_point_frames(self):
        for d, e in [(0, 3), (3, 0), (0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="duality needs d,e >= 1"):
                duality_check(d, e)

    def test_json_shape(self):
        obj = duality_check(3, 2).to_json()
        assert set(obj) == {"frame", "pairs_checked", "failures", "ok"}

    def test_broken_dual_names_the_diagram(self, monkeypatch):
        """A transpose that sends one diagram to another's mirror fails; it is
        the row-level transpose the check applies to each diagram's rows."""
        victim, other = enumerate_even(3, 4)[1:3]
        original = grassmann_witt.transpose_rows

        def transpose_rows(rows, e):
            return original(other.rows if rows == bytes(victim.rows) else rows, e)

        monkeypatch.setattr(grassmann_witt, "transpose_rows", transpose_rows)
        report = duality_check(3, 4)
        assert not report.ok
        assert (victim.rows, "not an involution") in report.failures

    def test_swapped_mirror_degree_names_the_diagrams(self, monkeypatch):
        """Two mirror elements with their degrees swapped fail, each named by
        the diagram whose mirror it is."""
        original = grassmann_witt.build_basis
        mirror = original(4, 3)
        degrees = list(mirror.degrees)
        j = next(j for j in range(1, len(degrees))
                 if (degrees[j].shift, degrees[j].det_twist)
                 != (degrees[0].shift, degrees[0].det_twist))
        a, b = mirror.keys[0], mirror.keys[j]
        degrees[0], degrees[j] = degrees[j], degrees[0]
        swapped = replace(mirror, degrees=tuple(degrees))
        monkeypatch.setattr(grassmann_witt, "build_basis",
                            lambda d, e: swapped if (d, e) == (4, 3) else original(d, e))
        report = duality_check(3, 4)
        assert sorted(report.failures) == sorted(
            [(transpose_rows(a, 3), "degree not preserved"),
             (transpose_rows(b, 3), "degree not preserved")])


def _certificate(d, e, primes=(2,)):
    seq = cyclic_sequence(d, e)
    return induction_report(seq, verify_exactness(seq, primes=primes),
                            verify_degree_transport(seq, trivial_base=False))


class TestInduction:
    def test_certificate_keys(self):
        cert = _certificate(2, 2)
        assert set(cert) == {"frame", "modules", "partition", "exactness",
                             "degree_transport", "bord_zero",
                             "split_short_exact", "rank_ledger", "ok"}

    def test_even_frame_splits(self):
        cert = _certificate(2, 2)
        assert cert["ok"] and cert["bord_zero"] and cert["split_short_exact"]
        assert cert["modules"] == {"source": 2, "middle": 4, "quotient": 2}
        assert cert["rank_ledger"]["additive"]

    def test_odd_frame_does_not_split_but_verifies(self):
        cert = _certificate(3, 3)
        assert cert["ok"]
        assert not cert["bord_zero"]
        assert not cert["split_short_exact"]
        assert cert["rank_ledger"]["additive"]

    def test_range(self):
        for d in range(1, 6):
            for e in range(1, 6):
                assert _certificate(d, e)["ok"], (d, e)

    def test_certificate_checks_p2_only(self):
        """The certificate is the same whichever primes beside 2 were checked."""
        for d in range(2, 7):
            for e in range(2, 7):
                assert _certificate(d, e, (2, 3, 5)) == _certificate(d, e), (d, e)
        seq = cyclic_sequence(3, 3)
        transport = verify_degree_transport(seq, trivial_base=False)
        for primes in ((), (3, 5)):
            with pytest.raises(ValueError, match="p = 2"):
                induction_report(seq, verify_exactness(seq, primes=primes), transport)
