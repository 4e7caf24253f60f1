"""Graded bases, the three maps, exactness and degree transport."""

from dataclasses import replace

import pytest

import helpers
from wittgrass import (FramedDiagram, GradedDegree, PicClassMod2,
                       PointGenerator, base_det2, build_basis, degree,
                       map_matrix, peel, shorten, verify_degree_transport,
                       verify_exactness, widen)
from wittgrass.witt_modules import _linear_position, _mod_p_position


class TestDegrees:
    def test_frozen(self):
        deg = degree(FramedDiagram(2, 2, (1, 1)))
        assert (deg.shift, deg.det_twist) == (2, 1)
        assert deg.base.is_zero()

        deg = degree(FramedDiagram.full(5, 5))
        assert (deg.shift, deg.det_twist) == (1, 0)
        assert deg.base == base_det2(10, 10)

        deg = degree(FramedDiagram.empty(3, 4))
        assert (deg.shift, deg.det_twist) == (0, 0)
        assert deg.base.is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            GradedDegree(4, PicClassMod2.zero(4), 0)
        with pytest.raises(ValueError):
            GradedDegree(0, PicClassMod2.zero(4), 2)
        with pytest.raises(ValueError):
            GradedDegree(0, PicClassMod2(4, (("TautDet", 2),)), 0)

    def test_json(self):
        deg = GradedDegree(3, base_det2(6, 6), 1)
        assert deg.to_json() == {"shift": 3, "base": [6], "twist": 1}


class TestBases:
    def test_point_frames_have_two_generators(self):
        for d, e in [(0, 3), (3, 0), (0, 1), (1, 0)]:
            basis = build_basis(d, e)
            assert basis.is_point_frame
            assert basis.labels() == ("pt0", "pt1")
            degs = [deg for _, deg in basis.elements]
            assert [dg.det_twist for dg in degs] == [0, 1]
            assert all(dg.shift == 0 and dg.base.is_zero() for dg in degs)

    def test_diagram_frame(self):
        basis = build_basis(2, 2)
        assert len(basis) == 4
        assert not basis.is_point_frame
        assert basis.labels()[0] == "(2, 2)"
        assert basis.index_of(FramedDiagram(2, 2, (1, 1))) == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_basis(0, 0)


class TestMapMatrices:
    def test_frozen_interior(self):
        bm = map_matrix("iota", 2, 2)
        assert (bm.source.d, bm.source.e) == (2, 1)
        assert (bm.target.d, bm.target.e) == (2, 2)
        assert bm.matrix == ((1, 0), (0, 0), (0, 1), (0, 0))

        assert map_matrix("bord", 2, 2).matrix == ((0, 0), (0, 0))

    def test_frozen_boundary(self):
        # single-row frames collapse to the point generators
        assert map_matrix("kappa", 1, 3).matrix == ((0, 1), (0, 0))
        bm = map_matrix("iota", 1, 1)
        assert bm.source.is_point_frame
        assert bm.matrix == ((0, 1), (0, 0))

    def test_matches_moves_on_interior_frames(self):
        moves = {"iota": widen, "kappa": shorten, "bord": peel}
        for d in range(2, 6):
            for e in range(2, 6):
                for which, move in moves.items():
                    bm = map_matrix(which, d, e)
                    for j, (src, _) in enumerate(bm.source.elements):
                        image = move(src)
                        col = [bm.matrix[i][j] for i in range(len(bm.target))]
                        if image is None:
                            assert not any(col)
                        else:
                            assert sum(col) == 1
                            assert bm.target.elements[col.index(1)][0] == image

    def test_json_shape(self):
        obj = map_matrix("kappa", 2, 2).to_json()
        assert set(obj) == {"which", "source_frame", "target_frame", "matrix"}
        assert obj["source_frame"] == [2, 2]
        assert obj["target_frame"] == [1, 2]

    def test_rejects_unknown_map(self):
        with pytest.raises(ValueError):
            map_matrix("sideways", 2, 2)


class TestExactness:
    def test_interior_frames(self):
        for d in range(1, 6):
            for e in range(1, 6):
                report = verify_exactness(d, e, primes=(2, 3, 5))
                assert report.ok, report.to_json()
                assert len(report.positions) == 3

    def test_composites_vanish(self):
        for d in range(1, 6):
            for e in range(1, 6):
                pairs = [("iota", "kappa"), ("kappa", "bord"), ("bord", "iota")]
                for first, second in pairs:
                    A = map_matrix(first, d, e).array()
                    B = map_matrix(second, d, e).array()
                    assert helpers.is_zero(helpers.mat_mul(B, A)), (first, second, d, e)

    def test_report_json_shape(self):
        obj = verify_exactness(2, 2, primes=(2,)).to_json()
        assert obj["exact"] is True
        assert obj["maps_well_formed"] is True
        pos = obj["positions"][0]
        assert set(pos) == {"frame", "incoming", "outgoing", "structural",
                            "linear", "mod_p", "witnesses"}
        assert pos["mod_p"] == {"2": True}


def _first_one(bm):
    return next((i, j) for i, row in enumerate(bm.matrix)
                for j, v in enumerate(row) if v)


def _with_entry(bm, i, j, value):
    rows = [list(row) for row in bm.matrix]
    rows[i][j] = value
    return replace(bm, matrix=tuple(tuple(row) for row in rows))


def _without_column(bm, j):
    return replace(bm, matrix=tuple(
        tuple(0 if k == j else v for k, v in enumerate(row)) for row in bm.matrix))


class TestCheckersDetectBrokenMaps:
    """The integer-linear and mod-p checkers reject maps one entry off."""

    POSITIONS = [("iota", "kappa"), ("kappa", "bord"), ("bord", "iota")]
    FRAMES = [(3, 3), (3, 4), (4, 3)]

    def _positions(self):
        for d, e in self.FRAMES:
            for first, second in self.POSITIONS:
                incoming, outgoing = map_matrix(first, d, e), map_matrix(second, d, e)
                if any(any(row) for row in incoming.matrix):
                    yield incoming, outgoing

    def test_intact_maps_pass(self):
        for incoming, outgoing in self._positions():
            assert _linear_position(incoming, outgoing)
            assert _mod_p_position(incoming, outgoing, 2)

    def test_entry_scaled_to_two(self):
        for incoming, outgoing in self._positions():
            i, j = _first_one(incoming)
            scaled = _with_entry(incoming, i, j, 2)
            assert _linear_position(scaled, outgoing) is False
            assert _mod_p_position(scaled, outgoing, 2) is False

    def test_dropped_image(self):
        for incoming, outgoing in self._positions():
            _, j = _first_one(incoming)
            assert _linear_position(_without_column(incoming, j), outgoing) is False
            _, j = _first_one(outgoing)
            assert _linear_position(incoming, _without_column(outgoing, j)) is False


class TestTransport:
    def test_interior_frames_both_modes(self):
        for d in range(2, 6):
            for e in range(2, 6):
                for trivial in (False, True):
                    report = verify_degree_transport(d, e, trivial_base=trivial)
                    assert report.ok, report.to_json()
                    assert report.checked > 0
                    assert report.point_entries_det_only == 0

    def test_boundary_frames_count_point_entries(self):
        for d, e in [(1, 1), (1, 3), (3, 1), (1, 4), (4, 1)]:
            report = verify_degree_transport(d, e)
            assert report.ok, report.to_json()
            assert report.point_entries_det_only > 0

    def test_json_shape(self):
        obj = verify_degree_transport(2, 2).to_json()
        assert set(obj) == {"frame", "trivial_base", "checked",
                            "point_entries_det_only", "failures", "ok"}
        assert obj["ok"] is True


class TestPointGenerator:
    def test_labels_and_validation(self):
        assert PointGenerator(0).label() == "pt0"
        assert PointGenerator(1).label() == "pt1"
        with pytest.raises(ValueError):
            PointGenerator(2)
