"""Graded bases, the three maps, exactness and degree transport."""

import re
from collections import Counter
from itertools import combinations

import pytest

import helpers
from helpers import replace
from mod2_route import BASE, TAUT, PicClassMod2, les_twists, mod2, taut_det2
from wittgrass import (FramedDiagram, GradedDegree, JumpTuples, build_basis,
                       cyclic_sequence, degree, duality_check, expected_rank,
                       induction_report, intmatrix, map_matrix,
                       verify_degree_transport, verify_exactness)
from wittgrass.diagrams import EvenTails, even_counts, even_rank
from wittgrass.intmatrix import (SparseMatrix, diagonalize, kernel_rows, multiply,
                                 rank_mod_p, span_solver)
from wittgrass.lattice import quotient_det
from wittgrass.verify import verify_suites
from wittgrass.witt_modules import (MAP_NAMES, BasisMap, TransportFailure, _image_rule,
                                    _les_target, _linear_position, _mod_p_position,
                                    _structural_position)


class TestDegrees:
    def test_frozen(self):
        deg = degree(2, 2, (1, 1))
        assert (deg.shift, deg.det_twist) == (2, 1)
        assert deg.base == ()

        deg = degree(5, 5, (5,) * 5)
        assert (deg.shift, deg.det_twist) == (1, 0)
        assert deg.base == (10,)

        deg = degree(3, 4, (0, 0, 0))
        assert (deg.shift, deg.det_twist) == (0, 0)
        assert deg.base == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            GradedDegree(4, (), 0)
        with pytest.raises(ValueError):
            GradedDegree(0, (), 2)
        for shift, twist in ((1.5, 0), (1.0, 0), (True, 0), (0, True), (0, 1.0), (0, "1")):
            with pytest.raises(ValueError):
                GradedDegree(shift, (), twist)
        for base in ((0,), (3, 2), (2, 2), [4], (True,), (("TautDet", 2),)):
            with pytest.raises(ValueError):
                GradedDegree(0, base, 0)
        assert GradedDegree(0, (1, 4), 0).base == (1, 4)

    def test_json(self):
        deg = GradedDegree(3, (6,), 1)
        assert deg.to_json() == {"shift": 3, "base": [6], "twist": 1}


class TestBases:
    def test_point_frames_have_two_generators(self):
        """A point frame's keys are the ints 0 and 1, each its own rank and det twist."""
        for d, e in [(0, 3), (3, 0), (0, 1), (1, 0)]:
            basis = build_basis(d, e)
            assert basis.keys == (0, 1) and all(type(key) is int for key in basis.keys)
            assert basis.labels() == ("pt0", "pt1")
            degs = basis.degrees
            assert [dg.det_twist for dg in degs] == [0, 1]
            assert all(dg.shift == 0 and dg.base == () for dg in degs)
            assert [basis.element(i) for i in range(2)] == [0, 1]

    def test_diagram_frame(self):
        basis = build_basis(2, 2)
        assert len(basis) == 4
        assert all(type(key) is bytes for key in basis.keys)
        assert basis.labels()[0] == "(2, 2)"
        assert basis.rank((1, 1)) == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_basis(0, 0)

    def test_rejects_non_int_frame(self):
        for d, e in [(2.0, 0), (0, True), (2.0, 2), (True, 3)]:
            with pytest.raises(ValueError, match="frame dimensions must be integers"):
                build_basis(d, e)

    def test_tails_of_the_frames_width_build_its_basis(self):
        """Tails as wide as the frame build its basis at any height: a basis is
        checked against its frame alone, not a table the tails made."""
        shared, own = build_basis(5, 3, EvenTails(3)), build_basis(5, 3)
        assert (shared.keys, shared.degrees) == (own.keys, own.degrees)

    def test_equal_degrees_are_one_value(self):
        """A frame's elements share one GradedDegree per distinct degree, of
        which there are at most 16, and no element carries an instance dict."""
        for d, e in [(3, 3), (5, 6), (8, 8)]:
            basis = build_basis(d, e)
            degrees = basis.degrees
            assert len({id(deg) for deg in degrees}) == len(set(degrees)) <= 16
            assert not any(hasattr(value, "__dict__") for value in basis.keys + degrees)


class TestMapMatrices:
    def test_frozen_interior(self):
        bm = map_matrix("iota", 2, 2)
        assert (bm.source.d, bm.source.e) == (2, 1)
        assert (bm.target.d, bm.target.e) == (2, 2)
        assert bm.array() == [[1, 0], [0, 0], [0, 1], [0, 0]]

        assert map_matrix("bord", 2, 2).array() == [[0, 0], [0, 0]]

    def test_frozen_boundary(self):
        # single-row frames collapse to the point generators
        assert map_matrix("kappa", 1, 3).array() == [[0, 1], [0, 0]]
        bm = map_matrix("iota", 1, 1)
        assert bm.source.labels() == ("pt0", "pt1")
        assert bm.array() == [[0, 1], [0, 0]]

    def test_matches_moves_on_interior_frames(self):
        """Each map's images and matrix columns are the cell oracle's images."""
        for d in range(2, 6):
            for e in range(2, 6):
                for bm in cyclic_sequence(d, e).maps():
                    matrix = bm.array()
                    for j, (src, i) in enumerate(zip(bm.source.keys, bm.images)):
                        image = helpers.map_oracle(bm.which, d, e, src)
                        col = [row[j] for row in matrix]
                        if image is None:
                            assert i is None and not any(col)
                        else:
                            assert bm.target.element(i) == image
                            assert col == [int(k == i) for k in range(len(bm.target))]

    def test_json_shape(self):
        obj = map_matrix("kappa", 2, 2).to_json()
        assert set(obj) == {"which", "source_frame", "target_frame", "matrix"}
        assert obj["source_frame"] == [2, 2]
        assert obj["target_frame"] == [1, 2]

    def test_rejects_unknown_map(self):
        with pytest.raises(ValueError):
            map_matrix("sideways", 2, 2)

    @pytest.mark.parametrize("anchor", [(3, 4), (3, 3), (4, 3)],
                             ids=["left", "middle", "right"])
    def test_non_even_source_is_named(self, anchor):
        """A basis holding a diagram that is not even fails the sequence that
        reads it, at each of the three positions it can take."""
        crooked = FramedDiagram(3, 3, (2, 1, 0))
        assert not crooked.is_even()
        intact = build_basis(3, 3)
        broken = replace(intact, keys=(bytes(crooked.rows), *intact.keys[1:]))
        with pytest.raises(ValueError, match=r"rows=\(2, 1, 0\)"):
            cyclic_sequence(*anchor, lambda d, e: broken if (d, e) == (3, 3)
                            else build_basis(d, e))

    def test_foreign_or_repeated_element_is_rejected(self):
        """A basis's check ranks diagrams by rows alone, so it admits only
        diagrams of the basis's own frame, each once."""
        intact = build_basis(3, 3)
        foreign = (b"\4\4\4", *intact.keys[1:])
        repeated = intact.keys[:1] + intact.keys[:-1]
        for keys, match in ((foreign, r"rows=\(4, 4, 4\)"),
                            (repeated, "holds an element twice")):
            broken = replace(intact, keys=keys)
            with pytest.raises(ValueError, match=match):
                cyclic_sequence(3, 3, lambda d, e: broken if (d, e) == (3, 3)
                                else build_basis(d, e))

    @pytest.mark.parametrize("anchor", [(3, 4), (3, 3), (4, 3)],
                             ids=["left", "middle", "right"])
    def test_missing_or_reordered_element_is_named(self, anchor):
        """A basis missing any one element, or with two elements swapped,
        fails every sequence that reads it with a ValueError naming the frame
        and the first position whose rank differs."""
        intact = build_basis(3, 3)
        assert intact.keys == (b"\3\3\3", b"\3\1\1", b"\2\2\0", b"\0\0\0")

        def reading(broken):
            return lambda d, e: broken if (d, e) == (3, 3) else build_basis(d, e)

        for k in range(4):
            dropped = replace(intact, keys=intact.keys[:k] + intact.keys[k + 1:],
                              degrees=intact.degrees[:k] + intact.degrees[k + 1:])
            with pytest.raises(ValueError, match=rf"^the 3x3 basis holds 3 of its 4: its "
                                                 rf"element of rank {k} is not at position {k}$"):
                cyclic_sequence(*anchor, reading(dropped))
        swapped = replace(intact, keys=(intact.keys[0], intact.keys[2], intact.keys[1],
                                        intact.keys[3]))
        with pytest.raises(ValueError, match=r"^the 3x3 basis is out of order: its "
                                             r"element of rank 1 is not at position 1$"):
            cyclic_sequence(*anchor, reading(swapped))

    def test_tuple_keys_are_refused(self):
        """A basis whose rows are right but whose keys are tuples ranks in order,
        key by key, and is refused all the same: its keys are bytes."""
        intact = build_basis(3, 3)
        rows = tuple(map(tuple, intact.keys))
        assert list(map(intact.rank, rows)) == [0, 1, 2, 3]
        with pytest.raises(ValueError, match=r"^the 3x3 basis takes bytes its even pattern "
                                             r"matches, got tuple rows=\(3, 3, 3\)$"):
            replace(intact, keys=rows).checked

    def test_a_pattern_that_refuses_is_an_error(self, monkeypatch):
        """Keys the ranks find in order but the pattern refuses are an error, not
        a basis: the check never passes on the ranks alone."""
        monkeypatch.setattr("wittgrass.witt_modules.even_pattern",
                            lambda e: re.compile(b"(?!)"))
        with pytest.raises(ValueError, match=r"^the 3x3 basis takes bytes its even pattern "
                                             r"matches, got bytes rows=\(3, 3, 3\)$"):
            build_basis(3, 3).checked

    def test_images_keep_the_keys_order(self):
        """On every map up to 10x10, point frames included, the images strictly
        increase along the support, and each is the position of its rule's image
        in a lookup of the target's keys."""
        longest = 0
        for d in range(1, 11):
            for e in range(1, 11):
                for bm in cyclic_sequence(d, e).maps():
                    support = [i for i in bm.images if i is not None]
                    assert all(i < j for i, j in zip(support, support[1:])), (d, e, bm.which)
                    index = {key: i for i, key in enumerate(bm.target.keys)}
                    rule = _image_rule(bm.which, d, e)
                    assert bm.images == tuple(None if rule(key) is None else index[rule(key)]
                                              for key in bm.source.keys), (d, e, bm.which)
                    longest = max(longest, len(support))
        assert longest == 252  # iota into 10x10: C(10, 5) of its 504 keys

    def test_image_missing_from_the_target_is_named(self, monkeypatch):
        """A kappa that reverses its image's rows sends (4, 0, 0) of 3x4 to
        (0, 4), no key of 2x4: the walk names that image, not a KeyError."""
        rule = _image_rule

        def reversing(which, d, e):
            kept = rule(which, d, e)
            return lambda key: None if kept(key) is None else kept(key)[::-1]

        monkeypatch.setattr("wittgrass.witt_modules._image_rule", reversing)
        with pytest.raises(ValueError, match=r"^kappa's image rows=\(0, 4\) is not a 2x4 key "):
            cyclic_sequence(3, 4).kappa.images

    @pytest.mark.parametrize("repeated", [False, True], ids=["swapped", "repeated"])
    @pytest.mark.parametrize("which", MAP_NAMES)
    def test_images_out_of_order_are_refused(self, monkeypatch, which, repeated):
        """A rule whose images are all target keys, two neighbouring ones
        swapped or the first given twice, is refused: the walk finds the
        second at or before the first.  Only ``which`` reads the patched rule."""
        source = getattr(cyclic_sequence(3, 4), which).source
        rule = _image_rule(which, 3, 4)
        a, b = [key for key in source.keys if rule(key) is not None][:2]
        faulty = {b: rule(a)} if repeated else {a: rule(b), b: rule(a)}
        monkeypatch.setattr("wittgrass.witt_modules._image_rule",
                            lambda *frame: lambda key: faulty.get(key, rule(key)))
        shown = re.escape(repr(tuple(rule(a))))
        with pytest.raises(ValueError, match=rf"^{which}'s image rows={shown}"):
            getattr(cyclic_sequence(3, 4), which).images

    @pytest.mark.parametrize("call", [cyclic_sequence, lambda d, e: map_matrix("iota", d, e),
                                      duality_check], ids=["sequence", "map", "duality"])
    def test_non_int_frame_is_a_value_error(self, call):
        """A frame that is not a pair of ints gets check_frame's ValueError; a
        frame with d or e equal to 0 keeps the message of its anchor."""
        for d, e in [("2", 2), (2, "2"), (2.0, 2), (True, 2), (2, None)]:
            with pytest.raises(ValueError, match="frame dimensions must be integers"):
                call(d, e)
        for d, e in [(0, 2), (2, 0)]:
            with pytest.raises(ValueError, match="needs d,e >= 1"):
                call(d, e)


class TestGivenParts:
    """A hand-built basis or map is checked against what it claims to index."""

    def test_degrees_one_per_key(self):
        """A left basis cut to its first degree would pass the transport check
        on 3 of the sequence's 6 entries; it is refused instead."""
        seq = cyclic_sequence(2, 4)
        assert verify_degree_transport(seq).checked == 6
        left = seq.iota.source
        with pytest.raises(ValueError, match=f"^1 degrees given for {len(left)} keys$"):
            replace(left, degrees=left.degrees[:1])

    @pytest.mark.parametrize("image", [4, -1, True, 1.0])
    def test_image_outside_the_target_is_named(self, image):
        seq = cyclic_sequence(2, 3)
        assert len(seq.iota.target) == 4
        broken = _with_images(seq, "iota", (image, *seq.iota.images[1:]))
        match = rf"^iota's image of column 0, {image!r}, is not an index of its 4-element"
        for check in (verify_exactness, verify_degree_transport):
            with pytest.raises(ValueError, match=match):
                check(broken)

    def test_image_count_is_the_source_size(self):
        seq = cyclic_sequence(2, 3)
        n = len(seq.iota.source)
        for images in (seq.iota.images[:-1], (*seq.iota.images, None)):
            broken = _with_images(seq, "iota", images)
            with pytest.raises(ValueError, match=rf"^iota has {len(images)} images for {n} "):
                broken.iota.sparse()


class TestRank:
    """The rank of a key, read off its completion counts, which names the fault
    of a basis its check refuses."""

    def test_positions_of_the_oracle_even_vectors(self):
        """On every row vector up to 8x8, the rank is the position among the
        oracle's even vectors, sorted descending, and None for the others."""
        checked = 0
        for d in range(1, 9):
            for e in range(1, 9):
                basis = build_basis(d, e)
                vectors = sorted(helpers.all_row_vectors(d, e), reverse=True)
                even = [rows for rows in vectors if helpers.evenness_oracle(d, e, rows)]
                position = {rows: i for i, rows in enumerate(even)}
                for rows in vectors:
                    assert basis.rank(rows) == position.get(rows), (d, e, rows)
                assert sum(c[d][e] for c in even_counts(d, e)) == len(even), (d, e)
                checked += len(vectors)
        assert checked == 48602

    def test_total_is_the_closed_form(self):
        """The completion counts need no enumeration, so their total is checked
        far beyond where enumeration reaches."""
        for d in range(1, 23):
            for e in range(1, 23):
                assert sum(c[d][e] for c in even_counts(d, e)) == expected_rank(d, e), (d, e)

    MALFORMED = ([4, 4, 4], (4, 4), (4, 4, 4, 4), (4.0, 4, 4), (4, 4.0, 4),
                 (2, 2.0, 0), ("4", 4, 4), (None, 4, 4), (4, 4, None), (-2, -2, 0),
                 (6, 6, 6), (2, 4, 4), (2, 2, 1), (3, 1, 0), (1, 0, 0),
                 0, 1, (), None)

    def test_malformed_keys_have_no_rank(self):
        basis = build_basis(3, 4)
        assert basis.rank((4, 4, 4)) == 0 and basis.rank((2, 2, 0)) is not None
        for key in self.MALFORMED:
            assert basis.rank(key) is None, key
        assert build_basis(3, 1).rank((True, True, True)) is None

    def test_taller_count_tables_rank_alike(self):
        """A count table of width e and n >= d rows ranks every row vector of the
        d-by-e frame, and every malformed key, as the frame's own table does."""
        for e in range(1, 11):
            tables = [None] + [even_counts(n, e) for n in range(1, 11)]
            for d in range(1, 11):
                keys = [*helpers.all_row_vectors(d, e), *self.MALFORMED]
                own = [even_rank(key, d, e, tables[d]) for key in keys]
                assert tables[d] == even_counts(d, e)
                for n in range(d + 1, 11):
                    assert [even_rank(key, d, e, tables[n]) for key in keys] == own, (d, e, n)

    def test_point_frames(self):
        """Only the ints 0 and 1 rank in a point frame: not True, which equals 1,
        nor the 1-row key (0,), which never equals the key 0, in a dict too."""
        for d, e in [(0, 3), (3, 0), (0, 1), (1, 0)]:
            basis = build_basis(d, e)
            assert [basis.rank(key) for key in basis.keys] == [0, 1]
            for key in (True, False, 2, -1, (0,), (), None):
                assert basis.rank(key) is None, key
        assert {(0,): 0}.get(0) is None


class TestExactness:
    def test_interior_frames(self):
        for d in range(1, 6):
            for e in range(1, 6):
                report = verify_exactness(cyclic_sequence(d, e), primes=(2, 3, 5))
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
        obj = verify_exactness(cyclic_sequence(2, 2), primes=(2,)).to_json()
        assert obj["exact"] is True
        assert obj["maps_well_formed"] is True
        pos = obj["positions"][0]
        assert set(pos) == {"frame", "incoming", "outgoing", "structural",
                            "linear", "mod_p", "witnesses"}
        assert pos["mod_p"] == {"2": True}


def _first_one(matrix):
    return next((i, j) for i, row in enumerate(matrix)
                for j, v in enumerate(row) if v)


def _with_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix]
    rows[i][j] = value
    return rows


def _without_column(matrix, j):
    return [[0 if k == j else v for k, v in enumerate(row)] for row in matrix]


def _linear(A, B, width, middle):
    """The integer-linear verdict on dense matrices, converted by helpers.sparse."""
    A, B = helpers.sparse(A, width), helpers.sparse(B, middle)
    return _linear_position(span_solver(diagonalize(A)), kernel_rows(diagonalize(B)),
                            multiply(B, A))


def _mod_p(A, B, width, middle, p):
    A, B = helpers.sparse(A, width), helpers.sparse(B, middle)
    return _mod_p_position(rank_mod_p(A, p), rank_mod_p(B, p), A.shape[0],
                           multiply(B, A), p)


class TestCheckersDetectBrokenMaps:
    """The integer-linear and mod-p checkers reject maps one entry off."""

    POSITIONS = [("iota", "kappa"), ("kappa", "bord"), ("bord", "iota")]
    FRAMES = [(3, 3), (3, 4), (4, 3)]

    def _positions(self):
        """(A, B, width, middle) of each position whose incoming map is nonzero."""
        for d, e in self.FRAMES:
            seq = cyclic_sequence(d, e)
            for first, second in self.POSITIONS:
                incoming, outgoing = getattr(seq, first), getattr(seq, second)
                A, B = incoming.array(), outgoing.array()
                if any(any(row) for row in A):
                    yield A, B, len(incoming.source), len(outgoing.source)

    def test_intact_maps_pass(self):
        for A, B, width, middle in self._positions():
            assert _linear(A, B, width, middle)
            assert _mod_p(A, B, width, middle, 2)

    def test_entry_scaled_to_two(self):
        for A, B, width, middle in self._positions():
            i, j = _first_one(A)
            scaled = _with_entry(A, i, j, 2)
            assert _linear(scaled, B, width, middle) is False
            assert _mod_p(scaled, B, width, middle, 2) is False

    def test_dropped_image(self):
        for A, B, width, middle in self._positions():
            _, j = _first_one(A)
            assert _linear(_without_column(A, j), B, width, middle) is False
            _, j = _first_one(B)
            assert _linear(A, _without_column(B, j), width, middle) is False

    def test_product_is_read_in_full(self):
        """B A is read entry by entry, its rest included: a product whose one
        nonzero row holds two entries fails the integer check, and every
        prime that does not divide both of them."""
        for value, verdicts in [(1, (False, False)), (2, (True, False)), (6, (True, True))]:
            product = helpers.sparse([[value, value]])
            assert product.rest, value
            assert _linear_position(lambda kernel: [], None, product) is False
            assert tuple(_mod_p_position(1, 1, 2, product, p) for p in (2, 3)) == verdicts

    def test_dropped_image_fails_verify_exactness(self):
        """The same fault in ``images`` reaches the checkers through each
        map's sparse matrix."""
        for d, e in self.FRAMES:
            seq = cyclic_sequence(d, e)
            for k, (first, second) in enumerate(self.POSITIONS):
                images = list(getattr(seq, second).images)
                j = next((j for j, i in enumerate(images) if i is not None), None)
                if j is None:  # bord of a doubly even frame is zero
                    continue
                images[j] = None
                report = verify_exactness(_with_images(seq, second, images), primes=(2,))
                assert report.positions[k].linear is False, (d, e, second)
                assert report.positions[k].mod_p == ((2, False),)

    def test_dropped_image_fails_both_positions_of_its_map(self):
        """Each map is outgoing at one position and incoming at the next, and
        both read its one factorization: a dropped image fails both."""
        for d, e in self.FRAMES:
            seq = cyclic_sequence(d, e)
            for k, which in enumerate(("iota", "kappa", "bord")):
                images = list(getattr(seq, which).images)
                j = next(j for j, i in enumerate(images) if i is not None)
                images[j] = None
                report = verify_exactness(_with_images(seq, which, images), primes=(2,))
                for position in (report.positions[k - 1], report.positions[k]):
                    assert which in (position.incoming, position.outgoing)
                    assert position.linear is False, (d, e, which, position.incoming)
                    assert position.mod_p == ((2, False),), (d, e, which)


@pytest.fixture
def factor_calls(monkeypatch):
    """Calls of intmatrix.diagonalize, and of intmatrix.rank_mod_p by prime."""
    seen = Counter()
    original_diagonalize, original_rank = intmatrix.diagonalize, intmatrix.rank_mod_p

    def counted_diagonalize(A):
        seen["diagonalize"] += 1
        return original_diagonalize(A)

    def counted_rank_mod_p(A, p):
        seen[p] += 1
        return original_rank(A, p)

    monkeypatch.setattr(intmatrix, "diagonalize", counted_diagonalize)
    monkeypatch.setattr(intmatrix, "rank_mod_p", counted_rank_mod_p)
    return seen


class TestEachMapFactoredOnce:
    """Each of the three maps is diagonalized once and eliminated once per
    prime, though two positions read it."""

    def test_per_frame(self, factor_calls):
        for d, e in [(1, 1), (1, 4), (3, 3), (4, 3), (4, 4), (2, 5)]:
            factor_calls.clear()
            report = verify_exactness(cyclic_sequence(d, e), primes=(2, 3, 5))
            assert report.ok
            assert factor_calls == {"diagonalize": 3, 2: 3, 3: 3, 5: 3}, (d, e)

    def test_verify_suites(self, factor_calls):
        assert verify_suites("all", 5)["exactness"]["ok"]
        assert factor_calls["diagonalize"] == 75
        assert sum(factor_calls[p] for p in (2, 3, 5)) == 225

    def test_each_map_is_split_once(self, monkeypatch):
        """The diagonalization and the three ranks of a map share its one
        split into isolated entries and the rest, found when its matrix is
        built from its images: 3 builds in all, none counting entries, as no
        two columns share a row.  A broken map's matrix is split by one
        Counter pass, and its diagonalization and ranks split nothing."""
        seen = Counter()
        build, count_entries = intmatrix.SparseMatrix.from_columns, intmatrix.Counter

        def counted_build(cls, m, at, values):
            seen["build"] += 1
            return build(m, at, values)

        def counted_pass(*entries):
            seen["pass"] += 1
            return count_entries(*entries)

        monkeypatch.setattr(intmatrix.SparseMatrix, "from_columns", classmethod(counted_build))
        monkeypatch.setattr(intmatrix, "Counter", counted_pass)
        seq = cyclic_sequence(4, 3)
        assert verify_exactness(seq, primes=(2, 3, 5)).ok
        assert seen == {"build": 3}
        images = list(seq.kappa.images)
        hit = [j for j, i in enumerate(images) if i is not None]
        images[hit[1]] = images[hit[0]]
        A = replace(seq.kappa, images=tuple(images)).sparse()
        assert len(A.rest) == 1 and seen == {"build": 4, "pass": 1}
        intmatrix.diagonalize(A)
        assert [intmatrix.rank_mod_p(A, p) for p in (2, 3, 5)] == [len(hit) - 1] * 3
        assert seen == {"build": 4, "pass": 1}


class TestChecksStayIndependent:
    """A fault in the integer or the F_p factorization changes its own check only."""

    FRAMES = [(3, 3), (3, 4), (4, 3), (2, 5)]

    def _reports(self):
        return [verify_exactness(cyclic_sequence(d, e), primes=(2, 3))
                for d, e in self.FRAMES]

    @staticmethod
    def _without(report, field):
        return [{k: v for k, v in p.to_json().items() if k != field}
                for p in report.positions]

    def test_zero_diagonalization_changes_linear_only(self, monkeypatch):
        clean = self._reports()
        original = intmatrix.diagonalize

        def zero_diagonalization(A):
            return original(SparseMatrix.from_entries(A.shape, ()))

        monkeypatch.setattr(intmatrix, "diagonalize", zero_diagonalization)
        for before, after in zip(clean, self._reports()):
            assert self._without(after, "linear") == self._without(before, "linear")
            assert all(p.linear for p in before.positions)
            assert not any(p.linear for p in after.positions)

    def test_doubled_entry_fails_linear_and_mod_2_only(self, monkeypatch):
        """The checks read entry values, not only where entries sit: one
        entry of a well-formed map doubled through the matrix builder, its
        images untouched, fails the integer check where the map is incoming
        and the mod-2 check at both its positions.  Mod 3, where 2 is a
        unit, and the structural check on the images still pass."""
        build = BasisMap.sparse
        for seq in (cyclic_sequence(d, e) for d, e in self.FRAMES):
            for k, bm in enumerate(seq.maps()):
                values = [0 if i is None else 1 for i in bm.images]
                values[values.index(1)] = 2  # no map of these frames is zero
                doubled = SparseMatrix.from_columns(len(bm.target), bm.images, values)
                with monkeypatch.context() as patch:
                    patch.setattr(BasisMap, "sparse",
                                  lambda m, bm=bm: doubled if m is bm else build(m))
                    positions = verify_exactness(seq, primes=(2, 3)).positions
                assert [p.linear for p in positions] == [i != k for i in range(3)]
                assert [dict(p.mod_p) for p in positions] == [
                    {2: i not in (k, (k - 1) % 3), 3: True} for i in range(3)]
                assert all(p.structural for p in positions), (seq.d, seq.e, bm.which)

    def test_rank_one_short_changes_mod_p_only(self, monkeypatch):
        clean = self._reports()
        original = intmatrix.rank_mod_p
        monkeypatch.setattr(intmatrix, "rank_mod_p", lambda A, p: original(A, p) - 1)
        for before, after in zip(clean, self._reports()):
            assert self._without(after, "mod_p") == self._without(before, "mod_p")
            assert all(v for p in before.positions for _, v in p.mod_p)
            assert not any(v for p in after.positions for _, v in p.mod_p)


def _les_route(which, d, e, base, t):
    """``_les_target`` through Picard classes and ``les_twists``: the source
    twist is ``base`` plus t TautDet(d), read backwards along the relabeling
    first for bord; iota and bord read the sub side and its TautDet(d),
    kappa the complementary side and its TautDet(d - 1), or at d = 1, where
    TautDet(0) is trivial, the quotient det its relabeling adds."""
    n = d + e
    cls = PicClassMod2(n, tuple((BASE, i) for i in base))
    if which == "bord" and t:
        cls = cls + mod2(quotient_det(n))
    sub, comp = les_twists(d, e, cls + taut_det2(n, d) if t else cls)
    if which == "kappa":
        side, det = comp, comp.has(TAUT, d - 1) if d > 1 else (comp + cls).has(BASE, n)
    else:
        side, det = sub, sub.has(TAUT, d)
    return tuple(i for kind, i in side.support if kind == BASE), int(det)


def _with_images(seq, which, images):
    """The sequence with the images of one map replaced."""
    return replace(seq, **{which: replace(getattr(seq, which), images=tuple(images))})


def _without_middle_element(seq, k):
    """The sequence with element k of its middle module dropped, and iota's
    images and kappa's sources re-indexed to the smaller basis."""
    middle = seq.kappa.source
    middle = replace(middle, keys=middle.keys[:k] + middle.keys[k + 1:],
                     degrees=middle.degrees[:k] + middle.degrees[k + 1:])
    iota = tuple(None if i is None or i == k else i - (i > k) for i in seq.iota.images)
    kappa = seq.kappa.images[:k] + seq.kappa.images[k + 1:]
    return replace(seq, iota=replace(seq.iota, target=middle, images=iota),
                   kappa=replace(seq.kappa, source=middle, images=kappa))


class TestDroppedBasisElement:
    """Every checker sees a middle module missing one generator."""

    def test_each_dropped_middle_element_is_caught(self):
        cases = 0
        for d, e in [(3, 3), (3, 4), (4, 3), (2, 5)]:
            seq = cyclic_sequence(d, e)
            for k in range(len(seq.kappa.source)):
                broken = _without_middle_element(seq, k)
                report = verify_exactness(broken, primes=(2,))
                assert any(not p.structural and p.witnesses and not p.linear
                           and p.mod_p == ((2, False),)
                           for p in report.positions), (d, e, k)
                cert = induction_report(broken, report, verify_degree_transport(broken))
                assert cert["ok"] is False, (d, e, k)
                cases += 1
        assert cases == 22


class TestStructuralCheckersDetectBrokenMaps:
    """The structural and degree checkers reject broken maps and name the fault."""

    FRAMES = [(3, 3), (3, 4), (4, 3), (4, 4)]

    def test_shared_image_is_not_well_formed(self):
        for d, e in self.FRAMES:
            seq = cyclic_sequence(d, e)
            for which in ("iota", "kappa"):
                images = list(getattr(seq, which).images)
                hit = [j for j, i in enumerate(images) if i is not None]
                lost = images[hit[1]]
                images[hit[1]] = images[hit[0]]
                report = verify_exactness(_with_images(seq, which, images))
                assert report.maps_well_formed is False, (d, e, which)
                # the middle element no longer hit is named at the next position
                position = report.positions[0 if which == "iota" else 1]
                target = getattr(seq, which).target
                assert position.witnesses == (target.element(lost),)

    def test_dropped_image_names_its_source(self):
        for d, e in self.FRAMES:
            seq = cyclic_sequence(d, e)
            for incoming, outgoing in (("iota", "kappa"), ("kappa", "bord"),
                                       ("bord", "iota")):
                images = list(getattr(seq, outgoing).images)
                j = next((j for j, i in enumerate(images) if i is not None), None)
                if j is None:  # bord of a doubly even frame is zero
                    continue
                images[j] = None
                broken = _with_images(seq, outgoing, images)
                ok, witnesses = _structural_position(getattr(broken, incoming),
                                                     getattr(broken, outgoing))
                assert ok is False
                assert witnesses == (getattr(seq, outgoing).source.element(j),)

    def test_perturbed_degree_names_its_element(self):
        for d, e in self.FRAMES:
            seq = cyclic_sequence(d, e)
            for which in ("iota", "kappa", "bord"):
                bm = getattr(seq, which)
                j = next((j for j, i in enumerate(bm.images) if i is not None), None)
                if j is None:
                    continue
                degrees = list(bm.source.degrees)
                elem, deg = bm.source.element(j), degrees[j]
                degrees[j] = replace(deg, shift=(deg.shift + 1) % 4)
                source = replace(bm.source, degrees=tuple(degrees))
                broken = replace(seq, **{which: replace(bm, source=source)})
                for trivial in (False, True):
                    report = verify_degree_transport(broken, trivial_base=trivial)
                    assert [(f.which, f.source) for f in report.failures] == [(which, elem)]


class TestTransport:
    def test_interior_frames_both_modes(self):
        for d in range(2, 6):
            for e in range(2, 6):
                for trivial in (False, True):
                    report = verify_degree_transport(cyclic_sequence(d, e),
                                                     trivial_base=trivial)
                    assert report.ok, report.to_json()
                    assert report.checked > 0
                    assert report.point_entries_det_only == 0

    def test_boundary_frames_count_point_entries(self):
        for d, e in [(1, 1), (1, 3), (3, 1), (1, 4), (4, 1)]:
            report = verify_degree_transport(cyclic_sequence(d, e))
            assert report.ok, report.to_json()
            assert report.point_entries_det_only > 0

    def test_base_outside_the_target_rank_is_unrepresentable(self):
        """kappa cannot carry BaseDet(4) of F(2,2) into the rank-3 frame F(1,2)."""
        seq = cyclic_sequence(2, 2)
        kappa = seq.kappa
        degrees = list(kappa.source.degrees)
        j = kappa.source.rank((0, 0))
        odd = next(deg for k, deg in enumerate(degrees)
                   if kappa.source.element(k).rho() % 2)
        degrees[j] = replace(degrees[j], base=odd.base)
        source = replace(kappa.source, degrees=tuple(degrees))
        report = verify_degree_transport(replace(seq, kappa=replace(kappa, source=source)))
        target_degree = kappa.target.degrees[kappa.images[j]]
        assert [f.to_json() for f in report.failures] == [
            {"which": "kappa", "source": FramedDiagram(2, 2, (0, 0)).to_json(),
             "expected": "unrepresentable", "actual": target_degree.to_json()}]

    def test_base_above_the_sequence_rank_is_reported(self):
        """A kappa source carrying BaseDet(d+e+1) has no class in the sequence's
        rank d + e: its entry fails as unrepresentable in both modes, also
        where kappa lands on a point frame, and nothing raises."""
        for d in range(1, 6):
            for e in range(1, 6):
                seq = cyclic_sequence(d, e)
                kappa = seq.kappa
                j = next(j for j, i in enumerate(kappa.images) if i is not None)
                degrees = list(kappa.source.degrees)
                elem, deg = kappa.source.element(j), degrees[j]
                degrees[j] = replace(deg, base=(d + e + 1,))
                source = replace(kappa.source, degrees=tuple(degrees))
                broken = replace(seq, kappa=replace(kappa, source=source))
                target_degree = kappa.target.degrees[kappa.images[j]]
                for trivial in (False, True):
                    report = verify_degree_transport(broken, trivial_base=trivial)
                    assert [(f.which, f.source, f.expected, f.actual)
                            for f in report.failures] == [
                        ("kappa", elem, "unrepresentable", target_degree)], (d, e)

    @staticmethod
    def _degree_mutants():
        """Each map's first mapped element with its source or its target
        degree changed: shift + 1, det flipped, or BaseDet(n), BaseDet(1) or
        BaseDet(n + 1) toggled, n the rank of the changed basis."""
        for d in range(1, 6):
            for e in range(1, 6):
                seq = cyclic_sequence(d, e)
                for bm in seq.maps():
                    j = next((j for j, i in enumerate(bm.images) if i is not None), None)
                    if j is None:  # bord of a doubly even frame is zero
                        continue
                    for side, k in (("source", j), ("target", bm.images[j])):
                        basis = getattr(bm, side)
                        degrees = list(basis.degrees)
                        deg = degrees[k]
                        n = basis.d + basis.e
                        for changed in (
                                replace(deg, shift=(deg.shift + 1) % 4),
                                replace(deg, det_twist=1 - deg.det_twist),
                                *(replace(deg, base=tuple(sorted(set(deg.base) ^ {i})))
                                  for i in (n, 1, n + 1))):
                            degrees[k] = changed
                            mutated = replace(basis, degrees=tuple(degrees))
                            yield replace(seq, **{bm.which: replace(bm, **{side: mutated})})

    def test_trivial_base_failures_are_full_base_failures(self):
        """On every degree mutant the entries that fail with the base classes
        ignored also fail with them compared, so full mode alone decides."""
        outcomes = Counter()
        for seq in self._degree_mutants():
            full, trivial = ({(f.which, f.source) for f in
                              verify_degree_transport(seq, trivial_base=mode).failures}
                             for mode in (False, True))
            assert trivial <= full, (seq.d, seq.e)
            outcomes[bool(full), bool(trivial)] += 1
        assert sum(outcomes.values()) == 710
        assert outcomes[True, False] == 292  # the base classes alone catch these
        assert outcomes[True, True] == 271

    def test_masks_follow_les_twists(self):
        """``_les_target``'s bit masks give what ``les_twists`` gives on
        Picard classes, for each map, t = 0 and 1 and every increasing base
        of at most two indices, on every frame up to 6x6."""
        for d in range(1, 7):
            for e in range(1, 7):
                n = d + e
                bases = [b for k in range(3) for b in combinations(range(1, n + 1), k)]
                for which in MAP_NAMES:
                    for t in (0, 1):
                        for base in bases:
                            assert _les_target(which, d, e, base, t) == \
                                _les_route(which, d, e, base, t), (which, d, e, base, t)

    def test_json_shape(self):
        obj = verify_degree_transport(cyclic_sequence(2, 2)).to_json()
        assert set(obj) == {"frame", "trivial_base", "checked",
                            "point_entries_det_only", "failures", "ok"}
        assert obj["ok"] is True


def _records():
    """One of each record, by name: the namedtuples and the plain class GradedBasis."""
    seq = cyclic_sequence(2, 2)
    exact = verify_exactness(seq, (2,))
    return {"JumpTuples": JumpTuples((1,), (0,)), "FramedDiagram": FramedDiagram(1, 1, (0,)),
            "PicClass": quotient_det(4), "GradedDegree": degree(2, 2, (1, 1)),
            "GradedBasis": build_basis(2, 2),
            "BasisMap": seq.iota, "CyclicSequence": seq,
            "PositionVerdict": exact.positions[0], "ExactnessReport": exact,
            "TransportFailure": TransportFailure("iota", 1, 0, 1),
            "TransportReport": verify_degree_transport(seq),
            "DualityReport": duality_check(2, 2)}


class TestRecords:
    @pytest.mark.parametrize("name", list(_records()))
    def test_no_field_can_be_assigned(self, name):
        """Every field, and any new attribute, of every record is read-only."""
        record = _records()[name]
        assert type(record).__name__ == name
        fields = record._fields if isinstance(record, tuple) else ("d", "e", "keys", "degrees")
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field, None))

    def test_len_of_a_basis_is_its_key_count(self):
        assert len(build_basis(4, 4)) == 12 == expected_rank(4, 4)

    def test_reprs(self):
        assert repr(GradedDegree(1, (5,), 0)) == \
            "GradedDegree(shift=1, base=(5,), det_twist=0)"
        assert repr(FramedDiagram(2, 3, [3, 1])) == "FramedDiagram(d=2, e=3, rows=(3, 1))"
