"""One verification pass: shared per-frame work, and suites kept independent."""

import gc
import hashlib
import importlib
import importlib.util
import json
import sys
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import replace
from wittgrass import diagrams, expected_rank, grassmann_witt, verify, witt_modules
from wittgrass.cli import main
from wittgrass.verify import SUITE_FIRST_FRAME, verify_suites


@pytest.fixture
def calls(monkeypatch):
    """How often each function verify_suites calls per frame is called, keyed
    by the frame (d, e) followed by the keyword arguments' values."""
    seen = {}
    for name in ("cyclic_sequence", "verify_exactness", "verify_degree_transport",
                 "cond_even_rows", "bord_vanishes", "duality_pair",
                 "induction_report"):
        seen[name] = Counter()

        def counted(*args, _name=name, _fn=getattr(verify, name), **kwargs):
            seq = args[0]
            frame = (seq.d, seq.e) if hasattr(seq, "d") else args[:2]
            seen[_name][(*frame, *kwargs.values())] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    return seen


def _frames(first, last):
    return Counter((d, e) for d in range(first, last + 1) for e in range(first, last + 1))


@pytest.fixture
def builds(monkeypatch):
    """Graded bases built through any module, counted by frame, those alive,
    and the most of them alive at once, seen at each build."""
    alive = weakref.WeakSet()
    seen = SimpleNamespace(frames=Counter(), peak=0, alive=alive)
    original = witt_modules.build_basis

    def counted(d, e, tails=None):
        seen.frames[d, e] += 1
        basis = original(d, e, tails)
        alive.add(basis)
        seen.peak = max(seen.peak, len(alive))
        return basis

    for module in (verify, witt_modules, grassmann_witt):
        monkeypatch.setattr(module, "build_basis", counted)
    return seen


@pytest.fixture
def run_tails(monkeypatch):
    """Each EvenTails that verify_suites makes for its store, in order."""
    made = []

    def recorded(cols):
        made.append(diagrams.EvenTails(cols))
        return made[-1]

    monkeypatch.setattr(verify, "EvenTails", recorded)
    return made


def _sequence_bases(first, last):
    """The frames the sequences anchored at first..last read."""
    return {frame for d, e in _frames(first, last)
            for frame in ((d, e - 1), (d, e), (d - 1, e))}


class TestSharedWork:
    def test_all_builds_and_checks_each_frame_once(self, calls):
        assert all(suite["ok"] for suite in verify_suites("all", 5).values())
        assert calls["cyclic_sequence"] == _frames(1, 5)
        assert calls["verify_exactness"] == Counter(
            {(d, e, (2, 3, 5)): 1 for d, e in _frames(1, 5)})

    def test_all_runs_every_check_on_its_suites_frames(self, calls):
        verify_suites("all", 5)
        assert calls["verify_degree_transport"] == Counter(
            {(d, e, False): 1 for d, e in _frames(2, 5)})
        assert calls["cond_even_rows"] == Counter(
            {(d, e): expected_rank(d, e) for d, e in _frames(1, 5)})
        assert calls["bord_vanishes"] == _frames(2, 5)
        # one call per mirror pair {(d, e), (e, d)}, at its first frame
        assert calls["duality_pair"] == Counter(
            {(d, e): 1 for d, e in _frames(1, 5) if d <= e})
        assert calls["induction_report"] == _frames(2, 5)

    def test_duality_checks_each_mirror_pair_once(self, calls):
        assert verify_suites("duality", 11)["duality"]["ok"]
        assert calls["duality_pair"] == Counter(
            {(d, e): 1 for d, e in _frames(1, 11) if d <= e})
        assert sum(calls["duality_pair"].values()) == 66

    def test_induction_runs_no_transport_check_of_its_own(self, monkeypatch):
        """Induction reads the frame's full-base transport report, which the
        degrees suite also reads and no suite runs again in trivial-base mode;
        counted at the report's constructor, so a call made from any module
        is seen."""
        built = Counter()
        original = witt_modules.TransportReport

        def counted(frame, trivial_base, *args):
            built[(*frame, trivial_base)] += 1
            return original(frame, trivial_base, *args)

        monkeypatch.setattr(witt_modules, "TransportReport", counted)
        for scope in ("all", "degrees", "induction"):
            built.clear()
            verify_suites(scope, 4)
            assert built == Counter({(d, e, False): 1 for d, e in _frames(2, 4)}), scope

    @pytest.mark.parametrize("scope", ["duality", "cond-even"])
    def test_suites_without_maps_build_no_sequence(self, calls, scope):
        assert verify_suites(scope, 5)[scope]["ok"]
        assert not calls["cyclic_sequence"]
        assert not calls["verify_exactness"]

    def test_induction_alone_checks_p2_only(self, calls):
        assert verify_suites("induction", 5)["induction"]["ok"]
        assert calls["verify_exactness"] == Counter(
            {(d, e, (2,)): 1 for d, e in _frames(2, 5)})

    @pytest.mark.parametrize("scope", ["degrees", "bord"])
    def test_suites_without_exactness_run_none(self, calls, scope):
        assert verify_suites(scope, 4)[scope]["ok"]
        assert calls["cyclic_sequence"] == _frames(2, 4)
        assert not calls["verify_exactness"]


def test_suites_build_only_what_they_read(monkeypatch):
    """The bord suite reads bord's images and no degree, and the cond-even
    suite reads keys alone: neither builds another map's images or a degree."""
    rules, degrees = Counter(), Counter()
    image_rule, degree = witt_modules._image_rule, witt_modules.degree

    def counted_rule(which, d, e):
        rules[which] += 1
        return image_rule(which, d, e)

    def counted_degree(d, e, rows):
        degrees[d, e] += 1
        return degree(d, e, rows)

    monkeypatch.setattr(witt_modules, "_image_rule", counted_rule)
    monkeypatch.setattr(witt_modules, "degree", counted_degree)
    assert verify_suites("bord", 6)["bord"]["ok"]
    assert rules == Counter({"bord": 25}) and not degrees
    rules.clear()
    assert verify_suites("cond-even", 6)["cond-even"]["ok"]
    assert not rules and not degrees


class TestBasisStore:
    @pytest.mark.parametrize("scope", ["degrees", "bord"])
    def test_sequences_build_each_basis_once(self, builds, scope):
        verify_suites(scope, 8)
        assert builds.frames == Counter(_sequence_bases(2, 8))

    def test_only_duality_mirrors_are_built_again(self, builds):
        """Both duality checks of a mirror pair read one pair of bases, so
        alone the suite builds each frame once; beside the sequences, a
        mirror (e, d) outside the two rows the store keeps at (d, e) is
        built once for its pair and once more when its row is swept."""
        verify_suites("duality", 11)
        assert builds.frames == _frames(1, 11)
        builds.frames.clear()
        verify_suites("all", 8)
        assert set(builds.frames) == _sequence_bases(1, 8)
        again = {frame: n for frame, n in builds.frames.items() if n > 1}
        assert all(n == 2 and d > e >= 1 for (d, e), n in again.items())
        assert sum(builds.frames.values()) <= 108

    def test_last_frame_holds_only_its_sequence(self, builds, monkeypatch):
        """No row follows the last, so at the last frame (n, n) the bases
        alive are the three its sequence reads, and none of the frames
        (n, e) that the row's earlier sequences read."""
        seen, bord = [], verify._SUITES["bord"]

        def watched(frame):
            failures = bord(frame)
            if (frame.d, frame.e) == (6, 6):
                gc.collect()
                seen.append(sorted((basis.d, basis.e) for basis in builds.alive))
            return failures

        monkeypatch.setitem(verify._SUITES, "bord", watched)
        assert verify_suites("bord", 6)["bord"]["ok"]
        assert seen == [[(5, 6), (6, 5), (6, 6)]]

    def test_no_basis_holds_a_dict(self, monkeypatch):
        """A basis keeps no index of its keys: after a run, and after a duality
        pair on its own, every basis built was checked and holds no dict."""
        built, original = [], witt_modules.build_basis

        def kept(d, e, tails=None):
            built.append(original(d, e, tails))
            return built[-1]

        for module in (verify, witt_modules, grassmann_witt):
            monkeypatch.setattr(module, "build_basis", kept)
        assert all(suite["ok"] for suite in verify_suites("all", 6).values())
        grassmann_witt.duality_pair(3, 5, kept)
        assert {(3, 5), (5, 3), (6, 6), (0, 6)} <= {(basis.d, basis.e) for basis in built}
        for basis in built:
            assert vars(basis).get("checked") is basis.keys
            assert not [name for name, value in vars(basis).items() if isinstance(value, dict)]

    @pytest.mark.parametrize("scope", ["all", "degrees", "duality", "cond-even"])
    def test_store_stays_bounded(self, builds, scope):
        """The store, and every basis still referenced, holds two rows of
        frames at most."""
        verify_suites(scope, 9)
        assert 0 < builds.peak <= 2 * (9 + 1)

    @pytest.mark.parametrize("scope", [*SUITE_FIRST_FRAME, "all"])
    def test_tails_hold_three_row_counts_at_most(self, run_tails, monkeypatch, scope):
        """At every frame of a run, the store's tails are of at most three
        consecutive row counts, and so are those of the row's duality mirrors:
        a run that checks duality makes one more tails object per row."""
        seen = []
        for name, suite in list(verify._SUITES.items()):
            def watched(frame, _suite=suite):
                failures = _suite(frame)
                seen.extend(sorted(tails.levels) for tails in (run_tails[0], run_tails[-1]))
                return failures

            monkeypatch.setitem(verify._SUITES, name, watched)
        report = verify_suites(scope, 9)
        assert all(suite["ok"] for suite in report.values())
        assert len(run_tails) == (1 + 9 if scope in ("duality", "all") else 1) and any(seen)
        assert all(counts[-1] - counts[0] <= 2 for counts in seen if counts)

    def test_last_frame_holds_only_its_sequences_full_rows(self, run_tails, monkeypatch):
        """The full-row blocks go with their bases: at the last frame (n, n) the
        store's tails hold those of the three bases its sequence reads."""
        seen, bord = [], verify._SUITES["bord"]

        def watched(frame):
            failures = bord(frame)
            if (frame.d, frame.e) == (6, 6):
                seen.append(sorted(run_tails[0].full))
            return failures

        monkeypatch.setitem(verify._SUITES, "bord", watched)
        assert verify_suites("bord", 6)["bord"]["ok"]
        assert seen == [[(5, 6), (6, 5), (6, 6)]]

    def test_no_tails_outlive_a_run(self, run_tails, monkeypatch):
        """A second run in the same interpreter builds exactly as many tails as
        the first: nothing is kept from one run to the next.  Each tail is made
        by prefixing rows to a shorter one, counted at the ``map`` doing it."""
        built = []

        def counted(prefix, *tails):
            found = list(map(prefix, *tails))
            built[-1] += len(found)
            return found

        monkeypatch.setattr(diagrams, "map", counted, raising=False)
        for _ in range(2):
            built.append(0)
            assert verify_suites("degrees", 8)["degrees"]["ok"]
        assert built[0] == built[1] > 0
        assert len(run_tails) == 2 and run_tails[0] is not run_tails[1]
        assert all(tails.full for tails in run_tails)  # each run's store read its own

    def test_diagrams_are_enumerated_only_to_build_bases(self, monkeypatch):
        """Cond-even reads the run's bases: every enumeration of even row
        tuples comes from build_basis, once per diagram frame it builds."""
        callers = Counter()
        original = diagrams.even_rows

        def counted(d, e, tails=None):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(d, e, tails)

        for name, module in list(sys.modules.items()):
            if name.startswith("wittgrass") and \
                    getattr(module, "even_rows", None) is original:
                monkeypatch.setattr(module, "even_rows", counted)
        verify_suites("all", 8)
        assert callers == Counter({"build_basis": 92})


class TestOnePass:
    def test_all_equals_each_suite_alone(self):
        together = verify_suites("all", 4)
        assert list(together) == list(SUITE_FIRST_FRAME)
        for name in SUITE_FIRST_FRAME:
            assert together[name] == verify_suites(name, 4)[name], name

    def test_mod3_fault_fails_exactness_only(self, monkeypatch):
        """Induction keeps p = 2 only, so a fault seen at p = 3 alone stays
        out of its block while the exactness suite reports it."""
        clean = verify_suites("all", 3)
        original = witt_modules._mod_p_position

        def fails_at_3(rank_a, rank_b, middle, product, p):
            return p != 3 and original(rank_a, rank_b, middle, product, p)

        monkeypatch.setattr(witt_modules, "_mod_p_position", fails_at_3)
        broken = verify_suites("all", 3)
        assert clean["exactness"]["ok"]
        assert not broken["exactness"]["ok"]
        assert len(broken["exactness"]["failures"]) == 9
        assert all(pos["mod_p"] == {"2": True, "3": False, "5": True}
                   for report in broken["exactness"]["failures"]
                   for pos in report["positions"])
        assert broken["induction"]["ok"]
        assert broken["induction"] == clean["induction"]


    def test_shifted_degree_fails_the_frames_that_read_it(self, monkeypatch):
        """A basis whose degrees are all shifted fails the degrees and the
        induction suites on exactly the sequences that read it, each failing
        degrees frame with its one full-base report."""
        original = witt_modules.build_basis

        def shifted(d, e, tails=None):
            basis = original(d, e, tails)
            if (d, e) != (3, 2):
                return basis
            return replace(basis, degrees=tuple(
                replace(deg, shift=(deg.shift + 1) % 4) for deg in basis.degrees))

        for module in (verify, witt_modules):
            monkeypatch.setattr(module, "build_basis", shifted)
        readers = {(d, e) for d, e in _frames(2, 4)
                   if (3, 2) in {(d, e - 1), (d, e), (d - 1, e)}}
        assert readers == {(3, 2), (3, 3), (4, 2)}
        degrees = verify_suites("degrees", 4)["degrees"]
        induction = verify_suites("induction", 4)["induction"]
        assert [tuple(r["frame"]) for r in degrees["failures"]] == sorted(readers)
        assert all(r["trivial_base"] is False for r in degrees["failures"])
        assert [tuple(c["frame"]) for c in induction["failures"]] == sorted(readers)
        assert not degrees["ok"] and not induction["ok"]

    def test_swapped_mirror_degrees_fail_both_frames_of_the_pair(self, monkeypatch):
        """A mirror basis with two degrees swapped fails the duality suite at
        both frames of its pair, each in its own place in (d, e) order and
        with the report a standalone check of that frame gives."""
        original = witt_modules.build_basis
        mirror = original(4, 3)
        degrees = list(mirror.degrees)
        j = next(j for j in range(1, len(degrees))
                 if (degrees[j].shift, degrees[j].det_twist)
                 != (degrees[0].shift, degrees[0].det_twist))
        degrees[0], degrees[j] = degrees[j], degrees[0]
        swapped = replace(mirror, degrees=tuple(degrees))

        def patched(d, e, tails=None):
            return swapped if (d, e) == (4, 3) else original(d, e, tails)

        for module in (verify, witt_modules, grassmann_witt):
            monkeypatch.setattr(module, "build_basis", patched)
        duality = verify_suites("duality", 5)["duality"]
        assert not duality["ok"]
        assert [tuple(r["frame"]) for r in duality["failures"]] == [(3, 4), (4, 3)]
        assert duality["failures"] == [grassmann_witt.duality_check(3, 4).to_json(),
                                       grassmann_witt.duality_check(4, 3).to_json()]

    def test_interleaved_mirror_pairs_fail_in_frame_order(self, monkeypatch):
        """Two broken pairs whose mirrors interleave, {(2, 5), (5, 2)} and
        {(3, 4), (4, 3)}: both pairs are checked at their first frames, and
        the four failures still come out in (d, e) order."""
        original = witt_modules.build_basis

        def swapped(basis):
            degrees = list(basis.degrees)
            j = next(j for j in range(1, len(degrees))
                     if (degrees[j].shift, degrees[j].det_twist)
                     != (degrees[0].shift, degrees[0].det_twist))
            degrees[0], degrees[j] = degrees[j], degrees[0]
            return replace(basis, degrees=tuple(degrees))

        broken = {frame: swapped(original(*frame)) for frame in [(5, 2), (4, 3)]}

        def patched(d, e, tails=None):
            return broken[d, e] if (d, e) in broken else original(d, e, tails)

        for module in (verify, witt_modules, grassmann_witt):
            monkeypatch.setattr(module, "build_basis", patched)
        duality = verify_suites("duality", 5)["duality"]
        assert [tuple(r["frame"]) for r in duality["failures"]] == [
            (2, 5), (3, 4), (4, 3), (5, 2)]


    def test_bord_that_maps_an_element_fails_its_frame(self, monkeypatch, capsys):
        """A bord rule that maps (2,) of 1x2 to (1, 1) of 2x1, at the 2x2 frame,
        where the parity criterion says bord vanishes, fails that frame alone,
        with the criterion's message as its reason; the command exits 1."""
        rule = witt_modules._image_rule

        def faulty(which, d, e):
            if (which, d, e) == ("bord", 2, 2):
                return lambda key: b"\1\1" if key == b"\2" else None
            return rule(which, d, e)

        monkeypatch.setattr(witt_modules, "_image_rule", faulty)
        reason = ("parity criterion says bord vanishes at (2,2), but it maps (2,) "
                  "to a nonzero image")
        bord = {"frames": 4, "failures": [{"frame": [2, 2], "reason": reason}], "ok": False}
        assert verify_suites("bord", 3) == {"bord": bord}
        assert main(["verify", "--scope", "bord", "--max-frame", "3"]) == 1
        assert json.loads(capsys.readouterr().out)["suites"] == {"bord": bord}


def test_a_passing_run_builds_no_diagram(monkeypatch):
    """Every suite reads basis keys and degrees: a passing run builds no
    FramedDiagram, which only output and failure records need."""
    def unbuilt(cls, *args):
        raise AssertionError("a diagram was built")

    monkeypatch.setattr(diagrams.FramedDiagram, "__new__", unbuilt)
    with pytest.raises(AssertionError, match="was built"):
        diagrams.FramedDiagram(1, 1, (0,))
    assert all(suite["ok"] for suite in verify_suites("all", 6).values())


def test_only_a_refused_basis_builds_a_count_table(monkeypatch):
    """A basis check compares its key count with the closed form, so a passing
    run builds no count table; a refused basis builds its own, to be named by
    the rank of the key at fault."""
    built = Counter()
    original = witt_modules.even_counts

    def counted(d, e):
        built[d, e] += 1
        return original(d, e)

    monkeypatch.setattr(witt_modules, "even_counts", counted)
    assert all(suite["ok"] for suite in verify_suites("all", 8).values())
    assert not built
    intact = witt_modules.build_basis(3, 3)
    repeated = replace(intact, keys=intact.keys[:1] + intact.keys[:-1])
    with pytest.raises(ValueError, match="^the 3x3 basis holds an element twice$"):
        repeated.checked
    assert built == Counter({(3, 3): 1})


class TestStrictInputs:
    def test_unknown_scope_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="unknown scope 'bogus'") as info:
            verify_suites("bogus", 3)
        assert all(repr(name) in str(info.value) for name in (*SUITE_FIRST_FRAME, "all"))

    @pytest.mark.parametrize("max_frame", ["3", True, 3.0, None])
    def test_max_frame_must_be_an_int(self, max_frame):
        with pytest.raises(ValueError, match="max_frame must be an int"):
            verify_suites("all", max_frame)


def test_traced_functions_exist():
    """Every function the benchmark tracer wraps is still defined."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"wittgrass.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_frontier_digest(capsys):
    """`verify --scope all --max-frame 10` prints the bytes it printed when the
    exactness checks ran on dense matrices."""
    assert main(["verify", "--scope", "all", "--max-frame", "10"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == \
        "cf84a83c60350041c9a6491e17bda61542277f6d86a211dcc013df8fc52f8d33"
