"""One verification pass: shared per-frame work, and suites kept independent."""

import hashlib
import importlib
import importlib.util
import sys
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import replace
from wittgrass import diagrams, grassmann_witt, verify, witt_modules
from wittgrass.cli import main
from wittgrass.grassmann_witt import expected_rank
from wittgrass.verify import SUITE_FIRST_FRAME, verify_suites


@pytest.fixture
def calls(monkeypatch):
    """How often each function verify_suites calls per frame is called, keyed
    by the frame (d, e) followed by the keyword arguments' values."""
    seen = {}
    for name in ("cyclic_sequence", "verify_exactness", "verify_degree_transport",
                 "cond_even_rows", "bord_vanishes", "duality_check",
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
    """Graded bases built through any module, counted by frame, and the most
    of them alive at once, seen at each build."""
    seen = SimpleNamespace(frames=Counter(), peak=0)
    alive = weakref.WeakSet()
    original = witt_modules.build_basis

    def counted(d, e):
        seen.frames[d, e] += 1
        basis = original(d, e)
        alive.add(basis)
        seen.peak = max(seen.peak, len(alive))
        return basis

    for module in (verify, witt_modules, grassmann_witt):
        monkeypatch.setattr(module, "build_basis", counted)
    return seen


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
        assert calls["duality_check"] == _frames(1, 5)
        assert calls["induction_report"] == _frames(2, 5)

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

    @pytest.mark.parametrize("scope", ["all", "degrees", "duality", "cond-even"])
    def test_store_stays_bounded(self, builds, scope):
        """The store, and every basis still referenced, holds two rows of
        frames at most."""
        verify_suites(scope, 9)
        assert 0 < builds.peak <= 2 * (9 + 1)

    def test_diagrams_are_enumerated_only_to_build_bases(self, monkeypatch):
        """Cond-even reads the run's bases: every enumeration of even row
        tuples comes from build_basis, once per diagram frame it builds."""
        callers = Counter()
        original = diagrams.even_rows

        def counted(d, e):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(d, e)

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

        def shifted(d, e):
            basis = original(d, e)
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

        def patched(d, e):
            return swapped if (d, e) == (4, 3) else original(d, e)

        for module in (verify, witt_modules, grassmann_witt):
            monkeypatch.setattr(module, "build_basis", patched)
        duality = verify_suites("duality", 5)["duality"]
        assert not duality["ok"]
        assert [tuple(r["frame"]) for r in duality["failures"]] == [(3, 4), (4, 3)]
        assert duality["failures"] == [grassmann_witt.duality_check(3, 4).to_json(),
                                       grassmann_witt.duality_check(4, 3).to_json()]


def test_a_passing_run_builds_no_diagram(monkeypatch):
    """Every suite reads basis keys and degrees: a passing run builds no
    FramedDiagram, which only output and failure records need."""
    def unbuilt(cls, *args):
        raise AssertionError("a diagram was built")

    monkeypatch.setattr(diagrams.FramedDiagram, "__new__", unbuilt)
    with pytest.raises(AssertionError, match="was built"):
        diagrams.FramedDiagram(1, 1, (0,))
    assert all(suite["ok"] for suite in verify_suites("all", 6).values())


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
