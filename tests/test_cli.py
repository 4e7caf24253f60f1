"""Command-line interface: formats, determinism, exit codes."""

import contextlib
import io
import json
from xml.etree import ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittgrass.cli import ascii_diagram, main
from wittgrass.verify import verify_suites
from wittgrass import FramedDiagram, map_matrix, picard
from wittgrass.diagrams import row_jumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_ascii_diagram(self):
        assert ascii_diagram(FramedDiagram(2, 3, (2, 0))) == "##.\n..."

    def test_render_options_are_usage_errors(self, capsys):
        for argv, message in [
                (("--format", "svg", "--cell-size", "3"), "svg needs cell_size >= 4"),
                (("--cell-size", "0"), "cell_size must be positive"),
                (("--format", "json", "--cell-size", "-1"), "cell_size must be positive")]:
            code, out, err = run(capsys, "enumerate", "--d", "2", "--e", "2", *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv
        code, out, _ = run(capsys, "enumerate", "--d", "2", "--e", "2", "--cell-size", "2")
        assert code == 0 and out.startswith("rows=(2, 2)")

    def test_ascii_golden(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--d", "2", "--e", "2")
        assert code == 0
        assert out == (
            "rows=(2, 2)\n##\n##\n\n"
            "rows=(2, 0)\n##\n..\n\n"
            "rows=(1, 1)\n#.\n#.\n\n"
            "rows=(0, 0)\n..\n..\n")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--d", "2", "--e", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["frame"] == [2, 2]
        assert payload["count"] == 4
        assert payload["diagrams"][0]["rows"] == [2, 2]
        assert payload["diagrams"][0]["degree"] == {
            "shift": 0, "base": [], "twist": 0}

    def test_json_byte_stable(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--d", "3", "--e", "3",
                          "--format", "json")
        _, second, _ = run(capsys, "enumerate", "--d", "3", "--e", "3",
                           "--format", "json")
        assert first == second

    def test_svg_parses(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--d", "2", "--e", "2",
                           "--format", "svg", "--annotate")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f".//{ns}rect")
        # 8 filled cells plus 4 frame outlines
        assert len(rects) == 12
        assert root.findall(f".//{ns}text")

    def test_tall_frame(self, capsys):
        """Enumeration neither recurses per row nor builds every chain of rows."""
        code, out, err = run(capsys, "enumerate", "--d", "2500", "--e", "1")
        assert code == 0, err
        assert out.count("rows=") == 2

    def test_svg_rejects_tiny_cells(self, capsys):
        code, _, err = run(capsys, "enumerate", "--d", "2", "--e", "2",
                           "--format", "svg", "--cell-size", "2")
        assert code == 2
        assert "cell_size" in err


class TestTable:
    def test_trivial_base_flag(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "2", "--e", "2",
                           "--trivial-base")
        assert code == 0
        payload = json.loads(out)
        assert payload["trivial_base"] is True
        assert payload["total"] == 4
        assert {"shift": 2, "twist": 1, "rank": 2} in payload["ranks"]


class TestMaps:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "maps", "--d", "2", "--e", "2",
                           "--which", "bord")
        assert code == 0
        payload = json.loads(out)
        assert payload["source_frame"] == [1, 2]
        assert payload["target_frame"] == [2, 1]
        assert payload["matrix"] == [[0, 0], [0, 0]]

    @pytest.mark.parametrize("d,e", [(1, 1), (1, 3), (3, 1), (2, 3), (5, 4)])
    def test_json_written_by_row_equals_the_wire_form(self, capsys, d, e):
        for which in ("iota", "kappa", "bord"):
            code, out, _ = run(capsys, "maps", "--d", str(d), "--e", str(e),
                               "--which", which)
            assert code == 0
            assert out == json.dumps(map_matrix(which, d, e).to_json(), indent=2) + "\n"

    def test_ascii_arrows(self, capsys):
        code, out, _ = run(capsys, "maps", "--d", "2", "--e", "2",
                           "--which", "iota", "--format", "ascii")
        assert code == 0
        assert "iota: F(2,1) -> F(2,2)" in out
        assert "(1, 1) -> (2, 2)" in out
        assert "(0, 0) -> (1, 1)" in out

    def test_point_frame_labels(self, capsys):
        code, out, _ = run(capsys, "maps", "--d", "1", "--e", "1",
                           "--which", "iota", "--format", "ascii")
        assert code == 0
        assert "pt1 -> (1,)" in out


class TestClassify:
    def test_single_diagram(self, capsys):
        code, out, _ = run(capsys, "classify", "--d", "3", "--e", "3",
                           "--rows", "3,1,1", "--format", "ascii")
        assert code == 0
        assert "class=RowColumnPlusBlocks" in out

    def test_rejects_non_even(self, capsys):
        code, _, err = run(capsys, "classify", "--d", "2", "--e", "2",
                           "--rows", "2,1")
        assert code == 2
        assert "error" in err

    def test_whole_frame_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--d", "2", "--e", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 4


class TestCanonical:
    def test_payload(self, capsys):
        code, out, _ = run(capsys, "canonical", "--dvec", "1,3",
                           "--evec", "1,2", "--ambient", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["relative_dimension"] == 5
        assert {"gen": "TautDet", "index": 3, "coeff": 4} in payload["flag"]["terms"]

    def test_bad_tuples(self, capsys):
        code, _, err = run(capsys, "canonical", "--dvec", "3,1",
                           "--evec", "0,1", "--ambient", "6")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_single_scope(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "bord",
                           "--max-frame", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["suites"]["bord"]["ok"] is True

    def test_all_scopes_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "all",
                           "--max-frame", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["suites"]) == {"exactness", "degrees", "cond-even",
                                          "bord", "duality", "induction"}

    @pytest.mark.parametrize("argv, payload", [
        (["maps", "--d", "5", "--e", "5", "--which", "kappa"],
         lambda: map_matrix("kappa", 5, 5).to_json()),
        (["verify", "--scope", "all", "--max-frame", "3"],
         lambda: {"scope": "all", "max_frame": 3,
                  "suites": verify_suites("all", 3), "ok": True}),
    ])
    def test_streamed_json_equals_dumps(self, capsys, argv, payload):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(payload(), indent=2) + "\n"

    @pytest.mark.parametrize("max_frame", ["0", "-3"])
    def test_no_frames_is_a_usage_error(self, capsys, max_frame):
        for scope in ("all", "exactness", "bord"):
            code, out, err = run(capsys, "verify", "--scope", scope,
                                 "--max-frame", max_frame)
            assert code == 2
            assert out == ""
            assert "--max-frame" in err

    def test_suite_starting_past_max_frame_is_a_usage_error(self, capsys):
        for scope in ("all", "degrees", "bord", "induction"):
            code, out, err = run(capsys, "verify", "--scope", scope,
                                 "--max-frame", "1")
            assert code == 2
            assert out == ""
            assert "no frames" in err
        code, out, _ = run(capsys, "verify", "--scope", "exactness",
                           "--max-frame", "1")
        assert code == 0
        assert json.loads(out)["suites"]["exactness"]["frames"] == 1


class TestVerificationFailure:
    """Exit code 1: a broken canonical, a stray TautDet(d_1) bit in the fiber
    mask of rows (4, 2, 2) of the 3x4 frame, fails every command that
    validates that frame's twists."""

    @pytest.fixture
    def broken(self, monkeypatch):
        diagram = FramedDiagram(3, 4, (4, 2, 2))
        jumps = row_jumps(diagram.rows, diagram.e)
        original = picard._masks

        def stray_term(d, e, rows):
            fiber, twist, admissible = original(d, e, rows)
            if (d, e, tuple(rows)) == diagram:
                fiber ^= 1 << (d + e + jumps[0][0])  # TautDet(d_1)
            return fiber, twist, admissible

        monkeypatch.setattr(picard, "_masks", stray_term)

    @pytest.mark.parametrize("argv", [["table", "--d", "3", "--e", "4"],
                                      ["enumerate", "--d", "3", "--e", "4",
                                       "--format", "json"]])
    def test_basis_commands_exit_1(self, capsys, broken, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("verification failure: ")
        assert err.rstrip().endswith("rows=(4, 2, 2)")

    def test_verify_exits_1_with_the_witnesses(self, capsys, broken):
        code, out, _ = run(capsys, "verify", "--scope", "cond-even", "--max-frame", "4")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        witness = {"frame": [3, 4], "rows": [4, 2, 2]}
        assert payload["suites"]["cond-even"]["failures"] == [
            witness, {**witness, "reason": "admissibility"}]


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_frames_wider_than_255_columns_exit_2(self, capsys):
        """A row is one byte: 255 columns enumerate, 256 are a usage error that
        names the bound."""
        code, out, err = run(capsys, "table", "--d", "1", "--e", "255")
        assert (code, err) == (0, "") and json.loads(out)["total"] == 2
        code, out, err = run(capsys, "table", "--d", "1", "--e", "256")
        assert (code, out) == (2, "")
        assert err == "error: a key has a byte per row: at most 255 columns, not 256\n"

    def test_unknown_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--d", "2", "--e", "2", "--format", "png"])
        assert exc.value.code == 2


# Malformed values: text that int() rejects, and ints that frames reject.  A
# value that int() accepts stays small, so no drawn command runs long.
_NOT_INTS = st.sampled_from(["", " ", "x", "1.5", "1e2", "0x3", "nan", "2,3",
                             "--", "-x", "½", "3 3"])


def _small_int(lo, hi):
    ints = st.integers(lo, hi).map(str)
    return st.one_of(ints, ints, ints, _NOT_INTS)


def _int_list(lo, hi):
    # comma-separated ints: increasing ones (valid jump tuples and reversed
    # row lists), any ones, junk items mixed in, and raw text
    ints = st.integers(lo, hi)
    increasing = st.lists(ints, unique=True, min_size=1, max_size=4).map(sorted)
    lists = st.one_of(increasing, increasing.map(lambda v: v[::-1]),
                      st.lists(st.one_of(ints, _NOT_INTS), max_size=5))
    return st.one_of(lists.map(lambda items: ",".join(map(str, items))),
                     st.text("0123456789,- x.", max_size=8))


@st.composite
def _malformed_argv(draw):
    # "--opt=value", so that argparse hands a value such as "-1,2" to the
    # command instead of reading it as an option
    frame = [f"--d={draw(_small_int(-2, 5))}", f"--e={draw(_small_int(-2, 5))}"]
    command = draw(st.sampled_from(["enumerate", "table", "maps", "classify",
                                    "canonical", "verify"]))
    if command == "maps":
        return ["maps", *frame, "--which", draw(st.sampled_from(["iota", "kappa", "bord"]))]
    if command == "classify":
        return ["classify", *frame, f"--rows={draw(_int_list(-1, 5))}"]
    if command == "canonical":
        return ["canonical", f"--dvec={draw(_int_list(-1, 5))}",
                f"--evec={draw(_int_list(-1, 5))}", f"--ambient={draw(_small_int(-2, 10))}"]
    if command == "verify":
        return ["verify", f"--max-frame={draw(_small_int(-2, 3))}",
                "--scope", draw(st.sampled_from(["all", "exactness", "degrees",
                                                 "cond-even", "bord", "duality",
                                                 "induction"]))]
    return [command, *frame]


class TestFuzzedArguments:
    @settings(max_examples=200, deadline=None)
    @given(_malformed_argv())
    @example(["enumerate", "--d=2", "--e=--"])
    def test_exit_0_or_2_and_no_traceback(self, argv):
        """Malformed frames, row lists, jump tuples, ambient ranks and
        --max-frame values end in exit 0 or a usage error (2), never in an
        uncaught exception."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        assert code in (0, 2), argv
