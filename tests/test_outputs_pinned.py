"""CLI outputs pinned to the benchmark's recorded digests.

Runs every operation of the benchmark's smoke workload, and of its
verify-all-8 and wide-sweep-11 workloads, through `cli.main` and compares
its exit code and stdout sha256 with perfbench/expected.json, so that a byte
change in an output fails here before the benchmark sees it.  The file is
only read.  The certification run at frame 12 is pinned here alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wittgrass.cli import main

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text())

FRAME_4 = ["--d", "4", "--e", "4"]
SMOKE_OPS = [
    ["verify", "--scope", "all", "--max-frame", "3"],
    ["enumerate", *FRAME_4, "--format", "json"],
    ["table", *FRAME_4],
    ["classify", *FRAME_4],
    *(["maps", *FRAME_4, "--which", which] for which in ("iota", "kappa", "bord")),
]
WORKLOAD_OPS = [
    ["verify", "--scope", "all", "--max-frame", "8"],
    *(["verify", "--scope", scope, "--max-frame", "11"]
      for scope in ("degrees", "cond-even", "bord", "duality")),
]


@pytest.mark.parametrize("argv", SMOKE_OPS + WORKLOAD_OPS, ids=" ".join)
def test_output_matches_recorded_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out.encode("utf-8")
    expected = EXPECTED[" ".join(argv)]
    assert code == expected["exit"]
    assert len(out) == expected["bytes"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]


def test_frame_12_certification_is_pinned(capsys):
    """Frame 12 lies beyond the benchmark's frames; its digest was recorded
    before bases began to build their degrees and maps their images on first
    read, and before duality transposed each key once."""
    code = main(["verify", "--scope", "all", "--max-frame", "12"])
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, len(out)) == (0, 579)
    assert hashlib.sha256(out).hexdigest() == \
        "e846ae0996ecae6375e89af737ea793c8f5648ffe2ea76bc7e7b50d9f2752fed"
