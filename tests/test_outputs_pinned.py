"""CLI outputs pinned to the benchmark's recorded digests.

Runs every operation of the benchmark's smoke workload, and of its
verify-all-8 and wide-sweep-11 workloads, through `cli.main` and compares
its exit code and stdout sha256 with perfbench/expected.json, so that a byte
change in an output fails here before the benchmark sees it.  The file is
only read.  The certification run at frame 12, and the outputs that write
a point frame's generators, are pinned here alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import replace
from wittgrass import cyclic_sequence, verify_degree_transport, verify_exactness
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


# ``maps --d D --e E --which W --format F``: each of these sequences has a
# point frame, d - 1 = 0 or e - 1 = 0, whose generators print as pt0 and pt1.
POINT_FRAME_MAPS = {
    "1 1 iota ascii": "9f11f34bcf82676049e5ab18ea0081c49a6a55804aab891ef2b2c24090c89f5f",
    "1 1 iota json": "fd0b26d3e9d18cb0243892a7cf848a14c5c6f4bd75f8c02127f58f0db9027e90",
    "1 1 kappa ascii": "8bca78f4206cd5eec51fe0f7460814cb14530ebcddb35a6320939ef3d4bca333",
    "1 1 kappa json": "680c11c86bbc1be0819d08e43a01e428c3a9b9dda7eb146f3229cfa9924494fd",
    "1 1 bord ascii": "106a9920ebe440f280c935caa3b678a987e40c47d66883fc155d5f8dc46688a7",
    "1 1 bord json": "b359610ed2e0b06227136b274403470025b7cdb5a5b058e059dad3c634ca8f59",
    "1 2 iota ascii": "51304f017c430b8b5fd93a105bc26abddaa8c5cdc25b7eb84335a2ffe53ecb3c",
    "1 2 iota json": "95c8acad58536b05bc4cf91ad05c41a06444501725178d379e4b616df03eec48",
    "1 2 kappa ascii": "5e109586646c97450a8f2ad05d4b6cf1c57dd362fa8e788a215c565f3b5f54b8",
    "1 2 kappa json": "cf537a1295f8f521359e930ca70052dc9731f7583888959fec7623b0ee77e6b3",
    "1 2 bord ascii": "6c402f341fed8bf6d83b1209a9e23bb5c5be0399bb6130769b05d6337d52a2d8",
    "1 2 bord json": "28a8b2220c52042fed93ccc0921dc4afc3d64fa8a6469620183c1b248d8100cc",
    "1 3 iota ascii": "e39a4774ea39b770482c8ef8a410f62b43cb0dcb11983b133ebdec8a3c81ad48",
    "1 3 iota json": "cf335c734651b3c183378454af07e027f3cd0b4aca88261cf220c458743235e6",
    "1 3 kappa ascii": "3622e76b04af2673d16bcb1943f80656f6ebf34258ccf2d5c2de6d9d28ba1f5e",
    "1 3 kappa json": "152d2de758dd73018d3d972131e8379da7b6c30e93c5b3b4c0aba502f3d77561",
    "1 3 bord ascii": "32aecb269e0d3756baba8fea464b303a6d698536ba8e5e332b4e4c7948415584",
    "1 3 bord json": "6833452f8c598499410f36caaefa4a60aa94f9d81a392486ab08c5b202d810d3",
    "2 1 iota ascii": "463df63631e4f63ec650fa2fd551ec7694eebfe292ea4ce294d62e3f75498695",
    "2 1 iota json": "62b869c0a42a57b57d75bdc6f7f0f14cd28364e1e5f120fe07476f22e0742aab",
    "2 1 kappa ascii": "59c946ba7a483b3585b7299408974be2235205339bdcb04d0a46a2d4383f4c5d",
    "2 1 kappa json": "7d896d8497ff0d4dc000d369f0d73a75c59b7e23b264244cde7d31ff1909c7fb",
    "2 1 bord ascii": "3206fcbd6aa8c51edf9867d4b9c19117468e73e8298a11f0e1edfd1393f1b415",
    "2 1 bord json": "83cd8c28cb6e181736e356932e0798fe301071519941bf0b87cbb0e96ee2f41a",
    "3 1 iota ascii": "da9ac9ee4d21db1477899c439c70530443d0ca91bb8d745c47f488071c9b4b24",
    "3 1 iota json": "6848105c3521a1515fb292455897aa8acd6329fe6719f968671826ccee7f71db",
    "3 1 kappa ascii": "14b41ec18b3700019c2d391385bdcf2c8d19fff3e54f01baf70ebe2dc7293942",
    "3 1 kappa json": "2cf15437dd283a468605c0dc95613535b55bfacaa7421de02ad0c1051db65842",
    "3 1 bord ascii": "16c28758286f5db7a4a50b80c5cc55172a25cf97597243592be328fab94ebd91",
    "3 1 bord json": "72e5325059ef3aa8324b4956f696f8916d845e5c375d94aa59f0acb2687a1913",
}


@pytest.mark.parametrize("key", list(POINT_FRAME_MAPS))
def test_point_frame_map_is_pinned(capsys, key):
    d, e, which, fmt = key.split()
    code = main(["maps", "--d", d, "--e", e, "--which", which, "--format", fmt])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == POINT_FRAME_MAPS[key]


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json()).encode("utf-8")).hexdigest()


def test_point_witnesses_are_pinned():
    """A kappa that sends every element of the (1, 2) sequence to zero leaves
    the empty row unhit at F(1,2) and the point generator pt0 at F(0,2)."""
    seq = cyclic_sequence(1, 2)
    kappa = replace(seq.kappa, images=(None,) * len(seq.kappa.source))
    report = verify_exactness(replace(seq, kappa=kappa), (2, 3))
    assert [p.to_json()["witnesses"] for p in report.positions] == \
        [[{"frame": [1, 2], "rows": [0]}], [{"pt": 0}], []]
    assert _digest(report) == \
        "f46bb27eb077a920e462e97248087b30420957227785c9fbdb2af7e079a1f4a5"


def test_point_transport_failure_is_pinned():
    """With the det twists of bord's target flipped, bord's one entry out of
    the point frame F(0,2), from pt1, carries the wrong twist."""
    seq = cyclic_sequence(1, 2)
    target = seq.bord.target
    flipped = replace(target, degrees=tuple(
        replace(deg, det_twist=1 - deg.det_twist) for deg in target.degrees))
    report = verify_degree_transport(replace(seq, bord=replace(seq.bord, target=flipped)))
    assert [f.to_json() for f in report.failures] == \
        [{"which": "bord", "source": {"pt": 1}, "expected": 0, "actual": 1}]
    assert _digest(report) == \
        "57a67699cb55f72d16eefc80190b4934a589f86879705b9125388b1413c37f51"
