"""Benchmark of the wittgrass command-line tool, with every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all-8 --seed 1 --seconds 60 --trace 0

An iteration runs every operation of the workload, one at a time, in a
fresh interpreter (perfbench/worker.py) that imports wittgrass.cli from
./src and calls `cli.main(argv)` with stdout captured.  The seed permutes
the order of the operations in each iteration; outputs do not depend on
that order.  Rounds (an untraced iteration, plus a traced one under
--trace 1) run one after another while the next is expected to end within
--seconds, judged by the longest round so far; there is always one.  Each
operation must exit with the code and print the stdout sha256 recorded in
perfbench/expected.json, and a verify operation must report "ok": true.

--trace 0 reports the end-to-end metrics:
  wall_s       median over iterations of the time from the first operation
               to the end of the last;
  setup_s      median time to import wittgrass.cli in a fresh interpreter,
               over SETUP_SAMPLES interpreters that run no operation, taken
               between rounds in step with the elapsed share of the run;
  peak_rss_mb  median over iterations of the process's peak resident set.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics (see perfbench/tracing.py); spans go to .bench_out/.

Summary lines, error_rate (failed / attempted operations) among them, come
first; the last line of stdout is one JSON object.  Exit code 0 means a
result was printed, 1 a harness failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import OPERATION, traced_names

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 30
RUN_LIMIT_S = 170.0


def _verify(scope: str, max_frame: int) -> list[str]:
    return ["verify", "--scope", scope, "--max-frame", str(max_frame)]


def _frame_ops(n: int) -> list[list[str]]:
    frame = ["--d", str(n), "--e", str(n)]
    return ([["enumerate", *frame, "--format", "json"], ["table", *frame],
             ["classify", *frame]]
            + [["maps", *frame, "--which", which]
               for which in ("iota", "kappa", "bord")])


WORKLOADS = {
    # the certification run; integer linear algebra dominates
    "verify-all-8": [_verify("all", 8)],
    # 121 frames, no integer linear algebra: enumeration, picard checks,
    # map building and degree transport
    "wide-sweep-11": [_verify(scope, 11)
                      for scope in ("degrees", "cond-even", "bord", "duality")],
    # one large frame: dense map matrices and large JSON outputs.  Not listed
    # in BENCHMARK.json: on a shared 2-vCPU machine its run medians spread
    # by a quarter or more, since this memory-heavy work slows most when
    # the host is busy.  Run it by hand to see map storage and JSON output.
    "large-frame-12": _frame_ops(12),
    # tiny; used by the harness's own smoke test
    "smoke": [_verify("all", 3)] + _frame_ops(4),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names() + [OPERATION]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "cli.stdout_bytes": "bytes",
        "intmatrix.diagonalize.cells": "count",
        "intmatrix.diagonalize_per_position": "ratio",
        "witt_modules.exactness_positions": "count",
        "witt_modules.map_matrix.entries": "count",
        "witt_modules.map_builds_per_triple": "ratio",
        "witt_modules.map_triples": "count",
        "diagrams.enumerations_per_frame": "ratio",
        "diagrams.frames_enumerated": "count",
        "trace.overhead_s": "s",
    })
    return units


class BenchError(Exception):
    """The harness could not produce a result."""


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(root: Path, ops: list[list[str]], trace: bool,
               spans: Path | None, deadline: float) -> dict:
    """Run one iteration in a fresh interpreter and return its report."""
    request = {"src": str(root / "src"), "ops": ops, "trace": trace,
               "spans": str(spans) if spans else None}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # numpy serves only as an object-dtype container and never calls BLAS.
    # Left alone, OpenBLAS starts one thread per core at import, and that
    # start-up swings between about 0.01 and 0.08 s with the load of a
    # shared machine, which would make setup_s bimodal.
    env["OPENBLAS_NUM_THREADS"] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {op_key(ops[0]) if ops else 'import'}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_failure(record: dict, expected: dict) -> str | None:
    """Why an operation failed its check, or None when it passed."""
    want = expected.get(op_key(record["argv"]))
    if want is None:
        return "no recorded digest"
    if record["error"] is not None:
        return f"raised {record['error']}"
    if record["exit"] != want["exit"]:
        return f"exit {record['exit']}, expected {want['exit']}"
    if record["sha256"] != want["sha256"]:
        return "stdout digest differs"
    if record["argv"][0] == "verify":
        try:
            ok = json.loads(record["stdout"]).get("ok") is True
        except ValueError:
            ok = False
        if not ok:
            return 'verify output does not parse with "ok": true'
    return None


def _per_layer(traced: list[dict]) -> dict:
    first = traced[0]["trace"]
    values: dict[str, float] = {}
    for name, calls in first["calls"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = statistics.median(
            r["trace"]["self_s"][name] for r in traced)
    values.update(first["counts"])
    values["cli.stdout_bytes"] = sum(op["bytes"] for op in traced[0]["ops"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["intmatrix.diagonalize_per_position"] = ratio(
        first["calls"]["intmatrix.diagonalize"],
        first["counts"]["witt_modules.exactness_positions"])
    values["witt_modules.map_builds_per_triple"] = ratio(
        first["calls"]["witt_modules.map_matrix"],
        first["counts"]["witt_modules.map_triples"])
    values["diagrams.enumerations_per_frame"] = ratio(
        first["calls"]["diagrams.enumerate_even"],
        first["counts"]["diagrams.frames_enumerated"])
    values["trace.overhead_s"] = statistics.median(
        r["trace"]["overhead_s"] for r in traced)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, root: Path) -> tuple[dict, list[str]]:
    """Run the workload for about `seconds`; return the result and notes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(seed)
    ops = WORKLOADS[workload]
    spans_dir = root / ".bench_out"
    if trace:
        spans_dir.mkdir(exist_ok=True)
    # compiles bytecode and warms the file cache; not measured
    run_worker(root, [], False, None, deadline)

    untraced: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []

    def time_setup(upto: int) -> None:
        while len(setup) < min(upto, SETUP_SAMPLES):
            setup.append(run_worker(root, [], False, None, deadline)["setup_s"])

    start = time.monotonic()
    end = start + seconds
    longest = 0.0
    while not untraced or time.monotonic() + longest <= end:
        began = time.monotonic()
        for tracing in ((False, True) if trace else (False,)):
            order = rng.sample(ops, len(ops))
            spans = (spans_dir / f"spans-{workload}-seed{seed}-{len(traced)}.jsonl"
                     if tracing else None)
            report = run_worker(root, order, tracing, spans, deadline)
            (traced if tracing else untraced).append(report)
        # spread the import timings over the run, so that a load swing on
        # the host moves few of them
        time_setup(math.ceil(SETUP_SAMPLES * (time.monotonic() - start) / seconds))
        longest = max(longest, time.monotonic() - began)
    time_setup(SETUP_SAMPLES)

    attempted = failed = 0
    for report in untraced + traced:
        for record in report["ops"]:
            attempted += 1
            reason = op_failure(record, expected)
            if reason:
                failed += 1
                print(f"FAILED {op_key(record['argv'])}: {reason}", file=sys.stderr)

    if trace:
        values = _per_layer(traced)
        units = per_layer_units()
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    walls = sorted(r["wall_s"] for r in untraced)
    notes = [f"workload {workload} seed {seed}: {len(untraced)} untraced and "
             f"{len(traced)} traced iterations; import timed in {len(setup)} "
             f"more interpreters",
             f"untraced wall_s per iteration: min {walls[0]:.4f} "
             f"median {statistics.median(walls):.4f} max {walls[-1]:.4f} s"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wittgrass" / "cli.py").is_file():
        print("run.py: no src/wittgrass here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result, notes = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), load_expected(), root)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print("\n".join(notes))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
