"""One iteration of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<request as JSON>'

The request holds "src" (the directory wittgrass must be imported from),
"ops" (argv lists for `wittgrass.cli.main`, run in order), "trace" (whether
to install the layer tracer) and "spans" (where the tracer writes its spans,
or null).  The worker times `import wittgrass.cli`, runs each operation with
its stdout sent to a digest sink, and prints one JSON object: setup_s,
wall_s, peak_rss_mb, one record per operation and, when tracing, the trace
summary.  An empty "ops" list only measures the import.

Only sys and time are imported before the timed import, so every module
wittgrass.cli pulls in (json among them) counts towards setup_s; the
worker's other modules are imported inside the functions that use them.
"""

import sys
import time


class DigestSink:
    """Stand-in for stdout that hashes what is written; keeps the text if asked.

    The CLI writes its output with print() only, so write and flush suffice.
    """

    def __init__(self, keep: bool) -> None:
        import hashlib
        self.sha256 = hashlib.sha256()
        self.size = 0
        self.kept: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha256.update(data)
        self.size += len(data)
        if self.kept is not None:
            self.kept.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_operation(cli, argv: list[str], tracer) -> dict:
    from contextlib import nullcontext, redirect_stdout
    # verify reports are small, and the harness parses them for "ok": true
    sink = DigestSink(keep=argv[0] == "verify")
    error = None
    with redirect_stdout(sink), (tracer.operation() if tracer else nullcontext()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code, error = None, repr(exc)
    record = {"argv": argv, "exit": code, "sha256": sink.sha256.hexdigest(),
              "bytes": sink.size, "error": error}
    if sink.kept is not None:
        record["stdout"] = "".join(sink.kept)
    return record


def main() -> int:
    start = time.perf_counter()
    import wittgrass.cli as cli
    setup_s = time.perf_counter() - start

    import json
    import resource
    from pathlib import Path

    request = json.loads(sys.argv[1])
    imported = Path(cli.__file__).resolve().parent.parent
    if imported != Path(request["src"]).resolve():
        print(f"worker: imported wittgrass from {imported}, not {request['src']}",
              file=sys.stderr)
        return 2
    tracer = None
    if request["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    ops = [run_operation(cli, argv, tracer) for argv in request["ops"]]
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "ops": ops, "trace": tracer.summary() if tracer else None}
    if tracer and request["spans"]:
        tracer.write_spans(request["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
