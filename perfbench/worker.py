"""One pass of a workload in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports comlie, prints one ``ready`` line (the parent times set-up
up to that line), then reads the pass's ``requests.json``, sends the requests
one after another, each only after the previous one returned, checks every
outcome after the timed loop, and writes ``result.json``.  With
``--setup-only`` it exits after the ready line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import comlie  # noqa: E402
import comlie.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

HERE = Path(__file__).resolve().parent


def _library_call(name: str, args: list):
    from comlie import multisym, repa, toriposet

    if name == "multisym.quotient_graded_dims":
        family, n, ideal, degree = args
        make_ideal = getattr(multisym, f"{ideal}_ideal")
        kind = "signed" if family == "Sp" else "sym"
        return multisym.quotient_graded_dims(kind, n, make_ideal(family, n),
                                             degree)
    if name == "repa.fiber_numerator_series":
        return repa.fiber_numerator_series(*args)
    if name == "toriposet.chain_classes":
        return toriposet.chain_classes(args[0], tuple(args[1]))
    if name == "toriposet.chain_class_count_bruteforce":
        return toriposet.chain_class_count_bruteforce(args[0], tuple(args[1]))
    raise ValueError(f"unknown library call {name}")


def run_in_process(request: dict) -> dict:
    """Send one in-process request; returns its outcome."""
    out = {"exit": None, "stdout": "", "error": None, "value": None}
    if "call" in request:
        try:
            out["value"] = _library_call(request["call"], request["args"])
        except Exception as exc:  # a failed request is recorded, not fatal
            out["error"] = type(exc).__name__
        return out
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            out["exit"] = comlie.cli.main(list(request["cli"]))
    except SystemExit as exc:
        out["exit"] = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed request
        out["error"] = type(exc).__name__
    out["stdout"] = stdout.getvalue()
    return out


def run_process(request: dict, cache_dir: Path, spans_path: Path | None) -> dict:
    """Send one request as its own ``python -m comlie`` process, or through
    the tracing entry script when ``spans_path`` is given."""
    argv = [a.replace("{cache_dir}", str(cache_dir)) for a in request["proc"]]
    if spans_path is None:
        cmd = [sys.executable, "-m", "comlie", *argv]
    else:
        cmd = [sys.executable, str(HERE / "trace_entry.py"), str(spans_path),
               *argv]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return {"exit": proc.returncode, "stdout": proc.stdout, "error": None,
            "value": None}


class Session:
    """The closed loop of one pass: sends requests one at a time and keeps
    outcomes, latencies and the outside view of the cache directory."""

    def __init__(self, tmp: Path, tracer=None) -> None:
        self.tmp = tmp
        self.tracer = tracer
        self.cache_dir = tmp / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.outcomes: list[dict] = []
        self.latencies: list[float] = []
        self.cache_hits = self.cache_misses = self.output_bytes = 0
        self.child_spans: list[tuple[int, Path]] = []

    def send(self, request: dict) -> None:
        if "proc" in request:
            before = len(os.listdir(self.cache_dir))
            spans_path = None
            if self.tracer is not None:
                spans_path = self.tmp / f"spans-{request['id']}.json"
                self.child_spans.append((request["id"], spans_path))
            start = time.perf_counter()
            outcome = run_process(request, self.cache_dir, spans_path)
            self.latencies.append(time.perf_counter() - start)
            if len(os.listdir(self.cache_dir)) > before:
                self.cache_misses += 1
            else:
                self.cache_hits += 1
        elif self.tracer is not None:
            start = time.perf_counter()
            with self.tracer.root(request["id"]):
                outcome = run_in_process(request)
            self.latencies.append(time.perf_counter() - start)
        else:
            start = time.perf_counter()
            outcome = run_in_process(request)
            self.latencies.append(time.perf_counter() - start)
        self.output_bytes += len(outcome["stdout"].encode())
        self.outcomes.append(outcome)

    def merge_child_spans(self) -> list[float]:
        """Append the spans written by traced child processes, renumbered
        and tagged with their request; returns the children's import times."""
        import spans

        imports = []
        for request_id, path in self.child_spans:
            child = json.loads(path.read_text())
            imports.append(child["import_s"])
            offset = len(self.tracer.spans)
            for span in child["spans"]:
                span[spans.ID] += offset
                if span[spans.PARENT] is not None:
                    span[spans.PARENT] += offset
                span[spans.REQUEST] = request_id
                self.tracer.spans.append(span)
        return imports


def check_all(requests: list[dict], outcomes: list[dict], checker) -> list[dict]:
    """Failed requests, with the reason each one failed."""
    failures = []
    for request, outcome in zip(requests, outcomes):
        reason = checker.check(request, outcome)
        if reason is not None:
            failures.append({"id": request["id"], "stratum": request["stratum"],
                             "reason": reason})
    return failures


def run_pass(workload: str, requests: list[dict], trace: bool, tmp: Path,
             spans_out: Path | None = None) -> dict:
    import checks
    import spans

    tracer = spans.Tracer() if trace else None
    session = Session(tmp, tracer)
    with spans.traced(tracer) if trace else contextlib.nullcontext():
        start = time.perf_counter()
        for request in requests:
            session.send(request)
        wall = time.perf_counter() - start
    usage = (resource.RUSAGE_CHILDREN if workload == "cli_cached"
             else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    result = {
        "wall_s": wall,
        "latencies_s": session.latencies,
        "peak_rss_mb": peak_rss_mb,
        "failures": check_all(requests, session.outcomes, checks.Checker()),
        "import_s": [IMPORT_S],
        "cache_hits": session.cache_hits,
        "cache_misses": session.cache_misses,
        "output_bytes": session.output_bytes,
    }
    if trace:
        result["import_s"] += session.merge_child_spans()
        result["layers"] = spans.layer_metrics(tracer.spans)
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            spans_out.write_text(json.dumps(
                {"fields": spans.FIELDS, "spans": tracer.spans}))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, help="pass directory with requests.json")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()
    print(json.dumps({"ready": True, "import_s": IMPORT_S}), flush=True)
    if args.setup_only:
        return 0
    requests = json.loads((args.tmp / "requests.json").read_text())
    result = run_pass(args.workload, requests, bool(args.trace), args.tmp,
                      args.spans_out)
    (args.tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
