"""comlie benchmark: seeded closed-loop request streams with checked outputs.

Run from the root of a checkout (it imports the program from ``src/``):

    python3 perfbench/run.py --workload series_stream --seed 1 --seconds 15 --trace 0

A run sets up fresh interpreters several times (``setup_s``), then runs as
many passes as fit ``--seconds`` at the speed of the first, and at least
enough for 100 requests.  Each pass is a fresh
worker interpreter that sends one seeded request list, one request at a
time, and checks every outcome after its timed loop.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it runs
pass 0 untraced and then traced, and carries the per-layer metrics.  The
traced pass's spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
MIN_REQUESTS = 100
PROCESS_TIMEOUT_S = 170
#: Interpreter runs known to contradict the README; reported, not counted.
PROBES = {
    "verify_linalg": [
        (["verify", "--suite", "basis", "--group", "u", "--rank", "5"], 3),
    ],
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "count": ("_calls", "_hits", "_misses", "classes_summed", "coeff_products",
              "coeff_updates", "term_pairs", "rank_rows", "rank_cells",
              "elements_yielded", "chains_keyed"),
    "bytes": ("output_bytes",),
    "ratio": ("hit_ratio", "rank_yield", "overhead_frac"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    for unit, suffixes in LAYER_UNITS.items():
        if name.endswith(suffixes):
            return unit
    raise ValueError(f"no unit for {name}")


class Runner:
    """Starts worker interpreters for one benchmark run inside ``root``."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = root / ".perfbench_run" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def worker(self, *args: str) -> tuple[float, float, subprocess.Popen]:
        """Start a worker; returns (set-up seconds, import seconds, process)."""
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if not line:
            self.finish(proc)
            raise RuntimeError(f"worker exited with {proc.returncode} before set-up")
        return setup, json.loads(line)["import_s"], proc

    @staticmethod
    def finish(proc: subprocess.Popen) -> None:
        """Wait for a worker; one that overruns is killed and reaped."""
        try:
            proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise

    def setup_sample(self) -> tuple[float, float]:
        setup, import_s, proc = self.worker("--setup-only")
        self.finish(proc)
        return setup, import_s

    def run_pass(self, pass_index: int, trace: bool) -> dict:
        """One pass in a fresh worker.  The request list is made here, so
        neither its generation nor its memory counts against the worker."""
        requests = workloads.requests(self.workload, self.seed, pass_index)
        tmp = self.tmp / f"pass-{pass_index}-{int(trace)}"
        tmp.mkdir()
        (tmp / "requests.json").write_text(json.dumps(requests))
        args = ["--workload", self.workload, "--trace", str(int(trace)),
                "--tmp", str(tmp)]
        if trace:
            spans_out = (self.root / ".perfbench_out"
                         / f"spans-{self.workload}-seed{self.seed}.json")
            args += ["--spans-out", str(spans_out)]
        setup, _, proc = self.worker(*args)
        self.finish(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"pass {pass_index} worker exited {proc.returncode}")
        result = json.loads((tmp / "result.json").read_text())
        result.update(setup_s=setup, attempted=len(requests),
                      strata=workloads.strata_counts(requests),
                      cost_proxy=workloads.cost_proxy(self.workload, requests))
        return result

    def probe(self, argv: list[str], expected: int) -> dict:
        proc = subprocess.run([sys.executable, "-m", "comlie", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
        return {"argv": argv, "documented_exit": expected,
                "exit": proc.returncode}


def _git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pass_count(seconds: float, first_wall_s: float, requests_per_pass: int) -> int:
    """Passes that fill ``seconds`` at the speed of the first, and enough
    for MIN_REQUESTS requests, so ten latencies lie beyond the 90th
    percentile."""
    return max(round(seconds / first_wall_s),
               math.ceil(MIN_REQUESTS / requests_per_pass))


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, tuple]:
    """Metric -> (value, samples).  Set-up, wall time and memory are medians
    over samples, so one slow start or pass does not move a run; latency
    percentiles pool the requests of every pass."""
    latencies = [t for p in passes for t in p["latencies_s"]]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), len(passes)),
        "latency_p50_ms": (1e3 * workloads.percentile(latencies, 0.5), len(latencies)),
        "latency_p90_ms": (1e3 * workloads.percentile(latencies, 0.9), len(latencies)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        len(passes)),
    }


def per_layer(base: dict, traced: dict, imports: list[float]) -> dict[str, float]:
    cached = traced["cache_hits"] + traced["cache_misses"]
    metrics = {
        "cli.cache_hits": traced["cache_hits"],
        "cli.cache_misses": traced["cache_misses"],
        "cli.cache_hit_ratio": traced["cache_hits"] / cached if cached else 0.0,
        "cli.output_bytes": traced["output_bytes"],
        "cli.import_s": statistics.median(imports),
    }
    metrics.update(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "comlie" / "__init__.py").is_file():
        print(f"error: no comlie sources under {root / 'src'}; run from the "
              "root of a comlie checkout", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    runner.tmp.mkdir(parents=True)
    try:
        runner.setup_sample()  # writes bytecode caches; not a sample
        samples = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
        setups = [s for s, _ in samples]
        imports = [i for _, i in samples]
        passes: list[dict] = []
        if args.trace:
            base = runner.run_pass(0, trace=False)
            traced = runner.run_pass(0, trace=True)
            passes = [base, traced]
            metrics = per_layer(base, traced,
                                imports + base["import_s"] + traced["import_s"])
            units = {name: layer_unit(name) for name in metrics}
            samples_of = {name: 1 for name in metrics}
        else:
            passes.append(runner.run_pass(0, trace=False))
            count = pass_count(args.seconds, passes[0]["wall_s"],
                               passes[0]["attempted"])
            while len(passes) < count:
                passes.append(runner.run_pass(len(passes), trace=False))
            setups += [p["setup_s"] for p in passes]
            measured = end_to_end(passes, setups)
            metrics = {name: value for name, (value, _) in measured.items()}
            samples_of = {name: n for name, (_, n) in measured.items()}
            units = END_TO_END_UNITS
        probes = [runner.probe(a, e) for a, e in PROBES.get(args.workload, [])]
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "git_sha": _git_sha(root), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "passes": len(passes),
        "requests_per_pass": passes[0]["attempted"],
        "strata": passes[0]["strata"],
        "cost_proxy_s": [round(p["cost_proxy"], 4) for p in passes],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "probes": probes,
    }
    print(f"# comlie benchmark {json.dumps(meta, sort_keys=True)}")
    for probe in probes:
        if probe["exit"] != probe["documented_exit"]:
            print(f"# known defect: comlie {' '.join(probe['argv'])} exits "
                  f"{probe['exit']}, README documents {probe['documented_exit']}")
    for name, value in metrics.items():
        print(f"# {name:34s} {value:>16.6g} {units[name]:6s} n={samples_of[name]}")
    # Not a metric entry: it is 0 whenever the program is right.
    print(f"# {'failed_frac':34s} {meta['failed_frac']:>16.6g} {'ratio':6s} "
          f"n={attempted}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
