"""Tests of the benchmark's request generators, output checks and trace
wrappers.  Run with the rest of the suite: PYTHONPATH=src python -m pytest"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
import worker
import workloads
import comlie
from comlie import coinvariants, multisym, poincare, qseries, repa, toriposet, weylcomb

HERE = Path(__file__).resolve().parent


def test_same_seed_gives_byte_identical_requests():
    for workload in workloads.WORKLOADS:
        first = json.dumps(workloads.requests(workload, 7, 1))
        assert first == json.dumps(workloads.requests(workload, 7, 1))
        assert first != json.dumps(workloads.requests(workload, 8, 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_strata_counts_and_cost(workload):
    lists = [workloads.requests(workload, seed) for seed in range(6)]
    assert len({json.dumps(workloads.strata_counts(r)) for r in lists}) == 1
    costs = [workloads.cost_proxy(workload, r) for r in lists]
    assert max(costs) / min(costs) < 1.05


def test_runs_fill_their_time_and_send_at_least_100_requests():
    import run

    assert run.pass_count(20, 4.5, 106) == 4
    assert run.pass_count(20, 10.5, 70) == 2
    assert run.pass_count(20, 15.0, 70) == 2
    assert run.pass_count(1, 4.5, 106) == 1


def _series(family, n, what, maxdeg, oracle=False, fmt="json", expect=0):
    argv = workloads.series_argv(family, n, what, maxdeg, oracle, fmt)
    return {"id": 0, "stratum": "test", "cli": argv, "expect": expect}


def test_correct_outputs_pass_in_every_format():
    checker = checks.Checker()
    for fmt in workloads.FORMATS:
        for request in (_series("U", 4, "ecom", 12, fmt=fmt),
                        _series("Sp", 2, "bcom", 16, oracle=True, fmt=fmt),
                        _series("SU", 12, "ecom", 40, oracle=True, fmt=fmt),
                        _series("U", 3, "bg", 12, fmt=fmt)):
            assert checker.check(request, worker.run_in_process(request)) is None


def test_wrong_outputs_and_exit_codes_count_as_failures():
    checker = checks.Checker()
    ok = _series("U", 3, "ecom", 12)
    good = worker.run_in_process(ok)
    corrupted = dict(good, stdout=good["stdout"].replace("[1, 0, 0, 0, 1,",
                                                         "[1, 0, 0, 0, 2,"))
    assert corrupted["stdout"] != good["stdout"]
    capped = _series("U", 12, "bcom", 20, expect=3)
    refused = worker.run_in_process(capped)
    assert checker.check(capped, refused) is None
    verify = {"id": 0, "stratum": "test", "expect": 3,
              "cli": ["verify", "--suite", "basis", "--group", "u", "--rank", "5"]}
    quotient = {"id": 0, "stratum": "test", "expect": 0,
                "call": "multisym.quotient_graded_dims", "args": ["U", 2, "ecom", 4]}
    dims = worker.run_in_process(quotient)
    over = dict(quotient, args=["U", 5, "ecom", 4], expect="GroupSizeError")
    cases = [
        (ok, good, False),
        (ok, corrupted, True),
        (ok, dict(good, exit=3), True),
        (ok, dict(good, error="ZeroDivisionError"), True),
        (capped, refused, False),
        (capped, dict(refused, exit=0), True),
        (verify, dict(refused, exit=2), True),
        (quotient, dims, False),
        (quotient, dict(dims, value={**dims["value"], 2: 7}), True),
        (over, worker.run_in_process(over), False),
        (over, dims, True),
    ]
    failures = worker.check_all([dict(r, id=i) for i, (r, _, _) in enumerate(cases)],
                                [o for _, o, _ in cases], checker)
    assert [f["id"] for f in failures] == [i for i, c in enumerate(cases) if c[2]]


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "series_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _bindings() -> dict:
    owners = [m for name, m in sys.modules.items()
              if name == "comlie" or name.startswith("comlie.")]
    owners += [qseries.QPoly, qseries.RationalSeries, multisym.MultiPoly]
    return {(id(o), attr): obj for o in owners for attr, obj in vars(o).items()}


def test_wrappers_patch_every_binding_and_are_removed():
    before = _bindings()
    elements, exact_div = weylcomb.elements, qseries.exact_div
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert weylcomb.elements is not elements
        assert multisym.elements is repa.elements is weylcomb.elements
        assert comlie.elements is weylcomb.elements
        assert qseries.exact_div is not exact_div
        assert repa.exact_div is toriposet.exact_div is qseries.exact_div
        assert qseries.QPoly.__rmul__ is qseries.QPoly.__mul__
        assert coinvariants.partitions is repa.partitions
        assert sum(1 for _ in weylcomb.elements("sym", 3)) == 6
    assert [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans] == [
        ("weylcomb.elements", None), ("weylcomb.enumeration_cap", 0)]
    assert tracer.spans[0][spans.YIELDS] == 6
    assert _bindings() == before
    list(multisym.elements("signed", 2))
    worker.run_in_process(_series("U", 3, "bcom", 12))
    assert len(tracer.spans) == 2


def _traced_requests(requests: list[dict]) -> spans.Tracer:
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for request in requests:
            with tracer.root(request["id"]):
                worker.run_in_process(request)
    return tracer


SMALL_REQUESTS = [
    _series("U", 10, "ecom", 40, oracle=True),
    _series("Sp", 3, "bcom", 20),
    _series("SU", None, "stable", 24),
    {"stratum": "test", "expect": 0,
     "cli": ["verify", "--suite", "basis", "--group", "sp", "--rank", "2",
             "--maxdeg", "8"]},
    {"stratum": "test", "expect": 0,
     "cli": ["verify", "--suite", "fakedeg", "--group", "u", "--rank", "5"]},
    {"stratum": "test", "expect": 0, "cli": ["poset", "--rank", "6"]},
    {"stratum": "test", "expect": 0, "call": "multisym.quotient_graded_dims",
     "args": ["U", 2, "bcom", 4]},
    {"stratum": "test", "expect": 0, "call": "toriposet.chain_classes",
     "args": [5, [1, 2]]},
    {"stratum": "test", "expect": 0, "call": "repa.fiber_numerator_series",
     "args": [6]},
]
SMALL_REQUESTS = [dict(r, id=i) for i, r in enumerate(SMALL_REQUESTS)]


def test_per_request_self_times_sum_to_the_root_span():
    tracer = _traced_requests(SMALL_REQUESTS)
    records = tracer.spans
    selfs = spans.self_times(records)
    for request in SMALL_REQUESTS:
        mine = [s for s in records if s[spans.REQUEST] == request["id"]]
        (root,) = [s for s in mine if s[spans.NAME] == spans.ROOT]
        assert all(records[s[spans.PARENT]][spans.REQUEST] == request["id"]
                   for s in mine if s is not root)
        assert sum(selfs[s[spans.ID]] for s in mine) == pytest.approx(
            root[spans.BUSY], rel=1e-9)
        assert min(selfs[s[spans.ID]] for s in mine) > -1e-9


def _clear_memo_caches() -> None:
    for module in (poincare, multisym, repa):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        _clear_memo_caches()
        metrics = spans.layer_metrics(_traced_requests(SMALL_REQUESTS).spans)
        session = worker.Session(tmp_path / str(attempt))
        for request in (SMALL_REQUESTS[1], SMALL_REQUESTS[2], SMALL_REQUESTS[1]):
            session.send({**request, "proc": request["cli"] + [
                "--cache-dir", "{cache_dir}"]})
        metrics["cli.cache_hits"] = session.cache_hits
        counts.append(_counts(metrics))
    assert counts[0] == counts[1]
    for name in ("weylcomb.elements_yielded", "coinvariants.classes_summed",
                 "multisym.rank_rows", "multisym.mul_term_pairs",
                 "toriposet.chains_keyed", "qseries.qpoly_mul_term_pairs"):
        assert counts[0][name] > 0, name
    assert counts[0]["cli.cache_hits"] == 1


def test_metric_names_match_benchmark_json():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    result = {"cache_hits": 1, "cache_misses": 1, "output_bytes": 10,
              "wall_s": 2.0, "layers": spans.layer_metrics([])}
    names = run.per_layer({"wall_s": 1.0}, result, [0.1])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.layer_unit(name)) for name in names]
