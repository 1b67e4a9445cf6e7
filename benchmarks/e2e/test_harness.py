"""Fast self-tests of the harness itself -- no FHE, no ``repro`` import.

Run with ``python -m pytest benchmarks/e2e/test_harness.py`` (they are
also picked up by the repo-wide tier-1 run).
"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import loadgen  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from stats import median, quartile_spread, tail  # noqa: E402


# -- the tail-percentile rule ---------------------------------------------------
@pytest.mark.parametrize(
    "count, expected_pct",
    [(3, 50), (19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (150, 90), (200, 95), (1000, 99)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected_pct):
    samples = list(range(1, count + 1))
    pct, value = tail(samples)
    assert pct == expected_pct
    assert sum(1 for s in samples if s > value) >= (10 if count >= 20 else 0)


def test_median_and_quartile_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert quartile_spread([10.0] * 10) == 0.0
    # quartiles of 1..10 by statistics.quantiles: 2.75, 5.5, 8.25
    assert quartile_spread(list(range(1, 11))) == pytest.approx(1.0)


# -- span self-time -------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with rec.span("inference") as root:
        clock.now += 1.0  # unattributed
        with rec.span("linear") as linear:
            clock.now += 5.0
            with rec.span("keyswitch"):
                clock.now += 2.0
        with rec.span("poly"):
            clock.now += 3.0
        clock.now += 0.5  # unattributed
    spans = rec.spans
    assert spans[root].duration == pytest.approx(11.5)
    assert spans[root].self_time == pytest.approx(1.5)  # grandchildren are not subtracted twice
    assert spans[linear].duration == pytest.approx(7.0)
    assert spans[linear].self_time == pytest.approx(5.0)
    assert rec.child_seconds(root) == {"linear": pytest.approx(7.0), "poly": pytest.approx(3.0)}
    # rows + residual == total
    assert sum(rec.child_seconds(root).values()) + spans[root].self_time == pytest.approx(spans[root].duration)


def test_disabled_recorder_records_nothing_and_chrome_trace_carries_self_time():
    off = SpanRecorder("w", enabled=False)
    with off.span("anything"):
        pass
    assert off.spans == [] and off.add("x", 0.0, 1.0) is None

    clock = FakeClock()
    rec = SpanRecorder("mlp_solo", clock=clock)
    with rec.span("program.inference") as root:
        clock.now += 0.001
        with rec.span("program.linear", instruction="fc1"):
            clock.now += 0.004
    request = rec.add("serve.request", 0.0, 0.010, lane=101)
    rec.add("serve.request.wait", 0.0, 0.007, parent=request, lane=101)
    events = rec.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == [
        "program.inference", "program.linear", "serve.request", "serve.request.wait",
    ]
    assert events[root]["args"]["self_us"] == pytest.approx(1000.0)
    assert events[1]["args"] == {"instruction": "fc1", "workload": "mlp_solo", "self_us": 4000.0,
                                 "parent": "program.inference"}
    assert events[2]["tid"] == 101 and events[2]["args"]["self_us"] == pytest.approx(3000.0)
    json.dumps(rec.chrome_trace())


# -- open-loop latency is counted from the due time -------------------------------
class Refused(Exception):
    retry_after_ms = 40.0


class Result:
    def __init__(self, ticket, wall_seconds, batch_size):
        self.ticket, self.wall_seconds, self.batch_size = ticket, wall_seconds, batch_size
        self.worker_id, self.output = 0, None


class StalledServer:
    """Serves its whole queue as one batch per step; every step blocks
    for ``step_seconds`` of (fake) time.  Refuses beyond ``depth``."""

    def __init__(self, clock, step_seconds, depth=100):
        self.clock, self.step_seconds, self.depth = clock, step_seconds, depth
        self.queue, self.tickets = [], 0

    def submit(self, image, client_id, artifact):
        if len(self.queue) >= self.depth:
            raise Refused()
        self.tickets += 1
        self.queue.append(self.tickets)
        return self.tickets

    def step(self):
        if not self.queue:
            return []
        self.clock.now += self.step_seconds
        batch, self.queue = self.queue, []
        return [Result(t, self.step_seconds, len(batch)) for t in batch]

    drain = step


def test_latency_counts_from_due_time_when_the_server_stalls():
    clock = FakeClock()
    server = StalledServer(clock, step_seconds=1.0)
    # Four requests due 0.25 s apart; each step blocks for a full second.
    arrivals = loadgen.schedule([("steady", 4.0, 1.0)], [("t0", None), ("t1", None)], lambda: None)
    assert [a.due for a in arrivals] == [0.0, 0.25, 0.5, 0.75]
    assert [a.tenant for a in arrivals] == ["t0", "t1", "t0", "t1"]
    report = loadgen.run_open_loop(server, arrivals, Refused, clock=clock, sleep=clock.sleep)

    # Request 0 is sent on time and served in [0, 1].  Requests 1-3 came
    # due while that step blocked: they are sent late (at t=1) and ride
    # the second step, which returns at t=2.
    first, *late = sorted(report.deliveries, key=lambda d: d.due)
    assert (first.sent, first.done, first.latency) == (0.0, 1.0, 1.0)
    assert [d.sent for d in late] == [1.0, 1.0, 1.0]
    assert [d.done for d in late] == [2.0, 2.0, 2.0]
    # Measured from send time these would all read 1.0 s; from due time
    # the stall shows.
    assert [d.latency for d in late] == [1.75, 1.5, 1.25]
    assert [d.batch_size for d in late] == [3, 3, 3]
    for d in report.deliveries:
        assert d.wait + d.exec_seconds == pytest.approx(d.latency)
    assert max(report.lag_seconds["steady"]) == 0.75  # how late the generator ran
    assert report.phase_wall_seconds("steady", start=0.0) == 2.0
    assert len(report.step_seconds["steady"]) == 2 and not report.refusals


def test_refusals_are_counted_and_the_tail_is_drained():
    clock = FakeClock()
    server = StalledServer(clock, step_seconds=0.5, depth=2)
    # The burst's first request is served alone; the other four come due
    # while that step blocks, and the queue only takes two of them.
    arrivals = loadgen.schedule(
        [("steady", 1.0, 1.0), ("overload", 100.0, 0.05)], [("t0", None)], lambda: None
    )
    assert [a.phase for a in arrivals] == ["steady"] + ["overload"] * 5
    report = loadgen.run_open_loop(server, arrivals, Refused, clock=clock, sleep=clock.sleep)
    assert len(report.deliveries) + len(report.refusals) == len(arrivals)
    assert len(report.refusals) == 2 and {r.phase for r in report.refusals} == {"overload"}
    assert all(r.retry_after_ms == 40.0 for r in report.refusals)
    assert not server.queue


# -- compare.py verdicts ----------------------------------------------------------
def test_verdicts_on_synthetic_rounds():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(100.0, 104.0, "lower", 0.10, steady, [104.0, 105.0, 103.0])[0] == "within-bound"
    assert compare.verdict(100.0, 120.0, "lower", 0.10, steady, [120.0, 121.0, 119.0])[0] == "worse"
    assert compare.verdict(100.0, 80.0, "lower", 0.10, steady, [80.0, 81.0, 79.0])[0] == "better"
    # direction flips for higher-is-better
    assert compare.verdict(100.0, 80.0, "higher", 0.10, steady, [80.0, 81.0, 79.0])[0] == "worse"
    # rounds spread wider than the bound: no verdict ...
    noisy = [80.0, 100.0, 125.0]
    assert compare.verdict(100.0, 112.0, "lower", 0.10, noisy, [95.0, 112.0, 130.0])[0] == "unresolved"
    assert compare.verdict(100.0, 101.0, "lower", 0.10, noisy, [85.0, 101.0, 120.0])[0] == "unresolved"
    # ... unless every round of one side beats every round of the other
    assert compare.verdict(100.0, 60.0, "lower", 0.10, noisy, [50.0, 60.0, 70.0])[0] == "better"
    assert compare.verdict(100.0, 200.0, "lower", 0.10, noisy, [150.0, 200.0, 260.0])[0] == "worse"
    # separated, but by less than the bound: still no verdict
    assert compare.verdict(100.0, 108.0, "lower", 0.10, [80.0, 100.0, 104.0], [105.0, 108.0, 140.0])[0] == "unresolved"


def test_exact_metrics_must_be_equal():
    assert compare.verdict(65, 65, "lower", 0.001)[0] == "within-bound"
    assert compare.verdict(65000, 65001, "lower", 0.001) == ("worse", pytest.approx(1 / 65000))
    assert compare.verdict(65, 64, "lower", 0.001)[0] == "better"
    assert compare.verdict(0, 0, "lower", 0.0) == ("within-bound", 0.0)


def test_output_chains_agree_by_prefix():
    assert compare.chains_agree([["a", "b", "c"], ["a", "b"], ["a", "b", "c"]])
    assert not compare.chains_agree([["a", "b", "c"], ["a", "x"]])


def _document(seed, latency_rounds, rotations, chain, keys_bytes=1000, failed=0, bits=8.0,
              problems=(), dead_runs=()):
    row = {
        "end_to_end": {
            "latency_ms_p50": {"value": median(latency_rounds), "unit": "ms", "rounds": latency_rounds},
            "rotations": {"value": rotations, "unit": "count", "rounds": [rotations] * 3},
        },
        "per_layer": {
            "keys.bytes": {"value": keys_bytes, "unit": "bytes"},
            "program.linear_ms": {"value": median(latency_rounds) * 0.8, "unit": "ms"},
        },
        "info": {"precision_bits": bits},
        "attempted": 100,
        "failed": failed,
        "problems": list(problems),
        "output_chain": chain,
    }
    return {"seed": seed, "commit": "x", "date": "d", "workloads": {"mlp_solo": row},
            "dead_runs": list(dead_runs)}


CONTRACT = {
    "workloads": [{"name": "mlp_solo"}, {"name": "compile_paper"}],
    "end_to_end": [
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rotations", "unit": "count", "better": "lower", "bound": 0.001},
    ],
    "per_layer": [
        {"name": "keys.bytes", "unit": "bytes", "better": "lower"},
        {"name": "program.linear_ms", "unit": "ms", "better": "lower"},
        {"name": "serve.open_s", "unit": "s", "better": "lower"},
    ],
}


def _verdicts(a, b):
    return {(w, m): outcome for w, m, outcome, *_ in compare.compare(a, b, CONTRACT)}


def test_compare_documents():
    a = _document(1, [500.0, 505.0, 495.0], 65, ["h1", "h2", "h3"])
    b = _document(1, [600.0, 606.0, 594.0], 64, ["h1", "h2"], keys_bytes=1001)
    assert _verdicts(a, b) == {
        ("mlp_solo", "latency_ms_p50"): "worse",
        ("mlp_solo", "rotations"): "better",
        ("mlp_solo", "correct"): "within-bound",
        ("mlp_solo", "failed_share"): "within-bound",
        ("mlp_solo", "precision_bits"): "within-bound",
        ("mlp_solo", "keys.bytes"): "worse",  # exact per-layer row
        ("mlp_solo", "program.linear_ms"): "info",  # timed per-layer rows carry no verdict
        ("mlp_solo", "output_sha256"): "within-bound",
        ("compile_paper", "*"): "unresolved",  # missing from both runs
    }
    other_seed = _document(2, [500.0, 505.0, 495.0], 65, ["z1"])
    assert ("mlp_solo", "output_sha256") not in _verdicts(a, other_seed)


def test_compare_judges_correctness():
    rounds = [500.0, 505.0, 495.0]
    a = _document(1, rounds, 65, ["h1"], failed=1)
    same = {("mlp_solo", m): "within-bound" for m in ("correct", "failed_share", "precision_bits")}

    def judged(**changes):
        verdicts = _verdicts(a, _document(1, rounds, 65, ["h1"], **{"failed": 1, **changes}))
        return {key: verdicts[key] for key in list(same) + [k for k in verdicts if k[0] == "*"]}

    assert judged() == same
    # the failure share must not rise, by however little
    assert judged(failed=2) == {**same, ("mlp_solo", "failed_share"): "worse"}
    assert judged(failed=0) == {**same, ("mlp_solo", "failed_share"): "better"}
    # precision may drop by half a bit, no more
    assert judged(bits=7.5) == same
    assert judged(bits=7.4) == {**same, ("mlp_solo", "precision_bits"): "worse"}
    assert judged(bits=8.6) == {**same, ("mlp_solo", "precision_bits"): "better"}
    # a failed check or a dead pass in B is worse, whatever the numbers say
    assert judged(problems=["mlp_solo inference 3: 1.2 bits < floor 3.0"]) == {**same, ("mlp_solo", "correct"): "worse"}
    assert judged(dead_runs=["mlp_solo round 2"]) == {**same, ("*", "dead_runs"): "worse"}
    # every pass of the workload died in B: no row for it there
    gone = _document(1, rounds, 65, ["h1"], dead_runs=["mlp_solo round 1"])
    gone["workloads"] = {}
    assert _verdicts(a, gone) == {
        ("*", "dead_runs"): "worse", ("mlp_solo", "*"): "worse", ("compile_paper", "*"): "unresolved",
    }
    assert _verdicts(gone, a)[("mlp_solo", "*")] == "unresolved"  # nothing to compare with


# -- BENCHMARK.json stays inside the contract's format ----------------------------
def test_benchmark_json_is_well_formed():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")
    with open(path) as f:
        contract = json.load(f)
    assert sorted(contract) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in contract["workloads"]]
    assert names == ["mlp_solo", "resnet8_solo", "serve_mlp_pool", "compile_paper"]
    assert all(sorted(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 <= metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    metrics = contract["end_to_end"] + contract["per_layer"]
    assert 1 <= len(contract["end_to_end"]) <= 16 and 1 <= len(contract["per_layer"]) <= 128
    for metric in metrics:
        assert name_ok.match(metric["name"]) and unit_ok.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    every_name = names + [m["name"] for m in metrics]
    assert len(every_name) == len(set(every_name))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert contract["paths"] == ["benchmarks/e2e"]
