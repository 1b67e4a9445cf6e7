"""Unit tests for :mod:`repro.obs` — tracing, metrics, noise telemetry.

The contracts the observability PR rests on:

- **span trees** nest via the explicit stack, attribute ledger op-count
  deltas exactly, and sample roots systematically (children follow
  their root);
- **disabled tracing is a no-op object** — the NullTracer records
  nothing and hands out the shared NULL_SPAN;
- **exports** — JSONL, Chrome ``trace_event`` JSON (Perfetto), and the
  Prometheus text exposition format all render from the same state;
- **LatencyHistogram edges** — empty percentiles, single-sample
  p50 == p99, disjoint-bucket merges, overflow past the last edge
  counted in ``+Inf`` only;
- **NoiseMonitor** — boundary counts, min level, scale drift, and
  span attachment are observe-only.
"""

import json
import math
from fractions import Fraction

import pytest

from repro.backend.ledger import LatencyHistogram, OpLedger
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    NoiseMonitor,
    Tracer,
    chrome_trace,
    get_tracer,
    use_tracer,
    write_chrome_trace,
)


class TestSpanTree:
    def test_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("root", category="serve", mode="test") as root:
            with tracer.span("child-a") as a:
                a.set(layer="conv1")
            with tracer.span("child-b"):
                pass
        assert tracer.roots == [root]
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.attrs["mode"] == "test"
        assert root.children[0].attrs["layer"] == "conv1"
        assert root.start <= root.children[0].start
        assert root.end >= root.children[-1].end

    def test_ledger_delta_attribution(self):
        ledger = OpLedger()
        ledger.charge("hrot", 1.0, count=2)  # pre-existing charges
        tracer = Tracer()
        with tracer.span("outer", ledger=ledger):
            ledger.charge("pmult", 0.5, count=5)
            with tracer.span("inner", ledger=ledger):
                ledger.charge("hrot", 0.25, count=3)
        outer, = tracer.roots
        inner, = outer.children
        # deltas, not totals: the pre-span hrot=2 is not attributed
        assert outer.ops == {"pmult": 5, "hrot": 3}
        assert inner.ops == {"hrot": 3}
        assert outer.seconds == pytest.approx(0.75)
        assert inner.seconds == pytest.approx(0.25)
        # exact reconciliation against the ledger totals
        assert outer.ops["pmult"] == ledger.counts["pmult"]
        assert outer.ops["hrot"] + 2 == ledger.counts["hrot"]

    def test_systematic_root_sampling(self):
        tracer = Tracer(sample_rate=0.5)
        kept = 0
        for _ in range(10):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        kept = len(tracer.roots)
        assert kept == 5  # systematic: exactly every other root
        assert all(len(r.children) == 1 for r in tracer.roots)

    def test_unsampled_root_skips_subtree(self):
        tracer = Tracer(sample_rate=0.5)
        spans = []
        for _ in range(4):
            with tracer.span("root") as r:
                with tracer.span("child") as c:
                    spans.append((r, c))
        dropped = [pair for pair in spans if pair[0] is NULL_SPAN]
        assert len(dropped) == 2
        # the whole subtree of an unsampled root is the null span
        assert all(c is NULL_SPAN for _, c in dropped)

    def test_record_span_lands_under_current(self):
        tracer = Tracer()
        with tracer.span("batch"):
            tracer.record_span("request", 1.0, 2.0, ticket=7)
        batch, = tracer.roots
        assert [c.name for c in batch.children] == ["request"]
        assert batch.children[0].attrs["ticket"] == 7
        assert batch.children[0].duration == pytest.approx(1.0)

    def test_record_span_respects_root_sampling(self):
        tracer = Tracer(sample_rate=0.5)
        recorded = [
            tracer.record_span("r", 0.0, 1.0) is not None for _ in range(10)
        ]
        assert sum(recorded) == 5

    def test_max_roots_bounds_memory(self):
        tracer = Tracer(max_roots=2)
        for _ in range(5):
            with tracer.span("root"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped_roots == 3

    def test_drain_semantics(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        first = tracer.drain()
        assert [p["name"] for p in first] == ["a"]
        assert tracer.drain() == []  # never duplicates
        with tracer.span("b"):
            pass
        assert [p["name"] for p in tracer.drain()] == ["b"]

    def test_span_payload_is_json_safe(self):
        ledger = OpLedger()
        tracer = Tracer()
        with tracer.span("root", category="serve", ledger=ledger, k=1):
            ledger.charge("hmult", 0.5)
            with tracer.span("child"):
                pass
        payload = json.loads(json.dumps(tracer.roots[0].to_payload()))
        assert payload["name"] == "root"
        assert payload["ops"] == {"hmult": 1}
        assert payload["attrs"] == {"k": 1}
        assert [c["name"] for c in payload["children"]] == ["child"]


class TestNullTracer:
    def test_everything_is_a_noop(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("x") is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span is NULL_SPAN
            assert span.set(a=1) is NULL_SPAN
        assert NULL_TRACER.record_span("x", 0.0, 1.0) is None
        assert NULL_TRACER.drain() == []

    def test_use_tracer_scopes_and_restores(self):
        # The CI tracing-on leg installs an ambient tracer, so pin the
        # baseline instead of assuming the process default.
        ambient = get_tracer()
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with use_tracer(None):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is tracer
        assert get_tracer() is ambient

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=0.0)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestExports:
    def _tracer_with_tree(self):
        tracer = Tracer()
        ledger = OpLedger()
        with tracer.span("serve.batch", category="serve", ledger=ledger):
            ledger.charge("hrot", 1.0, count=4)
            with tracer.span("execute", category="serve"):
                pass
        return tracer

    def test_chrome_trace_tracks_and_events(self):
        tracer = self._tracer_with_tree()
        doc = chrome_trace(
            [
                {
                    "tid": 3,
                    "name": "worker-3",
                    "spans": tracer.drain(),
                    "clock_offset": tracer.clock_offset,
                }
            ]
        )
        names = [e["name"] for e in doc["traceEvents"]]
        assert names == [
            "process_name", "thread_name", "serve.batch", "execute",
        ]
        batch = doc["traceEvents"][2]
        assert batch["ph"] == "X"
        assert batch["tid"] == 3
        assert batch["dur"] >= 0
        assert batch["args"]["ops"] == {"hrot": 4}
        thread = doc["traceEvents"][1]
        assert thread["args"]["name"] == "worker-3"

    def test_write_chrome_trace_is_json_loadable(self, tmp_path):
        tracer = self._tracer_with_tree()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(
            path, [{"tid": 0, "name": "w", "spans": tracer.drain()}]
        )
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["name"] == "serve.batch" for e in doc["traceEvents"])


def _histogram(*seconds):
    hist = LatencyHistogram()
    for value in seconds:
        hist.observe(value)
    return hist


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", 2, worker="0")
        reg.counter("repro_x_total", 3, worker="0")
        reg.counter("repro_x_total", 1, worker="1")
        reg.gauge("repro_depth", 4, worker="0")
        reg.record_histogram("repro_lat_seconds", _histogram(0.01), worker="0")
        assert reg.counter_value("repro_x_total", worker="0") == 5
        assert reg.counter_value("repro_x_total", worker="1") == 1
        assert reg.gauge_value("repro_depth", worker="0") == 4
        assert reg.histogram_value("repro_lat_seconds", worker="0").count == 1

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("c_total", 1, a="1", b="2")
        reg.counter("c_total", 1, b="2", a="1")
        assert reg.counter_value("c_total", b="2", a="1") == 2

    def test_counters_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("c_total", -1)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("metric", 1)
        with pytest.raises(ValueError, match="already declared"):
            reg.gauge("metric", 1)

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_req_total", 3, help="Requests.", worker="0")
        reg.record_histogram("repro_lat_seconds", _histogram(2e-4, 9e-4))
        text = reg.to_prometheus_text()
        assert "# HELP repro_req_total Requests." in text
        assert "# TYPE repro_req_total counter" in text
        assert 'repro_req_total{worker="0"} 3' in text
        assert "# TYPE repro_lat_seconds histogram" in text
        # cumulative le buckets at base*2^(i+1), then +Inf / _sum / _count
        assert 'repro_lat_seconds_bucket{le="0.0004"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text
        assert "repro_lat_seconds_sum 0.0011" in text

    def test_record_histogram_folds_existing(self):
        hist = _histogram(0.01, 0.02)
        reg = MetricsRegistry()
        reg.record_histogram("lat_seconds", hist, phase="linear")
        reg.record_histogram("lat_seconds", hist, phase="linear")
        assert reg.histogram_value("lat_seconds", phase="linear").count == 4
        assert hist.count == 2  # the registry folded a copy


class TestLatencyHistogramEdges:
    def test_empty_percentiles_are_zero(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == 0.0

    def test_overflow_counts_in_inf_bucket_only(self):
        """An observation past the last edge belongs to no finite
        bucket: the exposition must not claim it is <= that edge, and
        the quantile that lands on it is unbounded, not the edge."""
        hist = _histogram(0.01, 4e9)
        assert hist.count == 2 and sum(hist.buckets) == 1
        assert hist.quantile(0.5) == hist.base * 2**7  # 0.01 s: bucket 6
        assert hist.quantile(0.99) == math.inf
        reg = MetricsRegistry()
        reg.record_histogram("wait_seconds", hist)
        text = reg.to_prometheus_text()
        assert 'wait_seconds_bucket{le="429496.7296"} 1' in text
        assert 'wait_seconds_bucket{le="+Inf"} 2' in text
        assert "wait_seconds_count 2" in text

    def test_single_sample_p50_equals_p99(self):
        hist = LatencyHistogram()
        hist.observe(0.0123)
        assert hist.quantile(0.5) == hist.quantile(0.99)
        assert hist.quantile(0.5) >= 0.0123  # bucket upper edge
        assert hist.mean == pytest.approx(0.0123)

    def test_merge_disjoint_buckets(self):
        fast = LatencyHistogram()
        for _ in range(10):
            fast.observe(2e-4)  # low bucket
        slow = LatencyHistogram()
        for _ in range(10):
            slow.observe(0.5)  # high bucket
        merged = LatencyHistogram()
        merged.merge(fast)
        merged.merge(slow)
        assert merged.count == 20
        assert merged.total == pytest.approx(fast.total + slow.total)
        # p50 lands in the fast bucket, p99 in the slow bucket
        assert merged.quantile(0.5) == fast.quantile(0.5)
        assert merged.quantile(0.99) == slow.quantile(0.99)
        assert merged.quantile(0.5) < merged.quantile(0.99)

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            LatencyHistogram(buckets=[0] * 8).merge(LatencyHistogram())


class TestNoiseMonitor:
    def test_counts_min_level_and_drift(self):
        monitor = NoiseMonitor(delta_scale=Fraction(1 << 24))
        monitor.record("rescale", 5, 4, scale_after=Fraction(1 << 24))
        monitor.record("rescale", 4, 3, scale_after=Fraction(3 << 23))
        monitor.record("mod_down", 3, 2)
        monitor.record("bootstrap", 0, 6)
        stats = monitor.stats()
        assert stats["rescales"] == 2
        assert stats["mod_downs"] == 1
        assert stats["bootstraps"] == 1
        assert stats["min_level"] == 2
        # 3<<23 / 1<<24 = 1.5 -> |log2 1.5|
        assert stats["max_scale_drift_log2"] == pytest.approx(0.584962, abs=1e-5)

    def test_event_window_is_bounded(self):
        monitor = NoiseMonitor(keep_events=2)
        for level in range(5, 0, -1):
            monitor.record("rescale", level, level - 1)
        assert len(monitor.events) == 2
        assert monitor.events[-1][2] == 0  # newest kept

    def test_events_attach_to_active_span(self):
        monitor = NoiseMonitor()
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("linear/conv1"):
                monitor.record("rescale", 4, 3)
        span, = tracer.roots
        assert span.noise == [("rescale", 4, 3, 0.0)]
