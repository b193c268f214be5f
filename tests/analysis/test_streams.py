"""Tests for stream metrics (analysis/streams.py)."""

import pytest

from repro.analysis import (StreamAccumulator, StreamSummary,
                            per_app_slowdown, percentile, summarize_stream)
from repro.runtime import AppRecord


class TestPercentile:
    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_endpoints(self):
        values = [5, 1, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 5

    def test_single_value(self):
        assert percentile([7.5], 90) == 7.5

    def test_unsorted_input(self):
        assert percentile([9, 1, 5], 50) == 5

    def test_p90_interpolation(self):
        # rank = 0.9 * 4 = 3.6 → 0.4*4 + 0.6*5
        assert percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


def _folded(outcome, solo_cycles):
    """The campaign's O(1)-memory fold of one stream's records."""
    acc = StreamAccumulator()
    for rec in outcome.records.values():
        acc.push(rec.arrival_cycle, rec.start_cycle, rec.finish_cycle,
                 solo_cycles[rec.name])
    metrics = acc.metrics()
    del metrics["antt_variance"]
    return metrics


def _scorecard(summary):
    """The figures of a StreamSummary that the fold also produces."""
    keys = ["apps", "antt", "stp", "service_slowdown"] + [
        f"{kind}_p{q}" for kind in ("wait", "latency")
        for q in StreamAccumulator.QUANTILES]
    return {key: getattr(summary, key) for key in keys}


class _FakeOutcome:
    """Duck-typed StreamOutcome: just the fields the metrics read."""

    def __init__(self, records, makespan, instructions=1000):
        self.policy = "Fake"
        self.records = records
        self.makespan = makespan
        self.device_throughput = instructions / max(1, makespan)
        self.utilization = 0.5


def two_app_outcome():
    records = {
        "a": AppRecord(name="a", arrival_cycle=0, start_cycle=0,
                       finish_cycle=100, group_index=0),
        "b": AppRecord(name="b", arrival_cycle=0, start_cycle=100,
                       finish_cycle=300, group_index=1),
    }
    return _FakeOutcome(records, makespan=300)


class TestSummarizeStream:
    def test_antt_and_stp(self):
        solo = {"a": 100, "b": 100}
        s = summarize_stream(two_app_outcome(), solo)
        # a: turnaround 100 / solo 100 = 1; b: 300 / 100 = 3.
        assert s.antt == pytest.approx(2.0)
        assert s.stp == pytest.approx(1.0 + 1.0 / 3.0)
        # Service slowdown ignores the wait: a → 1.0, b → 2.0.
        assert s.service_slowdown == pytest.approx(1.5)

    def test_wait_and_latency_percentiles(self):
        s = summarize_stream(two_app_outcome(), {"a": 100, "b": 100})
        assert s.wait_p50 == pytest.approx(50.0)     # waits [0, 100]
        assert s.latency_p50 == pytest.approx(200.0)  # latencies [100, 300]
        assert s.wait_p99 <= 100.0
        assert s.latency_p99 <= 300.0

    def test_carries_outcome_fields(self):
        s = summarize_stream(two_app_outcome(), {"a": 100, "b": 100})
        assert isinstance(s, StreamSummary)
        assert s.policy == "Fake"
        assert s.apps == 2
        assert s.makespan == 300
        assert s.utilization == 0.5

    def test_per_app_slowdown(self):
        out = two_app_outcome()
        slow = per_app_slowdown(out, {"a": 100, "b": 100})
        assert slow == {"a": pytest.approx(1.0), "b": pytest.approx(3.0)}

    def test_missing_solo_rejected(self):
        with pytest.raises(ValueError, match="missing solo"):
            summarize_stream(two_app_outcome(), {"a": 100})

    def test_empty_is_all_zero_summary(self):
        # Zero completions (e.g. admission control rejected every
        # arrival) must not crash in percentile(): defined semantics
        # are an all-zero scorecard with apps == 0 as the flag.
        s = summarize_stream(_FakeOutcome({}, 0), {})
        assert s.apps == 0
        assert s.antt == 0.0
        assert s.stp == 0.0
        assert s.wait_p99 == 0.0
        assert s.latency_p50 == 0.0
        assert s.policy == "Fake"

    def test_empty_streaming_matches_in_memory(self):
        exact = summarize_stream(_FakeOutcome({}, 0), {})
        assert _folded(_FakeOutcome({}, 0), {}) == _scorecard(exact)

    def test_streaming_matches_exact_small_n(self):
        solo = {"a": 100, "b": 100}
        exact = summarize_stream(two_app_outcome(), solo)
        # Below exact_limit the estimators buffer raw values, so the
        # campaign fold is bit-identical, not just approximate.
        assert _folded(two_app_outcome(), solo) == _scorecard(exact)
