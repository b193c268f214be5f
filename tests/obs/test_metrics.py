"""Unit contract of repro.obs.metrics: deterministic instruments."""

import pytest

from repro.obs import HISTOGRAM_EDGES, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("fleet.launches").inc()
        reg.counter("fleet.launches").inc(4)
        assert reg.to_dict() == {"fleet.launches": 5}

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("c").inc(-1)

    def test_gauge_last_write_wins_and_remembers_peak(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("fleet.backlog")
        gauge.set(7)
        gauge.set(3)
        assert reg.to_dict() == {"fleet.backlog": {"value": 3, "peak": 7}}

    def test_histogram_fixed_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("cycles")
        for value in (1, 2, 3, 1000, 2 ** 40):
            h.observe(value)
        snap = reg.to_dict()["cycles"]
        assert snap["count"] == 5
        assert snap["sum"] == 1 + 2 + 3 + 1000 + 2 ** 40
        assert snap["min"] == 1
        assert snap["max"] == 2 ** 40
        assert snap["buckets"] == {"le_1": 1, "le_2": 1, "le_4": 1,
                                   "le_1024": 1, "inf": 1}

    def test_edges_are_powers_of_two(self):
        assert HISTOGRAM_EDGES[0] == 1
        assert all(b == 2 * a for a, b in zip(HISTOGRAM_EDGES,
                                              HISTOGRAM_EDGES[1:]))

    def test_name_pinned_to_instrument_type(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")


class TestRegistry:
    def test_to_dict_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert list(reg.to_dict()) == ["a", "b"]
        assert reg.names() == ["a", "b"]

    def test_merge_sums_counters_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("launches").inc(2)
        b.counter("launches").inc(3)
        a.histogram("cycles").observe(10)
        b.histogram("cycles").observe(5000)
        b.gauge("backlog").set(9)
        a.merge(b)
        snap = a.to_dict()
        assert snap["launches"] == 5
        assert snap["cycles"]["count"] == 2
        assert snap["cycles"]["min"] == 10
        assert snap["cycles"]["max"] == 5000
        assert snap["backlog"] == {"value": 9, "peak": 9}

    def test_merge_order_invariant_for_counters_and_histograms(self):
        # The fleet folds per-device registries in device-id order;
        # counters and histograms are commutative so the snapshot is
        # the same whatever order the fold happens in.
        def device_regs():
            regs = []
            for d in range(3):
                reg = MetricsRegistry()
                reg.counter("launches").inc(d + 1)
                reg.histogram("cycles").observe(100 * (d + 1))
                regs.append(reg)
            return regs

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for reg in device_regs():
            forward.merge(reg)
        for reg in reversed(device_regs()):
            backward.merge(reg)
        assert forward.to_dict() == backward.to_dict()
