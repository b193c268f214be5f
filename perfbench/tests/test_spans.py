"""Self-time arithmetic and span recording of the traced run."""

from perfbench import spans
from perfbench.spans import END, NAME, PARENT, START


def _span(span_id, name, start, end, parent=None):
    return [span_id, name, start, end, parent, "run"]


def test_self_time_subtracts_direct_children():
    trace = [_span(0, "a", 0.0, 10.0),
             _span(1, "b", 1.0, 4.0, parent=0),
             _span(2, "c", 2.0, 3.0, parent=1),
             _span(3, "b", 6.0, 7.0, parent=0)]
    selfs = spans.self_times(trace)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    # Every second is attributed once.
    assert sum(selfs.values()) == 10.0


def test_overlapping_children_are_covered_once():
    trace = [_span(0, "a", 0.0, 10.0),
             _span(1, "b", 1.0, 5.0, parent=0),
             _span(2, "b", 3.0, 6.0, parent=0),
             _span(3, "b", 9.0, 12.0, parent=0)]  # clipped at the end
    assert spans.self_times(trace)[0] == 10.0 - 5.0 - 1.0


def test_covered_clips_and_merges():
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == 3.0
    assert spans.covered([], 0, 1) == 0.0


def test_layer_totals_count_outermost_calls_only():
    trace = [_span(0, "parse", 0.0, 4.0),
             _span(1, "parse", 1.0, 2.0, parent=0),  # nested same layer
             _span(2, "run", 4.0, 9.0),
             _span(3, "parse", 5.0, 6.0, parent=2)]
    totals = spans.layer_totals(trace)
    assert totals["parse"] == (5.0, 2)
    assert totals["run"] == (4.0, 1)


def test_unattributed_is_the_uncovered_share_of_the_interval():
    trace = [_span(0, "a", 1.0, 3.0), _span(1, "b", 2.0, 2.5, parent=0),
             _span(2, "c", 5.0, 6.0)]
    assert spans.unattributed(trace, 0.0, 10.0) == 0.7


def test_tracer_records_parents_and_counters():
    tracer = spans.Tracer("run-7")

    def inner(x):
        return x + 1

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        hooks=(lambda args: args[0],
                               lambda counts, args, result, before:
                               counts.update(seen=result - before)))
    assert outer(3) == 8
    (o, i) = tracer.spans
    assert (o[NAME], o[PARENT], i[NAME], i[PARENT]) == ("outer", None,
                                                          "inner", 0)
    assert o[START] <= i[START] <= i[END] <= o[END]
    assert all(s[-1] == "run-7" for s in tracer.spans)
    assert tracer.counts["seen"] == 5


def test_rebind_function_replaces_every_repro_reference():
    import repro.core
    import repro.core.scheduler
    original = repro.core.make_context
    marker = object()
    try:
        assert spans.rebind_function(original, marker) >= 2
        assert repro.core.make_context is marker
        assert repro.core.scheduler.make_context is marker
    finally:
        spans.rebind_function(marker, original)
    assert repro.core.make_context is original
