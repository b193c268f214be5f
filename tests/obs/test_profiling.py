"""Unit contract of repro.obs.profiling: wall-clock phase timers."""

from repro.obs import PHASES, PhaseProfiler


class TestPhaseProfiler:
    def test_phase_accumulates_calls_and_time(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("simulate"):
                pass
        snap = prof.to_dict()
        assert list(snap) == ["simulate"]
        assert snap["simulate"]["calls"] == 3
        assert snap["simulate"]["total_s"] >= 0.0
        assert snap["simulate"]["max_s"] <= snap["simulate"]["total_s"] \
            + 1e-9

    def test_phase_records_time_even_when_body_raises(self):
        prof = PhaseProfiler()
        try:
            with prof.phase("solver"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert prof.to_dict()["solver"]["calls"] == 1

    def test_canonical_phase_names_declared(self):
        assert set(PHASES) == {"simulate", "placement", "solver",
                               "merge"}

    def test_merge_folds_counts_and_totals(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        with a.phase("simulate"):
            pass
        with b.phase("simulate"):
            pass
        with b.phase("merge"):
            pass
        a.merge(b)
        snap = a.to_dict()
        assert snap["simulate"]["calls"] == 2
        assert snap["merge"]["calls"] == 1

    def test_format_table_lists_phases_by_total(self):
        prof = PhaseProfiler()
        with prof.phase("simulate"):
            sum(range(2000))
        with prof.phase("solver"):
            pass
        table = prof.format_table()
        assert "phase" in table and "share" in table
        assert "simulate" in table and "solver" in table

    def test_format_table_empty(self):
        assert "no phases" in PhaseProfiler().format_table()
