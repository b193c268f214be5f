"""Differential check on generated fleets: execution axes never show.

Hypothesis draws small fleet scenarios — 1–3 devices, ``fcfs`` or
``backfill`` with NC in {1, 2}, seeded transient or mtbf faults, and an
optional queue-cap admission — and runs each one plainly (one worker,
``event`` backend, no telemetry), then once more per axis:

* workers 2 (a process pool shared across examples);
* the ``vector`` backend;
* ``full`` telemetry, whose trace must also pass
  ``tools/validate_trace.py``.

The canonical ``RunResult.to_json`` must be byte-identical on every
axis (for the backend axis, once provenance's record of the engine used
is set aside).  Derandomized and capped at 25 examples so the suite's
runtime stays flat.
"""

import dataclasses
import importlib.util
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scenario, run_scenario
from repro.obs import make_telemetry
from repro.runtime import ParallelExecutor

TOOL = (pathlib.Path(__file__).resolve().parents[2] / "tools"
        / "validate_trace.py")
_spec = importlib.util.spec_from_file_location("validate_trace", TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

FAULTS = st.one_of(
    st.builds(lambda p, seed: {"kind": "transient", "fail_prob": p,
                               "max_retries": 3, "seed": seed},
              st.sampled_from([0.2, 0.4]), st.integers(0, 50)),
    st.builds(lambda mtbf, seed: {"kind": "mtbf", "mtbf": mtbf,
                                  "mttr": 2000.0, "horizon": 30000,
                                  "seed": seed},
              st.sampled_from([5000.0, 20000.0]), st.integers(0, 50)),
)

ADMISSION = st.one_of(
    st.none(),
    st.builds(lambda cap, mode: {"kind": "queue-cap", "queue_cap": cap,
                                 "mode": mode},
              st.integers(1, 4), st.sampled_from(["reject", "defer"])),
)


@st.composite
def fleets(draw):
    data = {
        "kind": "fleet",
        "workload": {"source": "stream", "apps": draw(st.integers(3, 6)),
                     "synthetic_fraction": 0.0, "scale": 0.05,
                     "seed": draw(st.integers(0, 3)),
                     "arrival": draw(st.sampled_from(["batch",
                                                      "poisson"])),
                     "mean_gap": 2000.0},
        "policy": {"name": draw(st.sampled_from(["fcfs", "backfill"])),
                   "nc": draw(st.sampled_from([1, 2]))},
        "placement": {"name": "least-loaded"},
        "devices": {"count": draw(st.integers(1, 3)),
                    "config": "small-test"},
        "faults": draw(FAULTS),
    }
    admission = draw(ADMISSION)
    if admission is not None:
        data["admission"] = admission
    return Scenario.from_dict(data)


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(2) as executor:
        yield executor


def with_execution(scenario, **changes):
    return dataclasses.replace(scenario, execution=dataclasses.replace(
        scenario.execution, **changes))


def without_backend(result):
    """``to_json`` minus provenance's record of the engine used — the
    one field that names the backend rather than what it computed."""
    result.provenance.pop("backend", None)
    return result.to_json()


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleets())
def test_execution_axes_are_byte_identical(pool, scenario):
    plain = run_scenario(scenario).to_json()

    pooled = run_scenario(with_execution(scenario, workers=2),
                          executor=pool)
    assert pooled.to_json() == plain, "workers 1 vs 2"

    vector = run_scenario(with_execution(scenario, backend="vector"))
    assert without_backend(vector) == plain, "backend event vs vector"

    telemetry = make_telemetry("full")
    traced = run_scenario(scenario, telemetry=telemetry)
    assert traced.to_json() == plain, "telemetry off vs full"
    assert telemetry.events
    assert lint.validate_events(telemetry.events) == []
