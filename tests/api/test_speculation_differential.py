"""Differential check on generated fleets: speculation never shows.

Hypothesis draws small fleet scenarios — 1–3 devices, ``fcfs`` or
``backfill`` with NC in {1, 2}, seeded transient or mtbf faults, and an
optional queue-cap admission — and runs each twice: speculation off,
and speculation ``groups`` with every store hit commit-checked.  The
canonical ``RunResult.to_json`` must be byte-identical.  Derandomized
and capped at 25 examples so the suite's runtime stays flat.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scenario, SpeculationSpec, run_scenario

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


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleets())
def test_groups_speculation_is_byte_identical(scenario):
    plain = run_scenario(scenario)
    speculative = run_scenario(dataclasses.replace(
        scenario, execution=dataclasses.replace(
            scenario.execution,
            speculation=SpeculationSpec(kind="groups", commit_check=True))))
    assert speculative.to_json() == plain.to_json()
    assert speculative.speculation["hits"] \
        + speculative.speculation["misses"] > 0
