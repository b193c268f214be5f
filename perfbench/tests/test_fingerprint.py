"""The correctness gate: canonical result bytes and their fingerprints."""

import json

from perfbench import workloads


def _run_json(backend=None):
    provenance = {"engine_version": 1, "seed": 1, "spec_hash": "ab"}
    if backend:
        provenance["backend"] = backend
    return json.dumps({"kind": "fleet", "metrics": {"makespan": 1234},
                       "apps": [{"name": "BLK", "finish_cycle": 99}],
                       "provenance": provenance}, sort_keys=True,
                      indent=2) + "\n"


def test_backend_is_not_part_of_the_canonical_bytes():
    assert (workloads.canonical_run(_run_json("vector"))
            == workloads.canonical_run(_run_json()))
    # An event-engine result is already canonical.
    assert workloads.canonical_run(_run_json()) == _run_json().encode()


def test_one_changed_byte_is_rejected():
    reference = workloads.fingerprint(workloads.canonical_run(_run_json()))
    text = _run_json("vector")
    at = text.index("1234")
    changed = text[:at] + "1235" + text[at + 4:]
    assert len(changed) == len(text)
    actual = workloads.fingerprint(workloads.canonical_run(changed))
    assert actual != reference
    assert workloads.mismatches([reference], [actual]) == 1
    assert workloads.mismatches([reference], [reference]) == 0


def test_missing_operations_count_as_failures():
    assert workloads.mismatches(["a", "b", "c"], ["a"]) == 2


def test_campaign_drops_only_backend_dependent_fields():
    def campaign(backend, shard_hash, campaign_hash):
        base = {"execution": {"workers": 1}}
        if backend:
            base["execution"]["backend"] = backend
        row = {"file": "s0.json", "result_hash": shard_hash}
        return json.dumps({
            "campaign": {"base": base}, "metrics": {"stp": 2.5},
            "per_shard": [dict(row)],
            "provenance": {"campaign_hash": campaign_hash,
                           "shards": [dict(row)]}})

    event = workloads.canonical_campaign(campaign(None, "e", "h1"))
    vector = workloads.canonical_campaign(campaign("vector", "v", "h2"))
    assert event == vector
    changed = campaign("vector", "v", "h2").replace("2.5", "2.6")
    assert workloads.canonical_campaign(changed) != event


def test_inputs_depend_only_on_the_seed(tmp_path):
    names = ["BLK", "GUPS", "LUD", "NN"]
    a = workloads.make_inputs("fleet_vector", 3, names, tmp_path / "a")
    text_a = (tmp_path / "a" / "fleet.trace").read_text()
    workloads.make_inputs("fleet_vector", 3, names, tmp_path / "b")
    assert (tmp_path / "b" / "fleet.trace").read_text() == text_a
    workloads.make_inputs("fleet_vector", 4, names, tmp_path / "c")
    assert (tmp_path / "c" / "fleet.trace").read_text() != text_a
    assert a["scenarios"][0]["workload"]["seed"] == 3


def test_balanced_trace_keeps_the_multiset_and_the_span():
    import random
    names = ["A", "B", "C"] * 4
    spans = set()
    for seed in range(5):
        lines = workloads.balanced_trace(names, random.Random(seed), 100.0)
        assert sorted(line.split()[1] for line in lines) == sorted(names)
        cycles = [int(line.split()[0]) for line in lines]
        assert cycles == sorted(cycles) and cycles[0] == 0
        spans.add(cycles[-1])
    # Same gaps in another order: the last arrival moves by at most the
    # largest gap.
    assert max(spans) - min(spans) <= 100.0 * 4
