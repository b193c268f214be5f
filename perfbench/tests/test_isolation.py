"""Cache isolation: private caches, and a cold cache that starts empty."""

import pathlib

from perfbench import run


def test_cold_cache_is_empty_at_the_start_of_every_worker(tmp_path):
    bench = run.Bench("paper_ilp_cold", 1, tmp_path)
    first = pathlib.Path(bench.cold_env()["REPRO_PROFILE_CACHE"])
    assert first.is_dir() and not any(first.iterdir())
    (first / "profile_BLK_0123.json").write_text("{}")
    (first / "nested").mkdir()
    second = pathlib.Path(bench.cold_env()["REPRO_PROFILE_CACHE"])
    assert second == first
    assert not any(second.iterdir())


def test_caches_are_private_to_the_checkout(tmp_path):
    bench = run.Bench("fleet_vector", 1, tmp_path)
    for env in (bench.env(), bench.cold_env()):
        for key in ("REPRO_PROFILE_CACHE", "REPRO_NATIVE_CACHE"):
            path = pathlib.Path(env[key])
            assert path.is_relative_to(tmp_path / run.WORK)
            assert "benchmarks" not in path.parts
            assert ".cache" not in path.parts
    warm = bench.env()["REPRO_PROFILE_CACHE"]
    assert warm == bench.env()["REPRO_PROFILE_CACHE"]
    assert warm != bench.cold_env()["REPRO_PROFILE_CACHE"]
    assert bench.env()["PYTHONPATH"] == str(tmp_path / "src")
