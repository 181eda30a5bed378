"""The benchmark in bench/ reaches into the package through module
attributes (the tracer wraps them) and builds its environments through
envs.register_env and envs.make_env. These tests only import bench/; they
fail when a change to the package moves something the benchmark uses."""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing
    return tracing


def test_traced_layers_resolve(tracing):
    for name, (owner, attr, _) in tracing.LAYERS.items():
        assert callable(getattr(owner, attr, None)), name


def test_pixel_eval_env(tracing, tmp_path):
    env = tracing.workloads.make_env("pixel_eval", 0, str(tmp_path / "stats"))
    assert env.n_actions == 3
