"""The benchmark in bench/ reaches into the package through module
attributes (the tracer wraps them) and builds its environments through
envs.register_env and envs.make_env. These tests import bench/ and run its
untraced helpers (the micro-sweeps, the genome-set filter); they fail when
a change to the package moves something the benchmark uses."""

import os

import numpy as np
import pytest

from pixelcgp.genome import decode, random_genome

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


def test_sweep_keys(tracing):
    # the micro-sweeps call functions.apply and values.constrain directly
    keys = set(tracing.sweep())
    names = {spec.name for spec in tracing.functions.FUNCTIONS}
    assert {f"functions.apply_us.{name}.m210" for name in names} <= keys
    assert {k for k in keys if k.startswith("values.constrain_us.")} == {
        f"values.constrain_us.{label}" for label in tracing.SWEEP_SHAPES}


def test_genome_filter_runs(tracing):
    # the genome-set filter decodes, traces and steps a program on the
    # first frame's planes
    workloads = tracing.workloads
    genome = random_genome(rng=np.random.default_rng(0),
                           **workloads.GENOME_SHAPE)
    active, matrix = workloads.active_shape(genome, workloads.first_frame())
    assert 0 <= matrix <= active <= genome.C


def test_step_calls_apply_once_per_plan_entry(tracing, monkeypatch):
    # the tracer's functions.apply layer sees node evaluation only while
    # Program.step calls apply through the module attribute, once per
    # active node; an interpreter that inlined dispatch would blind it
    functions, workloads = tracing.functions, tracing.workloads
    original, calls = functions.apply, []

    def counted(spec, x, y, p):
        calls.append(spec.name)
        return original(spec, x, y, p)

    monkeypatch.setattr(functions, "apply", counted)
    program = decode(random_genome(rng=np.random.default_rng(1),
                                   **workloads.GENOME_SHAPE))
    assert len(program.plan) >= 5
    program.step(workloads.first_frame())
    assert calls == [spec.name for _, spec, *_ in program.plan]
