"""The benchmark in bench/ reaches into the package through module
attributes (the tracer wraps them) and builds its environments through
envs.register_env and envs.make_env. These tests import bench/ and run its
untraced helpers (the micro-sweeps, the genome-set filter); they fail when
a change to the package moves something the benchmark uses. The digest rows
run the benchmark's result gate on two blocks of each workload: a change to
any fitness or played action fails them."""

import json
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


@pytest.mark.parametrize("name", ["pixel_eval", "bridge_eval"])
def test_blocks_match_the_reference_digests(tracing, tmp_path, name):
    # bench/run.py's gate, on input 7's first two blocks; the bridge row
    # also checks its first frame against the in-process game
    workloads = tracing.workloads
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)[name]
    stats = str(tmp_path / "stats")
    wl = workloads.make(name, 7, stats)
    env = workloads.make_env(name, 7, stats)
    try:
        wl.check(env)
        blocks = [wl.run_block(env, j) for j in (0, 1)]
    finally:
        wl.close(env)
    assert [b["failed"] for b in blocks] == [0, 0]
    assert {b["key"]: b["digest"] for b in blocks} == {
        key: reference[key] for key in ("7.0", "7.1")}
