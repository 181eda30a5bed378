import os
import subprocess
import sys

import numpy as np
import pytest

import pixelcgp
from pixelcgp.envs import N_INPUT_PLANES, EnvError, register_env
from pixelcgp.bridge import N_GLOBAL_ACTIONS
from pixelcgp.evolution import (MAX_GENERATION_GENES, RunConfig,
                                eval_seed_for, evaluate, mutate,
                                run_evolution)
from pixelcgp.genome import random_genome

from stub_ale_server import command, running, started


def test_generation_count():
    assert RunConfig(lam=9, n_eval=10000).generations == 1112
    assert RunConfig(lam=9, n_eval=9).generations == 1
    assert RunConfig(lam=9, n_eval=10).generations == 2


def test_generation_gene_bound():
    # building a config allocates nothing, so both sides of the bound are
    # safe to construct
    for lam, c in ((1, (MAX_GENERATION_GENES - N_GLOBAL_ACTIONS) // 4),
                   (MAX_GENERATION_GENES // (4 * 40 + N_GLOBAL_ACTIONS), 40)):
        RunConfig(lam=lam, c=c)
        for over in (dict(lam=lam, c=c + 1), dict(lam=lam + 1, c=c)):
            with pytest.raises(ValueError, match="genes in a generation"):
                RunConfig(**over)


def test_mutation_counts_exact():
    rng = np.random.default_rng(0)
    parent = random_genome(3, 18, 40, 0.1, rng)
    for _ in range(200):
        child = mutate(parent, 0.1, 0.6, rng)
        diff = parent.genes != child.genes
        assert int(np.sum(diff[:18])) == 11      # round(0.6 * 18)
        assert int(np.sum(diff[18:])) == 16      # round(0.1 * 160)


def test_mutation_rounds_half_up():
    rng = np.random.default_rng(1)
    parent = random_genome(3, 3, 40, 0.1, rng)
    child = mutate(parent, 0.5, 0.5, rng)  # 0.5*3 = 1.5 -> 2 output genes
    diff = parent.genes != child.genes
    assert int(np.sum(diff[:3])) == 2
    assert int(np.sum(diff[3:])) == 80


def test_mutation_preserves_shape_and_range():
    rng = np.random.default_rng(2)
    parent = random_genome(3, 3, 40, 0.1, rng)
    child = mutate(parent, 0.1, 0.6, rng)
    assert len(child.genes) == len(parent.genes)
    assert np.all(child.genes >= 0.0) and np.all(child.genes < 1.0)
    assert (child.n_input, child.n_output, child.C, child.r) == \
        (parent.n_input, parent.n_output, parent.C, parent.r)


def test_eval_seed_for_is_stable_and_distinct():
    assert eval_seed_for(0, 1, 2) == eval_seed_for(0, 1, 2)
    seeds = {eval_seed_for(0, g, i) for g in range(20) for i in range(9)}
    assert len(seeds) == 180  # one distinct seed per offspring slot
    assert all(isinstance(s, int) and s >= 0 for s in seeds)


def test_elite_seed_reproduces_logged_fitness():
    cfg = RunConfig(c=15, lam=5, n_eval=20, seed=4)
    state = run_evolution(cfg)
    from pixelcgp.envs import Catch
    replay = evaluate(state.elite, Catch(), cfg.episodes, state.elite_seed,
                      p_fskip=cfg.p_fskip, frame_cap=cfg.frame_cap)
    assert replay == state.elite_fitness


def test_evaluate_deterministic():
    genome = random_genome(3, 3, 10, 0.1, np.random.default_rng(3))
    from pixelcgp.envs import Catch
    a = evaluate(genome, Catch(), 2, 42, p_fskip=0.25, frame_cap=18000)
    b = evaluate(genome, Catch(), 2, 42, p_fskip=0.25, frame_cap=18000)
    assert a == b


class _CountEnv:
    """Deterministic two-frame env whose reward follows the first action."""

    n_actions = 3

    def __init__(self):
        self.frames = 0

    def reset(self, seed):
        self.frames = 0
        import numpy as np
        from pixelcgp.envs import Observation
        z = np.zeros((2, 2))
        self._obs = Observation(z, z, z)
        return self._obs

    def step(self, action):
        self.frames += 1
        reward = float(action)
        return self._obs, reward, self.frames >= 2

    def close(self):
        pass


def test_elite_fitness_is_monotone():
    register_env("count", _CountEnv)
    cfg = RunConfig(env="count", c=10, lam=4, n_eval=40, p_fskip=0.0, seed=5)
    lines = []
    state = run_evolution(cfg, on_generation=lambda s: lines.append(s.line()))
    fits = [float(line.split()[-1]) for line in lines]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert state.evaluations_used == 1 + 4 * cfg.generations


class _FlatEnv(_CountEnv):
    def step(self, action):
        self.frames += 1
        return self._obs, 0.0, self.frames >= 2


def test_neutral_drift_replaces_elite_on_ties():
    # every genome scores 0, so the elite genome must still change
    register_env("flat", _FlatEnv)
    cfg = RunConfig(env="flat", c=10, lam=4, n_eval=20, p_fskip=0.0, seed=6)
    lines = []
    state = run_evolution(cfg, on_generation=lambda s: lines.append(s.line()))
    assert state.elite_fitness == 0.0
    first = float(lines[0].split()[-1])
    assert first == 0.0
    rng = np.random.default_rng(cfg.seed)
    initial = random_genome(N_INPUT_PLANES, _FlatEnv.n_actions, cfg.c, cfg.r,
                            rng)
    assert not np.array_equal(state.elite.genes, initial.genes)


def test_serial_and_parallel_logs_match():
    lines_serial, lines_parallel = [], []
    for seed in range(3):
        cfg = RunConfig(c=10, lam=4, n_eval=12, seed=seed)
        run_evolution(cfg, workers=1,
                      on_generation=lambda s: lines_serial.append(s.line()))
        run_evolution(cfg, workers=4,
                      on_generation=lambda s: lines_parallel.append(s.line()))
    assert lines_serial == lines_parallel


def test_log_line_format():
    cfg = RunConfig(c=10, lam=2, n_eval=2, seed=0)
    lines = []
    run_evolution(cfg, on_generation=lambda s: lines.append(s.line()))
    assert lines[0].startswith("generation 0 evals 1 best ")
    assert lines[1].startswith("generation 1 evals 3 best ")


def test_serial_run_closes_its_env():
    closed = []

    class Closing(_CountEnv):
        def close(self):
            closed.append(self)

    register_env("closing", Closing)
    run_evolution(RunConfig(env="closing", c=10, lam=2, n_eval=4))
    # each of the 5 evaluations closes the env it played on, and the run
    # closes it once more on its way out
    assert len(closed) == 6


def test_ale_serial_and_parallel_logs_match(stub_pids):
    # ale_server must reach the parent's env and every worker's env; at
    # seed 4 the elite improves in both generations
    cfg = RunConfig(env="ale:pong", c=10, lam=4, n_eval=8, seed=4,
                    ale_server=command("ok"))
    logs, starts = {}, {}
    for workers in (1, 2):
        before = len(started(stub_pids))
        logs[workers] = []
        run_evolution(cfg, workers=workers,
                      on_generation=lambda s: logs[workers].append(s.line()))
        starts[workers] = len(started(stub_pids)) - before
    assert len({line.split()[-1] for line in logs[1]}) == 3
    assert logs[1] == logs[2]
    # one server per episode (9), the first of them started to learn the
    # action count; in parallel runs too, as the parent's env plays
    # generation 0 in that session
    assert starts == {1: 9, 2: 9}


@pytest.mark.parametrize("mode", ["reorder", "shrink"])
def test_pooled_run_checks_every_session_against_the_first(tmp_path, mode):
    # every server after the first offers another action list; a pooled
    # run must reject it as a serial run does, not let each task's first
    # session set an action list of its own
    for workers in (1, 2):
        state = tmp_path / f"state{workers}"
        server = command(mode, state)
        cfg = RunConfig(env="ale:pong", c=10, lam=4, n_eval=8, seed=4,
                        ale_server=server)
        with pytest.raises(EnvError, match="action list changed"):
            run_evolution(cfg, workers=workers)


def test_pool_workers_close_their_envs(stub_pids):
    # each pool task closes its copy of the env; a linger server that a
    # task left open would outlive the run by a minute
    cfg = RunConfig(env="ale:pong", c=10, lam=4, n_eval=8, seed=4,
                    ale_server=command("linger"))
    run_evolution(cfg, workers=2)
    assert len(started(stub_pids)) == 9
    assert not any(map(running, started(stub_pids)))


def test_pooled_run_closes_the_parent_server_before_the_workers_start(
        stub_pids):
    # the parent's env plays only generation 0; a server it kept open
    # would live, with its pipes open in every worker, until the run ends
    cfg = RunConfig(env="ale:pong", c=10, lam=4, n_eval=8, seed=4,
                    ale_server=command("linger"))
    first_alive = []

    def on_generation(state):
        if state.generation == 1:
            first_alive.append(running(started(stub_pids)[0]))

    run_evolution(cfg, workers=2, on_generation=on_generation)
    assert first_alive == [False]


def test_no_server_is_alive_at_a_generation_hook(stub_pids):
    # a serial run used to keep each generation's last server alive through
    # mutation and the hook; every evaluation now closes its env
    cfg = RunConfig(env="ale:pong", c=10, lam=4, n_eval=8, seed=4,
                    ale_server=command("linger"))
    alive = []
    run_evolution(cfg, on_generation=lambda s: alive.append(
        sum(map(running, started(stub_pids)))))
    assert alive == [0, 0, 0]


def test_evolution_does_not_load_the_pool():
    # only a run with workers > 1 needs multiprocessing; the CLI, replay,
    # export-dot and a serial run leave it unloaded
    src = os.path.dirname(os.path.dirname(pixelcgp.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, pixelcgp.evolution; print('multiprocessing' in "
         "sys.modules, 'concurrent.futures.process' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    assert out == "False False\n"
