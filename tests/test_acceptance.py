"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single "criterion N ...: PASS/FAIL" line (visible with
pytest -s or in captured output on failure) and asserts the same condition.
All numeric comparisons are exact except where a tolerance is stated
inline (the frame-skip rate, +/- 0.005).
"""

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import oracle
from catch_tracker import build_tracker
from test_genome import _recursive_eval

from pixelcgp.dot import export_dot
from pixelcgp.envs import (Catch, FrameSkip, Observation, episode_seeds,
                           run_episode)
from pixelcgp.evolution import RunConfig, evaluate, mutate, run_evolution
from pixelcgp.functions import FUNCTIONS
from pixelcgp.genome import connection_index, decode, random_genome, \
    trace_active
from pixelcgp.persist import (parse_config, parse_genome, serialize_config,
                              serialize_genome)

_shared = {}  # genomes produced by earlier criteria, reused by later ones


def _report(num, label, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {label} failed{tail}"


def test_criterion_01_function_set_oracle():
    rng = np.random.default_rng(12345)
    n_per_shape = 2500  # x 4 shape combinations = 10^4 cases per function
    start = time.time()
    mismatches = 0
    for spec in FUNCTIONS:
        for shape in range(4):
            x_is_m, y_is_m = shape & 1, shape & 2
            for _ in range(n_per_shape):
                x = (rng.uniform(-1, 1, (rng.integers(1, 4), rng.integers(1, 4)))
                     if x_is_m else float(rng.uniform(-1, 1)))
                y = (rng.uniform(-1, 1, (rng.integers(1, 4), rng.integers(1, 4)))
                     if y_is_m else float(rng.uniform(-1, 1)))
                p = float(rng.uniform(-1, 1))
                from pixelcgp.functions import apply
                if not oracle.same_value(apply(spec, x, y, p),
                                         oracle.ref_node_output(spec.name, x, y, p)):
                    mismatches += 1
    elapsed = time.time() - start
    _report(1, "function-set oracle equivalence", mismatches == 0,
            f"{53 * 4 * n_per_shape} cases, {mismatches} mismatches, "
            f"{elapsed:.1f}s")


def test_criterion_02_interpreter_oracle():
    rng = np.random.default_rng(54321)
    start = time.time()
    bad = 0
    for _ in range(1000):
        prog = decode(random_genome(3, 3, 20, 0.0, rng))
        inputs = [rng.uniform(-1, 1, (3, 3)),
                  float(rng.uniform(-1, 1)),
                  rng.uniform(-1, 1, (2, 5))]
        want = _recursive_eval(prog, inputs)
        got = prog.step(inputs)
        if not all(oracle.same_value(a, b) for a, b in zip(got, want)):
            bad += 1
    elapsed = time.time() - start
    _report(2, "stepwise vs recursive interpreter", bad == 0,
            f"1000 genomes, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_03_decode_invariants():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100000):
        gene = float(rng.random())
        n = int(rng.integers(1, 100))
        N = n + int(rng.integers(1, 100))
        r = float(rng.random()) if rng.random() < 0.5 else 0.0
        idx = connection_index(gene, n, N, r)
        if not 0 <= idx < N or (r == 0.0 and idx >= n):
            ok = False
            break
    _report(3, "connection decode bounds", ok, "10^5 tuples")


def test_criterion_04_mutation_counts():
    rng = np.random.default_rng(7)
    parent = random_genome(3, 18, 40, 0.1, rng)
    ok = True
    for _ in range(1000):
        child = mutate(parent, 0.1, 0.6, rng)
        diff = parent.genes != child.genes
        if int(np.sum(diff[18:])) != 16 or int(np.sum(diff[:18])) != 11:
            ok = False
            break
    _report(4, "exact mutation counts 16/11", ok, "1000 mutations")


def test_criterion_05_evolution_invariants():
    gens_ok = RunConfig(lam=9, n_eval=10000).generations == 1112
    cfg = RunConfig(c=10, lam=9, n_eval=90, seed=17)
    lines = []
    run_evolution(cfg, log_fn=lines.append)
    fits = [float(line.split()[-1]) for line in lines]
    monotone = all(b >= a for a, b in zip(fits, fits[1:]))
    identical = True
    for seed in range(5):
        small = RunConfig(c=10, lam=9, n_eval=18, seed=seed)
        serial, parallel = [], []
        run_evolution(small, workers=1, log_fn=serial.append)
        run_evolution(small, workers=9, log_fn=parallel.append)
        if serial != parallel:
            identical = False
    _report(5, "evolution invariants",
            gens_ok and monotone and identical,
            f"generations=1112:{gens_ok} monotone:{monotone} "
            f"serial==parallel:{identical}")


def _action_trace(genome, seed, frames):
    actions = []
    run_episode(decode(genome), Catch(), seed, p_fskip=0.0, frame_cap=frames,
                on_frame=lambda i, a, r, p: actions.append(a))
    return actions


def test_criterion_06_junk_node_neutrality():
    rng = np.random.default_rng(23)
    ok = True
    for trial in range(100):
        genome = random_genome(3, 3, 40, 0.1, rng)
        active = trace_active(decode(genome))
        genes = genome.genes.copy()
        for k in range(genome.C):
            if 3 + k not in active:
                lo = genome.n_output + 4 * k
                genes[lo : lo + 4] = rng.random(4)
        mutant = genome.with_genes(genes)
        if _action_trace(genome, trial, 100) != _action_trace(mutant, trial, 100):
            ok = False
            break
    _report(6, "junk-node neutrality", ok, "100 genomes, 100-frame traces")


def _greedy_score(env_seed) -> float:
    """Exhaustive simulation oracle: follow the ball, the known optimum."""
    env = Catch()
    env.reset(env_seed)
    total, done = 0.0, False
    while not done:
        col = env.ball[1]
        action = 1 if col < env.paddle else (2 if col > env.paddle else 0)
        _, r, done = env.step(action)
        total += r
    return total


def _evolve_elite(seed):
    """(best fitness, elite) of criterion 7's run from seed."""
    state = run_evolution(RunConfig(seed=seed))  # c=40, lam=9, n_eval=10000
    return state.elite_fitness, state.elite


def _best_random(first, genomes, seeds):
    """Best fitness of the random genomes numbered first, first + 1, ...;
    genome i is scored from seeds[i % len(seeds)]."""
    env = Catch()
    return max(evaluate(g, env, 1, seeds[(first + k) % len(seeds)],
                        p_fskip=0.25)
               for k, g in enumerate(genomes))


@pytest.mark.slow
def test_criterion_07_catch_capability():
    # (a) expressiveness: the hand-built tracker is a perfect player
    tracker = decode(build_tracker())
    scores = [run_episode(tracker, Catch(), seed, p_fskip=0.0)
              for seed in range(20)]
    oracle_scores = [_greedy_score(episode_seeds(seed, 0)[0])
                     for seed in range(20)]
    hand_ok = scores == oracle_scores == [10.0] * 20

    # (b) search effectiveness: evolution beats the best of random search.
    # The five runs and the random genomes' scores are independent, so two
    # worker processes share them; the genomes are drawn here, in order.
    start = time.time()
    seeds = list(range(5))
    rng = np.random.default_rng(0)
    randoms = [random_genome(3, 3, 40, 0.1, rng) for _ in range(10000)]
    firsts = range(0, len(randoms), 500)
    with ProcessPoolExecutor(
            2, mp_context=multiprocessing.get_context("spawn")) as pool:
        # map submits every task at once, so the chunks fill the idle worker
        runs = pool.map(_evolve_elite, seeds)
        chunk_bests = pool.map(_best_random, firsts,
                               [randoms[i:i + 500] for i in firsts],
                               [seeds] * len(firsts))
        best_fits, elites = zip(*runs)
        random_best = max(chunk_bests)
    _shared["evolved"] = list(elites)
    evolved_median = statistics.median(best_fits)
    search_ok = evolved_median > random_best
    elapsed = time.time() - start
    _report(7, "catch capability", hand_ok and search_ok,
            f"tracker:{scores.count(10.0)}/20 at +10, evolved median "
            f"{evolved_median} vs random best {random_best}, {elapsed:.0f}s")


class _Endless:
    n_actions = 3

    def __init__(self):
        self.steps = 0
        z = np.zeros((2, 2))
        self._obs = Observation(z, z, z)

    def reset(self, seed):
        self.steps = 0
        return self._obs

    def step(self, action):
        self.steps += 1
        return self._obs, 0.0, False


def test_criterion_08_frame_skip_statistics():
    env = _Endless()
    skip = FrameSkip(env, 0.25, np.random.default_rng(4))
    skip.reset(0)
    n = 10 ** 6
    for _ in range(n):
        skip.step(lambda: 0)
    rate = skip.skipped_frames / n
    rate_ok = abs(rate - 0.25) <= 0.005

    # skipped frames must not count toward the frame cap
    env2 = _Endless()
    genome = random_genome(3, 3, 5, 0.1, np.random.default_rng(1))
    run_episode(decode(genome), env2, 3, p_fskip=0.25, frame_cap=2000)
    cap_ok = env2.steps > 2000  # counted 2000 plus the skipped ones
    _report(8, "frame-skip statistics", rate_ok and cap_ok,
            f"rate {rate:.4f} in 0.25+/-0.005, {env2.steps} frames for "
            f"a 2000-frame cap")


def test_criterion_09_round_trips():
    rng = np.random.default_rng(31)
    genome = random_genome(3, 3, 40, 0.1, rng)
    g_ok = np.array_equal(
        genome.genes, parse_genome(serialize_genome(genome)).genes)
    cfg = RunConfig(lam=7, seed=12, p_fskip=0.125, n_eval=321)
    c_ok = parse_config(serialize_config(cfg)) == cfg

    run_cfg = RunConfig(c=20, lam=9, n_eval=45, seed=8)
    state = run_evolution(run_cfg)
    reloaded = parse_genome(serialize_genome(state.elite))
    replay = evaluate(reloaded, Catch(), run_cfg.episodes,
                      state.elite_seed, p_fskip=run_cfg.p_fskip,
                      frame_cap=run_cfg.frame_cap)
    r_ok = replay == state.elite_fitness
    _report(9, "round-trips", g_ok and c_ok and r_ok,
            f"genome:{g_ok} config:{c_ok} replay {replay} == "
            f"logged {state.elite_fitness}:{r_ok}")


def test_criterion_10_dot_export_active_only():
    import re
    evolved = _shared.get("evolved")
    if evolved:
        best = evolved[0]
    else:  # criterion 7 did not run; evolve a small stand-in
        best = run_evolution(RunConfig(c=20, n_eval=45, seed=2)).elite
    text = export_dot(best)
    declared = {int(m) for m in re.findall(r"^  n(\d+) \[", text, re.M)}
    active = trace_active(decode(best))
    ok = declared == active
    _report(10, "DOT export active nodes only", ok,
            f"{len(declared)} declared == {len(active)} active")
