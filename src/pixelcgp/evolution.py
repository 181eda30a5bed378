"""1+lambda evolutionary algorithm over CGP genomes.

One elite genome is kept; every generation it spawns lambda mutants, each
mutant is evaluated, and the best offspring whose fitness is greater than
or equal to the elite's replaces it (equal fitness replaces, so neutral
drift through junk genes stays possible). The run stops after
ceil(n_eval / lambda) generations.

Mutation replaces an exact count of distinct genes: round-half-up of
m_nodes * 4C node genes and of m_output * n_output output genes.

Evaluation is deterministic given (genome, eval seed). Each offspring slot
gets its own integer eval seed derived from (run seed, generation,
offspring index), so every generation faces fresh episodes but any logged
fitness can be reproduced later from the genome and that one integer; the
elite's seed travels in the state each generation's hook gets. Offspring
of one generation may be evaluated in parallel worker processes; results
are merged in offspring order, so serial and parallel runs log identically.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
import shlex
from dataclasses import dataclass

import numpy as np

from . import bridge, envs
from .genome import Genome, decode, random_genome

# the most genes one generation may hold, 800 MB as float64: lambda
# offspring of 4 * c node genes and up to one output gene per action each
MAX_GENERATION_GENES = 10 ** 8


@dataclass
class RunConfig:
    """One run's settings. The fields are the config-file keys, except that
    the file spells lam "lambda". Values no run can use are rejected on
    construction with ValueError."""

    env: str = "catch"
    lam: int = 9
    c: int = 40
    r: float = 0.1
    m_nodes: float = 0.1
    m_output: float = 0.6
    n_eval: int = 10000
    episodes: int = 1
    p_fskip: float = 0.25
    frame_cap: int = 18000
    seed: int = 0
    out_dir: str = "."
    ale_server: str = ""

    def __post_init__(self):
        # each would fail later with a traceback (a zero lambda or episode
        # count divides by zero, numpy rejects a negative seed), decode
        # genomes outside their graph (r > 1) or end every episode before
        # its first frame (frame_cap < 1)
        for key, value, least in (
                ("lambda", self.lam, 1), ("episodes", self.episodes, 1),
                ("c", self.c, 1), ("n_eval", self.n_eval, 1),
                ("frame_cap", self.frame_cap, 1), ("seed", self.seed, 0)):
            if value < least:
                raise ValueError(f"{key} = {value} must be at least {least}")
        # a run that cannot hold one generation would fail only after
        # evolve has written generation 0, or once memory runs out
        genes = self.lam * (4 * self.c + bridge.N_GLOBAL_ACTIONS)
        if genes > MAX_GENERATION_GENES:
            raise ValueError(
                f"lambda * (4 * c + {bridge.N_GLOBAL_ACTIONS}) = {genes} "
                f"genes in a generation, over {MAX_GENERATION_GENES}")
        for key in ("m_nodes", "m_output", "r"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} = {value!r} outside [0, 1]")
        # at p_fskip = 1 every frame is skipped, so the frame cap is never met
        if not 0.0 <= self.p_fskip < 1.0:
            raise ValueError(f"p_fskip = {self.p_fskip!r} outside [0, 1)")
        # no path or command line can hold a NUL byte
        for key in ("out_dir", "ale_server"):
            value = getattr(self, key)
            if "\0" in value:
                raise ValueError(f"{key} = {value!r} holds a NUL byte")
        # a bad env would otherwise fail only after evolve opened its log
        if self.env.startswith("ale:"):
            # the ROM is the one token of the bridge's INIT line
            if not re.fullmatch("[!-~]+", self.env[4:]):
                raise ValueError(f"env = {self.env!r}: the ROM name must be "
                                 "one printable ASCII token")
            try:   # the command line the bridge will run
                argv = shlex.split(self.ale_server)
            except ValueError as exc:
                raise ValueError(
                    f"ale_server = {self.ale_server}: {exc}") from exc
            if not argv or not argv[0]:   # unset, or "" in a config file
                raise ValueError(f"env = {self.env}: no program in ale_server")
        elif self.env not in envs.REGISTRY:
            raise ValueError(f"unknown environment {self.env!r}")

    @property
    def generations(self) -> int:
        return math.ceil(self.n_eval / self.lam)

    def make_env(self):
        """The run's environment; every evaluation plays in one built here."""
        if self.env.startswith("ale:"):
            return bridge.AleBridgeEnv(self.ale_server, self.env[4:])
        return envs.make_env(self.env)

    def score(self, genome: Genome, env, eval_seed: int,
              on_frame=None) -> float:
        """genome's fitness under this run's protocol (episodes, p_fskip,
        frame_cap) from eval_seed, with on_frame as evaluate takes it.
        Evolution, its pool tasks and replay all score through here, so a
        logged fitness replays exactly. The evaluation closes env when it
        ends, so no server outlives it. A fitness that is not finite, such
        as rewards whose sum overflows, raises EnvError."""
        with contextlib.closing(env):
            fitness = evaluate(genome, env, self.episodes, eval_seed,
                               p_fskip=self.p_fskip,
                               frame_cap=self.frame_cap, on_frame=on_frame)
        if not math.isfinite(fitness):
            raise envs.EnvError(f"non-finite fitness {fitness}")
        return fitness


@dataclass
class EvolutionState:
    elite: Genome              # the best genome so far
    elite_fitness: float
    elite_seed: int            # eval seed that produced elite_fitness
    evaluations_used: int
    generation: int = 0

    def line(self) -> str:
        """The latest generation's log line."""
        return (f"generation {self.generation} evals {self.evaluations_used} "
                f"best {self.elite_fitness}")


def eval_seed_for(run_seed: int, generation: int, index: int) -> int:
    """Evaluation seed for one offspring slot, as a plain integer.

    A plain integer so it can be written down and handed back to evaluate()
    or a replay to reproduce the logged fitness exactly.
    """
    ss = np.random.SeedSequence([int(run_seed), int(generation), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _exact_count(fraction: float, total: int) -> int:
    return int(math.floor(fraction * total + 0.5))


def mutate(parent: Genome, m_nodes: float, m_output: float,
           rng: np.random.Generator) -> Genome:
    """Child with fresh uniform values at an exact count of distinct genes."""
    genes = parent.genes.copy()
    n_out = parent.n_output
    k_n = _exact_count(m_nodes, 4 * parent.C)
    k_o = _exact_count(m_output, n_out)
    if k_n:
        sites = rng.choice(4 * parent.C, size=k_n, replace=False)
        genes[n_out + sites] = rng.random(k_n)
    if k_o:
        sites = rng.choice(n_out, size=k_o, replace=False)
        genes[sites] = rng.random(k_o)
    return parent.with_genes(genes)


class GenomeMismatch(ValueError):
    """A genome whose inputs or outputs do not fit the environment."""


def evaluate(genome: Genome, environment, episodes_per_eval: int,
             eval_seed: int, *, p_fskip: float, frame_cap: int,
             on_frame=None) -> float:
    """Mean total episode reward; deterministic given (genome, eval_seed).

    The genome must read the observation planes and have one output per
    action of the environment, or GenomeMismatch is raised before any play.
    on_frame, if given, is passed to each episode's run_episode, which calls
    it as on_frame(episode, frame index, action, reward, program).
    """
    if (genome.n_input != envs.N_INPUT_PLANES
            or genome.n_output != environment.n_actions):
        raise GenomeMismatch(
            f"genome has {genome.n_input} inputs and {genome.n_output} "
            f"outputs, environment has {envs.N_INPUT_PLANES} planes and "
            f"{environment.n_actions} actions")
    program = decode(genome)
    totals = [
        envs.run_episode(program, environment, eval_seed, episode=ep,
                         p_fskip=p_fskip, frame_cap=frame_cap,
                         on_frame=on_frame)
        for ep in range(episodes_per_eval)
    ]
    return sum(totals) / len(totals)


def run_evolution(config: RunConfig, workers: int = 1,
                  on_generation=None) -> EvolutionState:
    """Full 1+lambda run; returns the final state, whose elite is the best
    genome. on_generation, if given, gets the live state from generation 0 on.

    The genome has one input per observation plane and one output per
    action of the config's environment. The env is built once, here, and
    each generation maps config.score, which closes the env after each
    evaluation, over (offspring, env, eval seed). With workers > 1 each pool
    task plays on a pickled copy of the closed env, which keeps its legal
    action list. A run that stops before its first score closes it too.
    """
    rng = np.random.default_rng(config.seed)
    with contextlib.ExitStack() as stack:
        env = stack.enter_context(contextlib.closing(config.make_env()))
        first = random_genome(envs.N_INPUT_PLANES, env.n_actions,
                              config.c, config.r, rng)
        seed = eval_seed_for(config.seed, 0, 0)
        # scored here even with a pool: the session that answered n_actions
        # then plays this episode, and the evaluation closes the env before
        # the pool starts, so no worker inherits its server's pipes
        state = EvolutionState(first, config.score(first, env, seed), seed,
                               evaluations_used=1)
        if on_generation is not None:
            on_generation(state)
        mapper = map
        if workers > 1:
            # only a pool loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            mapper = stack.enter_context(ProcessPoolExecutor(workers)).map
        for gen in range(1, config.generations + 1):
            offspring = [
                mutate(state.elite, config.m_nodes, config.m_output, rng)
                for _ in range(config.lam)
            ]
            seeds = [eval_seed_for(config.seed, gen, i)
                     for i in range(config.lam)]
            fits = list(mapper(config.score, offspring, itertools.repeat(env),
                               seeds))
            state.evaluations_used += config.lam
            best_i = max(range(config.lam), key=lambda i: (fits[i], -i))
            if fits[best_i] >= state.elite_fitness:
                state.elite, state.elite_fitness, state.elite_seed = (
                    offspring[best_i], fits[best_i], seeds[best_i])
            state.generation = gen
            if on_generation is not None:
                on_generation(state)
        return state
