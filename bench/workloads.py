"""The benchmark's workloads: inputs drawn from the seed, work in blocks.

Both workloads evaluate a fixed genome set drawn from the seed. A run is a
sequence of blocks, each one generation's worth (lambda = 9) of evaluate
calls. Every block's results reduce to a digest, which the result gate
compares with the reference digests in reference.json.

Each workload class sets BLOCK_SECONDS, a block's duration on a 2-CPU Xeon
VM when the benchmark was defined, which turns --seconds into a fixed block
count; ROUNDS, how often a run repeats its blocks to keep each one's
fastest repetition; and TRACE_BLOCKS, the blocks a traced run measures.

Inputs depend only on the input index, seed % N_INPUTS, so the reference
file covers every seed. Layers are called through module attributes
(evolution.evaluate), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import sys
import time

import numpy as np

from pixelcgp import envs, evolution
from pixelcgp.bridge import AleBridgeEnv
from pixelcgp.genome import decode, random_genome, trace_active

import pong

N_INPUTS = 16
LAM = 9                     # criterion 7's lambda; one block of evaluations
GENOME_SHAPE = dict(n_input=3, n_output=3, C=40, r=0.1)
P_FSKIP = 0.25
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "pong_server.py")


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def server_stats(path: str) -> list[tuple]:
    """(frames, acts, busy ns, ACT reply bytes, action digest) per
    pong_server.py session that has exited, in the order they exited."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [tuple(int(t) for t in fields[:4]) + (fields[4],)
                for fields in map(str.split, f)]


class PongEnv:
    """In-process environment for the Pong-like game, scaled as the bridge
    client scales server frames, so both paths see bit-identical planes."""

    n_actions = 3

    def __init__(self):
        self.core = pong.PongCore()

    def reset(self, seed) -> envs.Observation:
        if isinstance(seed, np.random.SeedSequence):
            seed = int(seed.generate_state(1)[0])
        self.core.reset(seed)
        return self._observe()

    def step(self, action: int):
        reward, done = self.core.step(action)
        return self._observe(), reward, done

    def _observe(self) -> envs.Observation:
        return envs.Observation(*(
            np.frombuffer(plane, dtype=np.uint8).astype(np.float64).reshape(
                pong.HEIGHT, pong.WIDTH) / 255.0
            for plane in self.core.planes))


def first_frame() -> list:
    """Planes every genome filter and shape statistic is taken on."""
    return PongEnv().reset(0).planes


def active_shape(genome, planes) -> tuple[int, int]:
    """(active nodes, matrix-valued active nodes) after one step on planes."""
    program = decode(genome)
    program.step(planes)
    active = [n for n in trace_active(program) if n >= program.n_input]
    return len(active), sum(isinstance(program.state[n], np.ndarray)
                            for n in active)


def _draw_genomes(rng, count: int, min_matrix: int, planes):
    genomes, shapes = [], []
    while len(genomes) < count:
        g = random_genome(rng=rng, **GENOME_SHAPE)
        shape = active_shape(g, planes)
        if shape[1] >= min_matrix:
            genomes.append(g)
            shapes.append(shape)
    return genomes, shapes


class _GenomeSetEval:
    """Evaluates a fixed genome set in blocks of LAM genomes, cyclically.

    Genome k of the set is evaluated with eval seed k, so each genome
    always meets the same episode.
    """

    GENOMES: int
    BLOCKS: int             # GENOMES // LAM
    MIN_MATRIX_NODES: int
    FRAME_CAP: int
    STREAM: int             # keeps the workloads' genome streams apart
    ROUNDS = 3              # fastest of 3: a shared host's slow phases

    def __init__(self, index: int):
        self.index = index
        rng = np.random.default_rng([self.STREAM, index])
        self.genomes, self.shapes = _draw_genomes(
            rng, self.GENOMES, self.MIN_MATRIX_NODES, first_frame())
        self.frames = 0
        self.episodes = 0

    def block_key(self, j: int) -> str:
        return f"{self.index}.{j % self.BLOCKS}"

    def run_block(self, env, j: int) -> dict:
        first = (j * LAM) % self.GENOMES
        clock = time.perf_counter
        evals, results, failed = [], [], 0
        mark = self.mark(env)
        start = clock()
        for k in range(first, first + LAM):
            t0 = clock()
            try:
                results.append(repr(evolution.evaluate(
                    self.genomes[k], env, 1, k, p_fskip=P_FSKIP,
                    frame_cap=self.FRAME_CAP)))
            except Exception as exc:   # counted, and fails the gate
                failed += 1
                results.append(f"raised {type(exc).__name__}")
            evals.append(clock() - t0)
        frames, played = self.since(env, mark)
        seconds = clock() - start
        self.frames += frames
        self.episodes += LAM
        return dict(key=self.block_key(j), digest=digest(results + played),
                    seconds=seconds, evals=evals, frames=frames,
                    failed=failed)

    def check(self, env) -> None:
        pass

    def mark(self, env):
        return env.core.frames

    def since(self, env, mark) -> tuple[int, list[str]]:
        """Frames advanced since mark, and a digest of the actions played
        since then, which joins the block digest: a changed action shows
        even when the reward does not change."""
        played = env.core.played[mark:]     # one action per frame
        return len(played), [hashlib.sha256(played).hexdigest()[:16]]

    def close(self, env) -> None:
        pass

    def shape(self) -> dict:
        return dict(
            genomes=len(self.genomes),
            mean_active_nodes=float(np.mean([s[0] for s in self.shapes])),
            mean_matrix_active_nodes=float(np.mean([s[1] for s in self.shapes])),
            frames_per_episode=self.frames / max(1, self.episodes),
            min_matrix_active_nodes=self.MIN_MATRIX_NODES)


class PixelEval(_GenomeSetEval):
    """evaluate() at the Atari screen size, in process.

    Genomes have the paper's shape and are kept only when at least
    MIN_MATRIX_NODES active nodes are matrix-valued on the first frame:
    unfiltered random genomes average about 3, which would hide the
    210x160 array path this workload exists to measure.

    Episodes stop at FRAME_CAP counted frames, about 80 with skipped ones,
    so that a run covers about 130 genomes: cost per genome varies about
    2x within a set, and runs covering 54 whole 200-frame episodes
    differed by 9-12% (interquartile range over median) across seeds.
    """

    GENOMES = 216
    BLOCKS = GENOMES // LAM
    MIN_MATRIX_NODES = 8
    BLOCK_SECONDS = 0.95
    TRACE_BLOCKS = 6
    FRAME_CAP = 60
    STREAM = 1


class BridgeEval(_GenomeSetEval):
    """The same game served by pong_server.py through bridge.AleBridgeEnv.

    Unfiltered random genomes on short episodes (FRAME_CAP counted frames),
    so per-episode session start and the ~100 KB frame round trip dominate.
    Every session replays the game seeded by the input index, because the
    bridge does not pass episode seeds to the server.
    """

    GENOMES = 432
    BLOCKS = GENOMES // LAM
    MIN_MATRIX_NODES = 0
    BLOCK_SECONDS = 1.3
    TRACE_BLOCKS = 3
    FRAME_CAP = 30
    STREAM = 2

    def __init__(self, index: int, stats_path: str):
        super().__init__(index)
        self.stats_path = stats_path

    def check(self, env) -> None:
        """The bridge's first frame must equal the in-process one exactly."""
        got = env.reset().planes
        ref = PongEnv()
        ref.reset(self.index)
        want = ref.step(0)[0].planes
        env.close()
        if not all(np.array_equal(a, b) for a, b in zip(got, want)):
            raise AssertionError("bridge first frame differs from in-process frame")

    def server_stats(self) -> list[tuple]:
        return server_stats(self.stats_path)

    def mark(self, env):
        return len(self.server_stats())

    def since(self, env, mark) -> tuple[int, list[str]]:
        env.close()     # the server writes its stats line as it exits
        sessions = self.server_stats()[mark:]
        return sum(s[0] for s in sessions), [s[4] for s in sessions]

    def close(self, env) -> None:
        env.close()


def make(name: str, index: int, stats_path: str):
    """The workload's inputs for one input index (input generation)."""
    if name == "bridge_eval":
        return BridgeEval(index, stats_path)
    return PixelEval(index)


def make_env(name: str, index: int, stats_path: str):
    """The environment a workload evaluates on (the measured set-up)."""
    if name == "pixel_eval":
        envs.register_env("pong210", PongEnv)
        return envs.make_env("pong210")
    cmd = shlex.join([sys.executable, SERVER, str(index), stats_path])
    return AleBridgeEnv(cmd, "pong")
