"""Episodic environments: contract, frame-skip wrapper and the Catch game.

An environment exposes n_actions, reset(seed) -> Observation,
step(action) -> (Observation, reward, done) and close(). Observations are
three rows x cols pixel planes (red, green, blue) with elements in [0, 1],
which feed straight into the [-1, 1] program domain without further scaling.
close() releases what the env holds, such as an emulator server; it may be
called more than once, and a later reset() still works. Every evaluation
(RunConfig.score) closes the env it played on, so no emulator server
outlives it. A closed env can be pickled: a pooled run plays each task on
such a copy of its env, which keeps what the env learned from its first
session, such as an emulator's action list. An env that fails
(a violated contract, an emulator server that dies or misbehaves) raises
EnvError; any other exception out of an env is a defect in pixelcgp.

Planes cost only what the program reads. run_episode hands the Observation
itself to Program.step, which loads only the inputs in Program.reads: those
an output addresses or a traced link reaches. An observation built from a
raw 8-bit frame (Observation.from_frame, as the emulator bridge does)
converts a plane on its first read, so a plane no traced link reaches is
never converted, nor is the observation of a frame before a skipped one.

Catch is a deterministic 12x12 toy: a ball falls one row per frame and a
three-cell paddle slides along the bottom row. It exists so that evolution
and the interpreter can be exercised end to end in microsecond episodes.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np

from .genome import Program, select_action


class EnvError(Exception):
    """A failure of the environment itself: a contract violation, such as
    stepping a finished episode, or an emulator server that fails."""


_held = [0, None]   # the open holds, and the last stop recorded in them


@contextlib.contextmanager
def held_stops():
    """A section that a stop recorded by hold_stop waits for: leaving the
    outermost hold raises the last one at once, and forgets it."""
    _held[0] += 1
    try:
        yield
    finally:
        _held[0] -= 1
        if not _held[0] and _held[1]:
            signum, _held[1] = _held[1], None
            signal.raise_signal(signum)


def hold_stop(signum: int) -> bool:
    """Whether a hold is open; if one is, it holds signum from now on."""
    if _held[0]:
        _held[1] = signum
    return bool(_held[0])


N_INPUT_PLANES = 3


class Observation:
    """One frame's planes; obs[i] is plane i (0 red, 1 green, 2 blue)."""

    __slots__ = ("_planes", "_frame")

    def __init__(self, red: np.ndarray, green: np.ndarray, blue: np.ndarray):
        self._planes = [red, green, blue]
        self._frame = None

    @classmethod
    def from_frame(cls, frame: np.ndarray) -> "Observation":
        """Observation of a (3, rows, cols) uint8 frame. Plane i is made as
        frame[i] / 255.0 when first read, bit for bit the plane a scaling of
        the whole frame gives."""
        obs = cls(None, None, None)
        obs._frame = frame
        return obs

    def __len__(self) -> int:
        return N_INPUT_PLANES

    def __getitem__(self, i: int) -> np.ndarray:
        plane = self._planes[i]
        if plane is None:
            plane = self._planes[i] = self._frame[i] / 255.0
        return plane

    @property
    def planes(self) -> list[np.ndarray]:
        return [self[0], self[1], self[2]]


class Catch:
    """Catch a falling ball with a paddle; +1 per catch, -1 per miss.

    12x12 grid, paddle width 3 (center clamped to columns 1..10), 10 balls
    per episode. The ball spawns at row 0 in a column drawn from the episode
    PRNG and falls one row per frame; it is judged when it reaches the
    bottom row. Actions: 0 noop, 1 left, 2 right.
    """

    GRID = 12
    BALLS = 10
    START_CENTER = 5

    n_actions = 3

    def __init__(self):
        self._rng = None
        self.done = True

    def reset(self, seed) -> Observation:
        self._rng = np.random.default_rng(seed)
        self.paddle = self.START_CENTER
        self.balls_remaining = self.BALLS
        self.ball = (0, int(self._rng.integers(self.GRID)))
        self.done = False
        return self._render()

    def step(self, action: int) -> tuple[Observation, float, bool]:
        if self.done:
            raise EnvError("step after episode end")
        if action == 1:
            self.paddle = max(1, self.paddle - 1)
        elif action == 2:
            self.paddle = min(self.GRID - 2, self.paddle + 1)
        row, col = self.ball
        row += 1
        reward = 0.0
        if row == self.GRID - 1:
            reward = 1.0 if abs(col - self.paddle) <= 1 else -1.0
            self.balls_remaining -= 1
            if self.balls_remaining == 0:
                self.done = True
                self.ball = None
            else:
                self.ball = (0, int(self._rng.integers(self.GRID)))
        else:
            self.ball = (row, col)
        return self._render(), reward, self.done

    def _render(self) -> Observation:
        g = self.GRID
        red = np.zeros((g, g))
        green = np.zeros((g, g))
        if self.ball is not None:
            red[self.ball] = 1.0
        green[g - 1, self.paddle - 1 : self.paddle + 2] = 1.0
        return Observation(red, green, np.zeros((g, g)))

    def close(self) -> None:
        """Catch holds nothing to release."""


class FrameSkip:
    """Random action-repeat wrapper over one episode of env, which the
    caller resets.

    Each frame is skipped with probability p_fskip: the previous action is
    replayed and the controller is not consulted. Skipped frames do not
    count toward the frame cap, but their rewards accumulate. It keeps
    what run_episode reads: the last action and the counted frames.
    """

    def __init__(self, env, p_fskip: float, rng: np.random.Generator):
        self.env = env
        self.p_fskip = p_fskip
        self.rng = rng
        self.last_action = 0
        self.counted_frames = 0

    def step(self, action_fn) -> tuple[Observation, float, bool, bool]:
        """Advance one frame; action_fn is only called on non-skipped frames.

        Returns (observation, reward, done, skipped).
        """
        if self.p_fskip > 0.0 and self.rng.random() < self.p_fskip:
            action = self.last_action
            skipped = True
        else:
            action = action_fn()
            self.last_action = action
            skipped = False
            self.counted_frames += 1
        obs, reward, done = self.env.step(action)
        return obs, reward, done, skipped


def episode_seeds(eval_seed: int, episode: int) -> tuple:
    """Deterministic (env seed, skip seed) pair for one episode."""
    ss = np.random.SeedSequence([int(eval_seed), int(episode)])
    return tuple(ss.spawn(2))


def run_episode(program: Program, env, eval_seed: int, episode: int = 0, *,
                p_fskip: float, frame_cap: int, on_frame=None) -> float:
    """Play one episode and return its total reward.

    The program state is zeroed first and the program is stepped once per
    non-skipped frame. on_frame, if given, is called with (episode,
    frame index, action, reward, program) after every counted frame.
    """
    env_seed, skip_seed = episode_seeds(eval_seed, episode)
    skip = FrameSkip(env, p_fskip, np.random.default_rng(skip_seed))
    obs = env.reset(env_seed)
    program.reset()
    total = 0.0
    done = False

    def act():
        # skip.step calls this before obs is rebound to its result
        return select_action(program.step(obs))

    while not done and skip.counted_frames < frame_cap:
        obs, reward, done, skipped = skip.step(act)
        total += reward
        if on_frame is not None and not skipped:
            on_frame(episode, skip.counted_frames - 1, skip.last_action,
                     reward, program)
    return total


# In-process environments by name (RunConfig.make_env builds ale:* ones).

def make_env(name: str):
    if name in REGISTRY:
        return REGISTRY[name]()
    raise ValueError(f"unknown environment {name!r}")


def register_env(name: str, factory) -> None:
    REGISTRY[name] = factory


REGISTRY = {"catch": Catch}
