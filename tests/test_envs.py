import os
import subprocess
import sys

import numpy as np
import pytest

import pixelcgp
from pixelcgp.envs import (Catch, EnvError, FrameSkip, episode_seeds,
                           make_env, run_episode)
from pixelcgp.evolution import evaluate
from pixelcgp.genome import decode

from catch_tracker import build_tracker


def _greedy_episode(seed):
    """Independent optimal play: move the paddle toward the ball column."""
    env = Catch()
    env.reset(seed)
    total = 0.0
    done = False
    while not done:
        col = env.ball[1]
        if col < env.paddle:
            action = 1
        elif col > env.paddle:
            action = 2
        else:
            action = 0
        _, reward, done = env.step(action)
        total += reward
    return total


def test_catch_observation_layout():
    env = Catch()
    obs = env.reset(0)
    assert obs[0].shape == (12, 12)
    assert float(np.sum(obs[0])) == 1.0        # one ball pixel
    assert float(np.sum(obs[1])) == 3.0        # three paddle pixels
    assert float(np.sum(obs[2])) == 0.0
    assert np.argmax(np.sum(obs[0], axis=0)) == env.ball[1]
    assert obs[0][0].sum() == 1.0              # ball spawns in the top row


def test_catch_ball_falls_one_row_per_frame():
    env = Catch()
    env.reset(3)
    col = env.ball[1]
    for row in range(1, 11):
        env.step(0)
        assert env.ball == (row, col)


def test_catch_paddle_moves_and_clamps():
    env = Catch()
    env.reset(0)
    for _ in range(12):
        env.step(1)
    assert env.paddle == 1
    for _ in range(12):
        env.step(2)
    assert env.paddle == 10


def test_catch_episode_is_ten_balls():
    env = Catch()
    env.reset(5)
    rewards = []
    done = False
    frames = 0
    while not done:
        _, r, done = env.step(0)
        frames += 1
        if r != 0.0:
            rewards.append(r)
    assert len(rewards) == 10
    assert frames == 110  # 11 falling frames per ball
    assert all(r in (-1.0, 1.0) for r in rewards)
    with pytest.raises(EnvError):
        env.step(0)


def test_catch_deterministic_per_seed():
    a, b = Catch(), Catch()
    a.reset(9)
    b.reset(9)
    for _ in range(110):
        oa, ra, da = a.step(0)
        ob, rb, db = b.step(0)
        assert np.array_equal(oa[0], ob[0])
        assert ra == rb and da == db
    assert not np.array_equal(Catch().reset(1)[0], Catch().reset(2)[0])


def test_greedy_play_scores_ten():
    # paddle speed 1 always suffices across a 12-wide grid
    assert all(_greedy_episode(seed) == 10.0 for seed in range(20))


def test_frameskip_replays_last_action():
    env = Catch()
    skip = FrameSkip(env, 1.0, np.random.default_rng(0))
    env.reset(0)
    calls = []

    def act():
        calls.append(1)
        return 2

    for _ in range(5):
        _, _, _, skipped = skip.step(act)
        assert skipped
    assert calls == []  # controller never consulted at p_fskip = 1
    assert 5 - skip.counted_frames == 5 and skip.counted_frames == 0


def test_frameskip_zero_counts_everything():
    env = Catch()
    skip = FrameSkip(env, 0.0, np.random.default_rng(0))
    env.reset(0)
    for _ in range(7):
        _, _, _, skipped = skip.step(lambda: 0)
        assert not skipped
    assert skip.counted_frames == 7 and 7 - skip.counted_frames == 0


def test_episode_seeds_are_stable_and_distinct():
    a = episode_seeds(5, 0)
    b = episode_seeds(5, 0)
    c = episode_seeds(5, 1)
    assert np.random.default_rng(a[0]).random() == \
        np.random.default_rng(b[0]).random()
    assert np.random.default_rng(a[0]).random() != \
        np.random.default_rng(c[0]).random()


def test_run_episode_tracker_scores_ten():
    prog = decode(build_tracker())
    assert run_episode(prog, Catch(), 0, p_fskip=0.0, frame_cap=18000) == 10.0


def test_run_episode_frame_cap():
    prog = decode(build_tracker())
    frames = []
    total = run_episode(prog, Catch(), 0, p_fskip=0.0, frame_cap=30,
                        on_frame=lambda e, i, a, r, p: frames.append(i))
    assert frames == list(range(30))
    assert total == 2.0  # only 2 balls are judged in 30 frames, both caught


def test_on_frame_is_told_its_episode():
    # evaluate used to bind each episode's index to on_frame itself, as
    # run_episode passed none
    prog = decode(build_tracker())
    seen = []
    run_episode(prog, Catch(), 0, episode=3, p_fskip=0.25, frame_cap=7,
                on_frame=lambda e, i, a, r, p: seen.append((e, i)))
    assert seen == [(3, i) for i in range(7)]
    seen.clear()
    evaluate(build_tracker(), Catch(), 2, 0, p_fskip=0.25, frame_cap=7,
             on_frame=lambda e, i, a, r, p: seen.append((e, i)))
    assert seen == [(e, i) for e in (0, 1) for i in range(7)]


def test_run_episode_is_repeatable_with_skip():
    prog = decode(build_tracker())
    a = run_episode(prog, Catch(), 11, p_fskip=0.25, frame_cap=18000)
    b = run_episode(prog, Catch(), 11, p_fskip=0.25, frame_cap=18000)
    assert a == b


def test_make_env():
    assert isinstance(make_env("catch"), Catch)
    with pytest.raises(ValueError):
        make_env("nosuch")
    with pytest.raises(ValueError):
        make_env("ale:pong")  # only RunConfig.make_env builds ale:* games


def test_envs_does_not_load_the_bridge():
    # envs is the in-process half; the emulator client stays unloaded
    # until something builds an ale:* game
    src = os.path.dirname(os.path.dirname(pixelcgp.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, pixelcgp.envs; print('pixelcgp.bridge' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    assert out == "False\n"
