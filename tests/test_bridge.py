import signal
import subprocess
import sys

import numpy as np
import pytest

from pixelcgp import bridge, envs
from pixelcgp.bridge import (ACTION_TABLE, AleBridgeEnv, BridgeSession,
                             MAX_LINE_BYTES, NOOP)
from pixelcgp.envs import EnvError, Observation, run_episode
from pixelcgp.evolution import RunConfig
from pixelcgp.functions import FUNCTIONS_BY_NAME
from pixelcgp.genome import Program

from stub_ale_server import command



def test_action_table():
    assert len(ACTION_TABLE) == 18
    assert ACTION_TABLE[NOOP] == "NOOP"
    assert len(set(ACTION_TABLE)) == 18


def test_handshake_and_frames():
    s = BridgeSession(command("ok"), "pong")
    try:
        assert (s.width, s.height) == (4, 3)
        assert s.legal_actions == [0, 3, 4]
        obs, reward, done = s.act(3)
        assert reward == 3.5 and not done
        assert obs[0].shape == (3, 4)
        # plane bytes are (action + plane*10 + pixel) / 255
        assert obs[0][0, 0] == 3 / 255
        assert obs[1][0, 0] == 13 / 255
        assert obs[2][2, 3] == (3 + 20 + 11) / 255
    finally:
        s.close()


def test_handshake_rejection():
    with pytest.raises(EnvError, match="rejected"):
        BridgeSession(command("err"), "pong")


@pytest.mark.parametrize("mode", ["empty", "negative", "huge"])
def test_handshake_screen_size_bounded(mode):
    # a 0x0 screen gave empty planes; a negative or huge one reached read()
    with pytest.raises(EnvError, match="screen size"):
        BridgeSession(command(mode), "pong")


@pytest.mark.parametrize("mode, match", [
    ("badnum", "malformed handshake reply"),
    ("badcount", "action list mismatch"),
    ("badaction", "action id out of range"),
    # the reply used to be read whole, however long, before any check
    ("longline", f"longer than {MAX_LINE_BYTES} bytes"),
])
def test_malformed_handshake(mode, match):
    with pytest.raises(EnvError, match=match):
        BridgeSession(command(mode), "pong")


def _spy_on_servers(monkeypatch) -> list:
    """Every server process a bridge starts from now on, in start order."""
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def _released(proc) -> bool:
    return (proc.returncode is not None and proc.stdin.closed
            and proc.stdout.closed)


@pytest.mark.parametrize("mode", ["err", "empty"])
def test_failed_handshake_releases_its_server(monkeypatch, mode):
    started = _spy_on_servers(monkeypatch)
    with pytest.raises(EnvError):
        BridgeSession(command(mode), "pong")
    assert len(started) == 1 and _released(started[0])


def test_building_an_env_starts_no_server(monkeypatch):
    started = _spy_on_servers(monkeypatch)
    env = AleBridgeEnv(command("ok"), "pong")
    env.close()
    assert started == []


def test_action_count_session_serves_the_first_episode(monkeypatch):
    started = _spy_on_servers(monkeypatch)
    env = AleBridgeEnv(command("ok"), "pong")
    try:
        assert env.n_actions == 3
        env.reset()
        assert len(started) == 1
        env.reset()
        assert len(started) == 2
    finally:
        env.close()


def test_env_releases_every_server(monkeypatch):
    # one session per episode, and no action-count probe
    started = _spy_on_servers(monkeypatch)
    env = AleBridgeEnv(command("ok"), "pong")
    env.reset()
    env.reset()
    env.close()
    assert len(started) == 2 and all(map(_released, started))


def test_close_kills_a_server_that_ignores_sigterm(monkeypatch):
    monkeypatch.setattr(bridge, "TERM_GRACE_S", 0.2)
    s = BridgeSession(command("stubborn"), "pong")
    s.close()
    assert _released(s.proc) and s.proc.returncode == -signal.SIGKILL


def test_malformed_step_reply():
    s = BridgeSession(command("badline"), "pong")
    try:
        with pytest.raises(EnvError):
            s.act(0)
    finally:
        s.close()


@pytest.mark.parametrize("mode, match", [("nanreward", "non-finite reward"),
                                         ("textreward", "malformed step reply"),
                                         ("baddone", "malformed step reply")])
def test_bad_reward_or_done_flag(mode, match):
    # a NaN reward used to become the run's fitness, and any integer its done
    s = BridgeSession(command(mode), "pong")
    try:
        with pytest.raises(EnvError, match=match):
            s.act(0)
    finally:
        s.close()


def test_short_frame_read():
    s = BridgeSession(command("short"), "pong")
    try:
        with pytest.raises(EnvError, match="short frame"):
            s.act(0)
    finally:
        s.close()


def test_step_reply_cut_off_mid_line():
    s = BridgeSession(command("cutline"), "pong")
    try:
        with pytest.raises(EnvError, match="mid-reply"):
            s.act(0)
    finally:
        s.close()


def test_request_after_server_exit():
    s = BridgeSession(command("quit"), "pong")
    try:
        s.proc.wait(timeout=10)
        with pytest.raises(EnvError, match="pipe closed"):
            s.act(0)
    finally:
        s.close()


def test_missing_server_binary():
    with pytest.raises(EnvError, match="cannot start"):
        BridgeSession("/no/such/server", "pong")


def test_server_command_with_a_nul_byte():
    # Popen rejects it with ValueError, which only the CLI's catch-all of
    # every exception used to report as an environment error
    with pytest.raises(EnvError, match="cannot start"):
        BridgeSession(f"{sys.executable}\0x", "pong")


def test_env_adapter_maps_local_actions():
    env = AleBridgeEnv(command("ok"), "pong")
    try:
        assert env.n_actions == 3
        obs = env.reset()
        assert obs[0].shape == (3, 4)
        # local action 1 -> global action 3
        _, reward, done = env.step(1)
        assert reward == 3.5 and not done
        _, reward, done = env.step(2)
        assert reward == 4.5 and done
        with pytest.raises(EnvError):
            env.step(0)  # episode over
        with pytest.raises(EnvError):
            env.reset() and env.step(5)  # out of range
    finally:
        env.close()


def test_env_adapter_fresh_session_per_reset():
    env = AleBridgeEnv(command("ok"), "pong")
    try:
        env.reset()
        first = env.session.proc.pid
        env.reset()
        assert env.session.proc.pid != first
    finally:
        env.close()


def test_env_rejects_changed_action_list(tmp_path):
    # the server offers three actions at its first start, two after that;
    # the first session serves the first episode
    env = AleBridgeEnv(command("shrink", tmp_path / "started"), "pong")
    try:
        assert env.n_actions == 3
        env.reset()
        with pytest.raises(EnvError, match="action list changed"):
            env.reset()
    finally:
        env.close()


def test_env_rejects_reordered_action_list(tmp_path):
    # the same count in another order: local action 1 would have become
    # global 4 (LEFT) in the second episode instead of 3 (RIGHT)
    env = AleBridgeEnv(command("reorder", tmp_path / "started"), "pong")
    try:
        env.reset()
        with pytest.raises(EnvError, match="action list changed"):
            env.reset()
        with pytest.raises(EnvError, match="without an open episode"):
            env.step(1)
    finally:
        env.close()


class _FrameSpy:
    """A raw frame that records which planes are taken from it."""

    def __init__(self, frame):
        self.frame, self.taken = frame, []

    def __getitem__(self, i):
        self.taken.append(i)
        return self.frame[i]


def test_unread_planes_are_never_converted():
    frame = np.arange(3 * 4 * 5, dtype=np.uint8).reshape(3, 4, 5)
    # node 3 = ADD(red, red), or ABS(red) with its untraced y on green:
    # either way the program reads plane 0 only
    for name, yi in (("ADD", 0), ("ABS", 1)):
        spy = _FrameSpy(frame)
        prog = Program(3, 4, [3], [(3, FUNCTIONS_BY_NAME[name], 0, yi, 1.0)])
        assert prog.reads == [0]
        obs = Observation.from_frame(spy)
        prog.step(obs)
        prog.step(obs)
        assert spy.taken == [0]
        # a plane made on first read is bit for bit the whole frame's scaling
        assert all(map(np.array_equal, obs.planes, frame / 255.0))


def test_skipped_frames_are_never_converted(monkeypatch):
    # the observation before a skipped frame goes unread, and so does the
    # last one; every other observation has all three planes read
    frames, skipped = [], []
    from_frame = Observation.from_frame.__func__
    step = envs.FrameSkip.step

    def spy_from_frame(cls, frame):
        frames.append(_FrameSpy(frame))
        return from_frame(cls, frames[-1])

    def spy_step(self, action_fn):
        result = step(self, action_fn)
        skipped.append(result[3])
        return result

    monkeypatch.setattr(Observation, "from_frame", classmethod(spy_from_frame))
    monkeypatch.setattr(envs.FrameSkip, "step", spy_step)
    env = AleBridgeEnv(command("long"), "pong")
    try:
        # no program nodes: the outputs are the three planes themselves
        run_episode(Program(3, 3, [0, 1, 2], []), env, 5, p_fskip=0.5,
                    frame_cap=18000)
    finally:
        env.close()
    assert len(frames) == len(skipped) + 1 == 40
    assert any(skipped) and not all(skipped)
    for spy, next_skipped in zip(frames, skipped + [True]):
        assert spy.taken == ([] if next_skipped else [0, 1, 2])


def test_make_env_ale_route():
    env = RunConfig(env="ale:pong", ale_server=command("ok")).make_env()
    try:
        assert env.n_actions == 3
    finally:
        env.close()


def test_observation_values_unit_scaled():
    env = AleBridgeEnv(command("ok"), "pong")
    try:
        obs = env.reset()
        for plane in obs.planes:
            assert np.all(plane >= 0.0) and np.all(plane <= 1.0)
    finally:
        env.close()
