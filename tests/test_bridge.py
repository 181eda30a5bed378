import os
import subprocess
import sys

import numpy as np
import pytest

from pixelcgp.bridge import (ACTION_TABLE, AleBridgeEnv, BridgeError,
                             BridgeSession, NOOP)
from pixelcgp.evolution import RunConfig

STUB = os.path.join(os.path.dirname(__file__), "stub_ale_server.py")


def _cmd(mode):
    return f"{sys.executable} {STUB} {mode}"


def test_action_table():
    assert len(ACTION_TABLE) == 18
    assert ACTION_TABLE[NOOP] == "NOOP"
    assert len(set(ACTION_TABLE)) == 18


def test_handshake_and_frames():
    s = BridgeSession(_cmd("ok"), "pong")
    try:
        assert (s.width, s.height) == (4, 3)
        assert s.legal_actions == [0, 3, 4]
        obs, reward, done = s.act(3)
        assert reward == 3.5 and not done
        assert obs.red.shape == (3, 4)
        # plane bytes are (action + plane*10 + pixel) / 255
        assert obs.red[0, 0] == 3 / 255
        assert obs.green[0, 0] == 13 / 255
        assert obs.blue[2, 3] == (3 + 20 + 11) / 255
    finally:
        s.close()


def test_handshake_rejection():
    with pytest.raises(BridgeError, match="rejected"):
        BridgeSession(_cmd("err"), "pong")


@pytest.mark.parametrize("mode", ["empty", "negative", "huge"])
def test_handshake_screen_size_bounded(mode):
    # a 0x0 screen gave empty planes; a negative or huge one reached read()
    with pytest.raises(BridgeError, match="screen size"):
        BridgeSession(_cmd(mode), "pong")


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
    with pytest.raises(BridgeError):
        BridgeSession(_cmd(mode), "pong")
    assert len(started) == 1 and _released(started[0])


def test_env_releases_every_server(monkeypatch):
    # the action-count probe and each episode's session
    started = _spy_on_servers(monkeypatch)
    env = AleBridgeEnv(_cmd("ok"), "pong")
    env.reset()
    env.reset()
    env.close()
    assert len(started) == 3 and all(map(_released, started))


def test_malformed_step_reply():
    s = BridgeSession(_cmd("badline"), "pong")
    try:
        with pytest.raises(BridgeError):
            s.act(0)
    finally:
        s.close()


def test_short_frame_read():
    s = BridgeSession(_cmd("short"), "pong")
    try:
        with pytest.raises(BridgeError, match="short frame"):
            s.act(0)
    finally:
        s.close()


def test_missing_server_binary():
    with pytest.raises(BridgeError, match="cannot start"):
        BridgeSession("/no/such/server", "pong")


def test_env_adapter_maps_local_actions():
    env = AleBridgeEnv(_cmd("ok"), "pong")
    try:
        assert env.n_actions == 3
        obs = env.reset()
        assert obs.red.shape == (3, 4)
        # local action 1 -> global action 3
        _, reward, done = env.step(1)
        assert reward == 3.5 and not done
        _, reward, done = env.step(2)
        assert reward == 4.5 and done
        with pytest.raises(BridgeError):
            env.step(0)  # episode over
        with pytest.raises(BridgeError):
            env.reset() and env.step(5)  # out of range
    finally:
        env.close()


def test_env_adapter_fresh_session_per_reset():
    env = AleBridgeEnv(_cmd("ok"), "pong")
    try:
        env.reset()
        first = env.session.proc.pid
        env.reset()
        assert env.session.proc.pid != first
    finally:
        env.close()


def test_make_env_ale_route():
    env = RunConfig(env="ale:pong", ale_server=_cmd("ok")).make_env()
    try:
        assert env.n_actions == 3
    finally:
        env.close()


def test_observation_values_unit_scaled():
    env = AleBridgeEnv(_cmd("ok"), "pong")
    try:
        obs = env.reset()
        for plane in obs.planes:
            assert np.all(plane >= 0.0) and np.all(plane <= 1.0)
    finally:
        env.close()
