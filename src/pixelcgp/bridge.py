"""Client for an out-of-process Atari emulator server.

The wire protocol is line-framed requests with mixed text/binary replies:

    -> INIT <rom>\n
    <- OK <width> <height> <k> <a1> ... <ak>\n      (a_i: global action ids)
    <- ERR <reason>\n

    -> ACT <global action id>\n
    <- R <reward> <done 0|1>\n
       followed by 3*width*height raw bytes: red, green, blue planes,
       row-major, one byte per pixel (scaled by 1/255 on this side, a
       plane at a time when the program first reads it).

Requests and replies strictly alternate. Any malformed reply, short read or
server exit raises envs.EnvError; a violation never degrades into a silent
zero observation. A reply line is at most MAX_LINE_BYTES long. The
handshake's screen is at least 1x1, and its frame at most MAX_FRAME_BYTES.
A step's reward is finite, and its done flag 0 or 1.

The evolved program sees only the game's legal action subset: local output
index i maps to the i-th entry of the handshake's action list, which indexes
the full 18-action controller table.

AleBridgeEnv starts exactly one server per episode; no server is started
only to learn the action count (the first episode's session answers it).
A session's start and close run inside envs.held_stops; its handshake does
not, so that a stop ends a wait on a server that never answers.
"""

from __future__ import annotations

import contextlib
import math
import shlex
import subprocess

import numpy as np

from .envs import EnvError, Observation, held_stops

# Full controller action table; games expose a subset via the handshake.
ACTION_TABLE = [
    "NOOP", "FIRE", "UP", "RIGHT", "LEFT", "DOWN",
    "UP_RIGHT", "UP_LEFT", "DOWN_RIGHT", "DOWN_LEFT",
    "UP_FIRE", "RIGHT_FIRE", "LEFT_FIRE", "DOWN_FIRE",
    "UP_RIGHT_FIRE", "UP_LEFT_FIRE", "DOWN_RIGHT_FIRE", "DOWN_LEFT_FIRE",
]
N_GLOBAL_ACTIONS = len(ACTION_TABLE)
NOOP = 0
# largest frame a handshake may announce (3 * width * height bytes): every
# ACT reply reads a whole frame with one read(n), which allocates n up front
MAX_FRAME_BYTES = 1 << 24
# longest reply line read; the longest legal one, the handshake's
# "OK <w> <h> 18 <a1> ... <a18>", is under 100 bytes
MAX_LINE_BYTES = 4096
# seconds a server gets to exit after SIGTERM before close() kills it
TERM_GRACE_S = 5


class BridgeSession:
    """One emulator process speaking the framed protocol for one episode."""

    def __init__(self, server_cmd: str, rom: str):
        with contextlib.ExitStack() as closing:   # until the handshake ends
            with held_stops():
                try:
                    self.proc = subprocess.Popen(shlex.split(server_cmd),
                                                 stdin=subprocess.PIPE,
                                                 stdout=subprocess.PIPE)
                except (OSError, ValueError) as exc:   # ValueError: a NUL byte
                    raise EnvError(
                        f"cannot start emulator server: {exc}") from exc
                closing.callback(self.close)   # before a held stop is raised
            self._handshake(rom)
            closing.pop_all()

    def _send(self, line: str) -> None:
        try:
            self.proc.stdin.write((line + "\n").encode("ascii"))
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise EnvError(f"server pipe closed while sending {line!r}") from exc

    def _recv_line(self) -> str:
        raw = self.proc.stdout.readline(MAX_LINE_BYTES)
        if not raw.endswith(b"\n"):
            if len(raw) == MAX_LINE_BYTES:
                raise EnvError(
                    f"reply line longer than {MAX_LINE_BYTES} bytes")
            raise EnvError("server closed the stream mid-reply")
        return raw.decode("ascii", errors="replace").strip()

    def _recv_exact(self, n: int) -> bytes:
        # a buffered read returns fewer than n bytes only at end of stream
        buf = self.proc.stdout.read(n)
        if len(buf) != n:
            raise EnvError(
                f"short frame read: wanted {n} bytes, got {len(buf)}")
        return buf

    def _handshake(self, rom: str) -> None:
        self._send(f"INIT {rom}")
        reply = self._recv_line().split()
        if not reply or reply[0] != "OK":
            raise EnvError(f"handshake rejected: {' '.join(reply)}")
        try:
            w, h, k = (int(t) for t in reply[1:4])
            actions = [int(t) for t in reply[4:]]
        except ValueError as exc:
            raise EnvError(f"malformed handshake reply: {reply}") from exc
        if len(actions) != k or not (1 <= k <= N_GLOBAL_ACTIONS):
            raise EnvError(f"handshake action list mismatch: {reply}")
        if any(not 0 <= a < N_GLOBAL_ACTIONS for a in actions):
            raise EnvError(f"handshake action id out of range: {actions}")
        if w < 1 or h < 1 or 3 * w * h > MAX_FRAME_BYTES:
            raise EnvError(f"handshake screen size out of range: {w}x{h}")
        self.width, self.height = w, h
        self.legal_actions = actions

    def act(self, global_action: int) -> tuple[Observation, float, bool]:
        self._send(f"ACT {global_action}")
        reply = self._recv_line().split()
        if len(reply) != 3 or reply[0] != "R" or reply[2] not in ("0", "1"):
            raise EnvError(f"malformed step reply: {reply}")
        try:
            reward = float(reply[1])
        except ValueError as exc:
            raise EnvError(f"malformed step reply: {reply}") from exc
        # a NaN or infinite reward would become the run's fitness
        if not math.isfinite(reward):
            raise EnvError(f"non-finite reward in step reply: {reply}")
        done = reply[2] == "1"
        raw = self._recv_exact(3 * self.width * self.height)
        frame = np.frombuffer(raw, dtype=np.uint8).reshape(
            3, self.height, self.width)
        return Observation.from_frame(frame), reward, done

    @held_stops()   # cut short, a close would leave the server running
    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        # a request the server never read is still buffered; flushing it
        # into the closed pipe fails, and the pipe closes all the same
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()


class AleBridgeEnv:
    """Environment adapter: one bridge session, one server process, per
    episode. Building the env starts nothing.

    The first session starts when n_actions or reset() first needs it. Its
    handshake fixes legal_actions, and it then serves the first episode.
    Every later reset() starts a fresh session, whose action list must
    equal legal_actions, and fetches the first frame with a no-op action so
    the controller has an observation before its first decision.
    """

    def __init__(self, server_cmd: str, rom: str):
        self.server_cmd = server_cmd
        self.rom = rom
        self.session: BridgeSession | None = None
        self.legal_actions: list[int] | None = None
        self.done = True
        self.unplayed = False   # session is open and has served no episode

    @property
    def n_actions(self) -> int:
        if self.legal_actions is None:
            self._start()
        return len(self.legal_actions)

    def _start(self) -> None:
        self.close()
        self.session = BridgeSession(self.server_cmd, self.rom)
        if self.legal_actions is None:
            self.legal_actions = self.session.legal_actions
        elif self.session.legal_actions != self.legal_actions:
            raise EnvError("legal action list changed between sessions")
        self.unplayed = True

    def reset(self, seed=None) -> Observation:
        # seed accepted for contract compatibility; the emulator owns its RNG
        if not self.unplayed:
            self._start()
        self.unplayed = False
        obs, _, self.done = self.session.act(NOOP)
        return obs

    def step(self, action: int) -> tuple[Observation, float, bool]:
        if self.session is None or self.done:
            raise EnvError("step without an open episode")
        if not 0 <= action < self.n_actions:
            raise EnvError(f"local action {action} out of range")
        obs, reward, done = self.session.act(self.legal_actions[action])
        self.done = done
        return obs, reward, done

    def close(self) -> None:
        self.done, self.unplayed = True, False
        if self.session is not None:
            self.session.close()
            self.session = None
