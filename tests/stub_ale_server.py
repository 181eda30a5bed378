"""Minimal emulator-protocol stub used by the bridge tests.

Speaks the line-framed INIT/ACT protocol on stdin/stdout. The first
argument selects a behavior. The shrink and reorder modes read a second
argument, a state file; any other later arguments, such as the ROM
directory a real server's command would end with, are ignored.

Modes:
  ok       4x3 screen, legal actions 0/3/4, episode ends after 3 ACTs
  linger   as ok, but keep running for a minute after end of input
  stubborn as ok, but ignore SIGTERM
  err      reject the handshake
  empty    announce a 0x0 screen
  negative announce a -4x3 screen
  huge     announce a 60000x60000 screen, far above the client's frame cap
  badnum   announce a screen width that is not a number
  badcount announce 2 legal actions, then list 3
  badaction list the action id 18, one past the action table
  longline pad a valid handshake with 1 MiB of spaces before its newline
  quit     exit right after the handshake
  shrink   create the state file and offer actions 0/3/4 if it is missing;
           offer 0/3 if it exists
  reorder  as shrink, but offer 0/4/3 if the state file exists
  long     as ok, but the episode ends after 40 ACTs
  badline  reply garbage to ACT
  nanreward reply to ACT with a NaN reward, then a whole frame
  textreward reply to ACT with a reward that is not a number
  baddone  reply to ACT with done flag 2, then a whole frame
  cutline  reply to ACT with a line cut off before its newline, and exit
  short    send a truncated frame and exit

Tests start it through `command`, the shell command a config's ale_server
holds, quoted so that a path with a space in it stays one word.
"""

import os
import shlex
import signal
import sys
import time

STUB = os.path.abspath(__file__)


def command(mode, *args) -> str:
    """The shell command that runs this stub in mode, with args after it."""
    return shlex.join([sys.executable, STUB, mode, *map(str, args)])


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    if mode == "stubborn":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    out = sys.stdout.buffer
    width, height = {"empty": (0, 0), "negative": (-4, 3),
                     "huge": (60000, 60000)}.get(mode, (4, 3))
    actions = {"badaction": [0, 3, 18]}.get(mode, [0, 3, 4])
    if mode in ("shrink", "reorder"):
        if os.path.exists(sys.argv[2]):
            actions = [0, 3] if mode == "shrink" else [0, 4, 3]
        else:
            open(sys.argv[2], "w").close()
    steps = 0
    for raw in sys.stdin.buffer:
        parts = raw.decode().split()
        if parts[0] == "INIT":
            if mode == "err":
                out.write(b"ERR no such rom\n")
                out.flush()
                return
            acts = " ".join(str(a) for a in actions)
            k = 2 if mode == "badcount" else len(actions)
            w = "x" if mode == "badnum" else width
            pad = " " * (1 << 20) if mode == "longline" else ""
            out.write(f"OK {w} {height} {k} {acts}{pad}\n".encode())
            out.flush()
            if mode == "quit":
                return
        elif parts[0] == "ACT":
            if mode == "badline":
                out.write(b"WHAT\n")
                out.flush()
                return
            if mode == "cutline":
                out.write(b"R 0.5")
                out.flush()
                return
            action = int(parts[1])
            steps += 1
            reward = {"nanreward": "nan", "textreward": "lots"}.get(
                mode, f"{action}.5")
            done = 2 if mode == "baddone" else int(
                steps >= (40 if mode == "long" else 3))
            out.write(f"R {reward} {done}\n".encode())
            if mode == "short":
                out.write(bytes(5))
                out.flush()
                return
            frame = bytes((action + plane * 10 + pixel) % 256
                          for plane in range(3)
                          for pixel in range(width * height))
            out.write(frame)
            out.flush()
    if mode == "linger":
        time.sleep(60)


if __name__ == "__main__":
    main()
