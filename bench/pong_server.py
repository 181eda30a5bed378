"""Protocol server for the benchmark's Pong-like game (standard library only).

Speaks the line-framed INIT/ACT protocol of pixelcgp.bridge on stdin/stdout:

    python3 bench/pong_server.py <game seed> <stats file>

Every session plays the same game, seeded by the first argument, because
the bridge client does not pass episode seeds. On exit (end of input or
SIGTERM) the server appends one line to the stats file:
"<frames> <acts> <busy ns> <ACT reply bytes> <action digest>". Busy time
covers parsing a request, stepping and drawing the game; writing the reply
to the pipe is excluded. The reply bytes count every byte written in reply
to ACT, header line and planes. The action digest hashes the game actions
received, in order.
"""

import hashlib
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pong import HEIGHT, WIDTH, PongCore  # noqa: E402

# global controller ids of NOOP, UP and DOWN, in the game's action order
ACTIONS = (0, 2, 5)


def _terminate(signum, frame):
    raise SystemExit(0)


def main() -> None:
    seed, stats_path = int(sys.argv[1]), sys.argv[2]
    signal.signal(signal.SIGTERM, _terminate)
    out = sys.stdout.buffer
    clock = time.perf_counter_ns
    core = PongCore()
    acts = busy = sent = 0
    try:
        for raw in sys.stdin.buffer:
            start = clock()
            parts = raw.split()
            if parts[:1] == [b"INIT"]:
                core.reset(seed)
                reply = f"OK {WIDTH} {HEIGHT} {len(ACTIONS)} " \
                        f"{' '.join(map(str, ACTIONS))}\n".encode()
                busy += clock() - start
                out.write(reply)
            elif parts[:1] == [b"ACT"] and int(parts[1]) in ACTIONS \
                    and not core.done:
                reward, done = core.step(ACTIONS.index(int(parts[1])))
                reply = f"R {reward!r} {int(done)}\n".encode()
                acts += 1
                # counted before writing: the client may read the last
                # byte and stop the server before a later count would run
                sent += len(reply) + sum(map(len, core.planes))
                busy += clock() - start
                out.write(reply)
                for plane in core.planes:
                    out.write(plane)
            else:
                out.write(b"ERR bad request\n")
                out.flush()
                return
            out.flush()
    finally:
        with open(stats_path, "a") as stats:
            played = hashlib.sha256(core.played).hexdigest()[:16]
            stats.write(f"{core.frames} {acts} {busy} {sent} {played}\n")


if __name__ == "__main__":
    main()
