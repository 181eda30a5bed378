"""Minimal emulator-protocol stub used by the bridge tests.

Speaks the line-framed INIT/ACT protocol on stdin/stdout. The first
argument selects a behavior; later arguments, such as the ROM directory a
real server's command would end with, are ignored.

Modes:
  ok       4x3 screen, legal actions 0/3/4, episode ends after 3 ACTs
  err      reject the handshake
  empty    announce a 0x0 screen
  negative announce a -4x3 screen
  huge     announce a 60000x60000 screen, far above the client's frame cap
  badline  reply garbage to ACT
  nanreward reply to ACT with a NaN reward, then a whole frame
  baddone  reply to ACT with done flag 2, then a whole frame
  short    send a truncated frame and exit
"""

import sys


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    out = sys.stdout.buffer
    width, height = {"empty": (0, 0), "negative": (-4, 3),
                     "huge": (60000, 60000)}.get(mode, (4, 3))
    actions = [0, 3, 4]
    steps = 0
    for raw in sys.stdin.buffer:
        parts = raw.decode().split()
        if parts[0] == "INIT":
            if mode == "err":
                out.write(b"ERR no such rom\n")
                out.flush()
                return
            acts = " ".join(str(a) for a in actions)
            out.write(f"OK {width} {height} {len(actions)} {acts}\n".encode())
            out.flush()
        elif parts[0] == "ACT":
            if mode == "badline":
                out.write(b"WHAT\n")
                out.flush()
                return
            action = int(parts[1])
            steps += 1
            reward = "nan" if mode == "nanreward" else f"{action}.5"
            done = 2 if mode == "baddone" else int(steps >= 3)
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


if __name__ == "__main__":
    main()
