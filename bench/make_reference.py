"""Record the result digests the benchmark's gate compares against.

    python3 bench/make_reference.py pixel_eval bridge_eval

Runs every block any seed can reach (all N_INPUTS input indices) for each
named workload and rewrites that workload's entry in bench/reference.json.
Run it only when the benchmark's inputs change, never to make a changed
program pass the gate.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402


def main() -> None:
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    stats = os.path.join(BENCH, "out", f"reference_stats_{os.getpid()}.txt")
    digests = {}
    for name in sys.argv[1:]:
        digests[name] = {}
        for index in range(workloads.N_INPUTS):
            wl = workloads.make(name, index, stats)
            env = workloads.make_env(name, index, stats)
            try:
                for j in range(wl.BLOCKS):
                    block = wl.run_block(env, j)
                    if block["failed"]:
                        raise RuntimeError(f"{name} block {block['key']} failed")
                    digests[name][block["key"]] = block["digest"]
            finally:
                wl.close(env)
            print(name, index, flush=True)
    path = os.path.join(BENCH, "reference.json")
    with open(path) as f:
        ref = json.load(f)
    ref.update(digests)
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    if os.path.exists(stats):
        os.remove(stats)


if __name__ == "__main__":
    main()
