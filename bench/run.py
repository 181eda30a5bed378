"""pixelcgp benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload pixel_eval --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40

Workloads (see workloads.py for why each exists):
  pixel_eval    evaluate() on a 210x160 Pong-like game, in process
  bridge_eval   the same game served out of process through bridge.AleBridgeEnv

--trace 0 runs a fixed number of the workload's blocks, ROUNDS times over,
sized from --seconds and the block's duration when the benchmark was
defined (BLOCK_SECONDS, on a 2-CPU Xeon VM), so the same seed always
measures the same work, and reports the end-to-end metrics from each
block's fastest round. --trace 1 runs a fixed number of blocks untraced,
then the same blocks under the span tracer, and reports per-layer metrics,
the trace overhead, and the functions/values sweeps. Layers a workload does
not call (evolution.mutate, envs.Catch.step, and the bridge on pixel_eval)
are timed on a small fixed probe instead. --workload all runs both
workloads untraced and then traced, one process each. A run pins itself,
and so every process it starts, to one CPU.

Every block's results are checked against reference.json, digests recorded
from the code as it was when the benchmark was defined; a mismatch names the
workload and block and makes the run fail. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. A fuller
record, with machine information and the workload's input shape, goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 15
WORKLOADS = ("pixel_eval", "bridge_eval")

# Measures import of the package plus environment construction (for the
# bridge, its probe session) in a fresh interpreter.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
env = workloads.make_env(sys.argv[3], int(sys.argv[4]), sys.argv[5])
elapsed = time.perf_counter() - start
if hasattr(env, "close"):
    env.close()
print(repr(elapsed))
"""


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return dict(nproc=os.cpu_count(), cpu_model=model,
                python=platform.python_version(), numpy=np.__version__)


def measure_setup(workload: str, index: int) -> list[float]:
    """Set-up time in SETUP_SAMPLES fresh interpreters, one at a time."""
    stats = os.path.join(OUT, f"setup_stats_{os.getpid()}.txt")
    samples = []
    try:
        for _ in range(SETUP_SAMPLES):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, SRC, BENCH, workload,
                 str(index), stats],
                capture_output=True, text=True, timeout=60, check=True)
            samples.append(float(done.stdout.split()[-1]))
    finally:
        if os.path.exists(stats):
            os.remove(stats)
    return samples


class Gate:
    """Compares block digests with reference.json."""

    def __init__(self, workload: str):
        with open(os.path.join(BENCH, "reference.json")) as f:
            self.ref = json.load(f).get(workload, {})
        self.workload = workload
        self.mismatches = []

    def check(self, block: dict) -> None:
        want = self.ref.get(block["key"])
        if want != block["digest"]:
            self.mismatches.append(f"block {block['key']}")
            print(f"result gate: {self.workload} block {block['key']} "
                  f"digest {block['digest']} != reference {want}",
                  file=sys.stderr)


def run_blocks(wl, env, gate: Gate, n_blocks: int, rounds: int = 1) -> tuple:
    """Run blocks 0..n_blocks-1, `rounds` times over, and keep each block's
    fastest round: the same work repeated seconds apart, so a slow phase of
    a shared machine rarely hits every round.

    Returns (blocks, evaluations attempted, evaluations failed, wall
    seconds); a block that raises counts as one failed attempt.
    """
    fastest, attempted, failed = {}, 0, 0
    start = time.perf_counter()
    for _ in range(rounds):
        for j in range(n_blocks):
            try:
                block = wl.run_block(env, j)
            except Exception:
                traceback.print_exc()
                attempted += 1
                failed += 1
                continue
            gate.check(block)
            attempted += len(block["evals"])
            failed += block["failed"]
            if j not in fastest or block["seconds"] < fastest[j]["seconds"]:
                fastest[j] = block
    return list(fastest.values()), attempted, failed, \
        time.perf_counter() - start


def end_to_end(blocks, setup) -> tuple[dict, dict, dict]:
    """End-to-end metrics, ungated extras, and the sample count behind each.

    Rates are totals over the kept blocks, not medians of per-block rates:
    a block holds only 9 genomes, whose costs differ about 2x.
    """
    evals = [s * 1e3 for b in blocks for s in b["evals"]]
    seconds = sum(b["seconds"] for b in blocks)
    frames = sum(b["frames"] for b in blocks)
    metrics = {
        "setup_s": (float(np.median(setup)), "s"),
        "evals_per_s": (len(evals) / seconds, "1/s"),
        "frames_per_s": (frames / seconds, "1/s"),
        "eval_ms_p50": (float(np.percentile(evals, 50)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    # The tail percentile is printed and recorded but not gated: it rests
    # on the few slowest genomes of the set.
    info = {"eval_ms_p90": (float(np.percentile(evals, 90)), "ms")}
    counts = {"setup_s": len(setup), "evals_per_s": len(evals),
              "frames_per_s": frames, "eval_ms_p50": len(evals),
              "eval_ms_p90": len(evals)}
    return metrics, info, counts


def traced(wl, env, gate: Gate, workload: str) -> tuple[dict, dict, int, int]:
    """Per-layer metrics from an untraced and a traced pass over the same
    blocks, plus probes for layers the workload does not call."""
    import tracing
    n = wl.TRACE_BLOCKS
    _, attempted_a, failed_a, t_plain = run_blocks(wl, env, gate, n)
    stats_before = _server_stats(wl)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spans, attempted_b, failed_b, t_traced = run_blocks(wl, env, gate, n)
    finally:
        tracer.restore()
    server = _server_stats(wl)[len(stats_before):]
    tracer.save(os.path.join(OUT, f"spans_{workload}.npz"))
    layers = tracer.summary()
    evaluations = sum(len(b["evals"]) for b in spans)

    probe = _probe_layers(tracing)
    metrics, source = {}, {}

    def per_call(name, key, scale, unit, metric):
        entry = layers[name]
        from_probe = entry["calls"] == 0
        if from_probe:
            entry = probe[name]
        value = entry[key] / max(1, entry["calls"]) * scale
        metrics[metric] = (value, unit)
        source[metric] = "probe" if from_probe else "trace"

    per_call("evolution.mutate", "seconds", 1e6, "us", "evolution.mutate.us")
    per_call("evolution.evaluate", "self_seconds", 1e6, "us",
             "evolution.evaluate.self_us")
    per_call("genome.decode", "seconds", 1e6, "us", "genome.decode.us")
    per_call("genome.step", "self_seconds", 1e6, "us", "genome.step.self_us")
    per_call("functions.apply", "seconds", 1e6, "us", "functions.apply.us")
    per_call("genome.select_action", "seconds", 1e6, "us",
             "genome.select_action.us")
    per_call("envs.frameskip", "self_seconds", 1e6, "us",
             "envs.frameskip.self_us")
    per_call("envs.run_episode", "self_seconds", 1e6, "us",
             "envs.run_episode.self_us")
    per_call("envs.catch_step", "seconds", 1e6, "us", "envs.catch_step.us")
    per_call("bridge.session_start", "seconds", 1e3, "ms",
             "bridge.session_start.ms")
    per_call("bridge.session_close", "seconds", 1e3, "ms",
             "bridge.session_close.ms")
    per_call("bridge.act", "seconds", 1e6, "us", "bridge.act.us")
    metrics["genome.step.calls"] = (layers["genome.step"]["calls"], "count")
    metrics["functions.apply.calls"] = (layers["functions.apply"]["calls"],
                                        "count")
    metrics["bridge.act.calls"] = (layers["bridge.act"]["calls"], "count")
    apply = layers["functions.apply"]
    metrics["functions.apply.matrix_share"] = (
        apply["flagged"] / max(1, apply["calls"]), "ratio")
    skip = layers["envs.frameskip"]
    metrics["envs.skipped_share"] = (skip["flagged"] / max(1, skip["calls"]),
                                     "ratio")
    if not server:
        server = probe["server"]
        source["bridge.server_busy_us"] = "probe"
        source["bridge.bytes_per_frame"] = "probe"
    metrics["bridge.server_busy_us"] = (
        sum(s[2] for s in server) / max(1, sum(s[1] for s in server)) / 1e3,
        "us")
    metrics["bridge.bytes_per_frame"] = (
        sum(s[3] for s in server) / max(1, sum(s[1] for s in server)), "B")
    metrics["trace_overhead_pct"] = (100.0 * (t_traced - t_plain) / t_plain, "%")
    # layer self times summed, against the untraced wall time of the same
    # blocks: within trace_overhead_pct of 100 when the layers cover the run
    covered = sum(v["self_seconds"] for v in layers.values())
    metrics["trace_coverage_pct"] = (100.0 * covered / t_plain, "%")
    for name, value in tracing.sweep().items():
        metrics[name] = (value, "us")

    detail = dict(layers=layers, source=source, untraced_s=t_plain,
                  traced_s=t_traced, blocks=n, evaluations=evaluations)
    return metrics, detail, attempted_a + attempted_b, failed_a + failed_b


def _server_stats(wl) -> list:
    return getattr(wl, "server_stats", list)()


def _probe_layers(tracing) -> dict:
    """Trace a small fixed use of mutate, Catch.step and the bridge."""
    import workloads
    from pixelcgp import envs, evolution
    from pixelcgp.genome import random_genome

    stats = os.path.join(OUT, f"probe_stats_{os.getpid()}.txt")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        parent = random_genome(rng=rng, **workloads.GENOME_SHAPE)
        for _ in range(200):
            evolution.mutate(parent, 0.1, 0.6, rng)
        catch = envs.Catch()
        for seed in range(3):
            catch.reset(seed)
            while not catch.done:
                catch.step(seed % 3)
        env = workloads.make_env("bridge_eval", 0, stats)
        try:
            for _ in range(3):
                env.reset()
                for k in range(20):
                    env.step(k % 3)
        finally:
            env.close()
    finally:
        tracer.restore()
    probe = tracer.summary()
    probe["server"] = workloads.server_stats(stats)
    os.remove(stats)
    return probe


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then every workload traced, each in a fresh
    process; the last line merges their results, metrics as workload/name."""
    merged = dict(correct=True, attempted=0, failed=0, metrics={})
    for trace in (0, 1):
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            lines = done.stdout.splitlines()
            if done.returncode not in (0, 1) or not lines:
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if not os.path.isdir(os.path.join(SRC, "pixelcgp")):
        print(f"error: no pixelcgp sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the run and every process it starts, so the bridge's
    # client and server hand over without cross-CPU wakeups. A busy shared
    # host delays those: unpinned, bridge_eval fell from 8.5 to 5.4 evals/s
    # within minutes while interleaved pixel_eval runs held steady.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, BENCH]
    os.makedirs(OUT, exist_ok=True)
    import workloads

    load_before = os.getloadavg()[0]
    index = args.seed % workloads.N_INPUTS
    stats = os.path.join(OUT, f"server_stats_{os.getpid()}.txt")
    if os.path.exists(stats):
        os.remove(stats)
    setup = [] if args.trace else measure_setup(args.workload, index)
    wl = workloads.make(args.workload, index, stats)
    env = workloads.make_env(args.workload, index, stats)
    gate = Gate(args.workload)
    try:
        try:
            wl.check(env)
        except AssertionError as exc:
            gate.mismatches.append(str(exc))
        if args.trace:
            metrics, detail, attempted, failed = traced(
                wl, env, gate, args.workload)
            counts = {}
        else:
            n_blocks = max(1, round(
                args.seconds / (wl.BLOCK_SECONDS * wl.ROUNDS)))
            blocks, attempted, failed, wall = run_blocks(
                wl, env, gate, n_blocks, wl.ROUNDS)
            metrics, info, counts = end_to_end(blocks, setup)
            detail = dict(info={k: v[0] for k, v in info.items()},
                          blocks=len(blocks), wall_s=wall,
                          setup_samples=setup,
                          failed_frac=failed / max(1, attempted))
    finally:
        wl.close(env)
        if os.path.exists(stats):
            os.remove(stats)

    correct = not gate.mismatches and failed == 0
    record = dict(workload=args.workload, seed=args.seed, input_index=index,
                  trace=args.trace, correct=correct,
                  mismatches=gate.mismatches, shape=wl.shape(),
                  machine=machine_info(), load_1min_before=load_before,
                  load_1min_after=os.getloadavg()[0],
                  metrics={k: dict(value=v, unit=u, n=counts.get(k))
                           for k, (v, u) in metrics.items()},
                  detail=detail)
    with open(os.path.join(
            OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"),
            "w") as f:
        json.dump(record, f, indent=1)

    for name, (value, unit) in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{n}")
    if args.trace:
        print(f"{'layer':<26}{'calls':>10}{'total ms':>12}{'self ms':>12}"
              f"{'self %':>8}")
        for name, v in detail["layers"].items():
            print(f"{name:<26}{v['calls']:>10}{v['seconds'] * 1e3:>12.1f}"
                  f"{v['self_seconds'] * 1e3:>12.1f}"
                  f"{100 * v['self_seconds'] / detail['traced_s']:>8.1f}")
        for name, src in detail["source"].items():
            if src == "probe":
                print(f"{args.workload} {name}: not called by this workload, "
                      f"taken from the layer probe")
    else:
        for name, (value, unit) in info.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}  "
                  f"(n={counts[name]}; not gated)")
        print(f"{args.workload} failed_frac = {detail['failed_frac']:.6g}")
    print(f"{args.workload} input shape: {json.dumps(record['shape'])}")
    print(f"machine: {json.dumps(record['machine'])}, load 1 min "
          f"{load_before:.2f} -> {record['load_1min_after']:.2f}")
    if gate.mismatches:
        print(f"result gate: {args.workload} differs from reference: "
              f"{'; '.join(gate.mismatches)}")
    print(json.dumps(dict(
        correct=correct, attempted=attempted, failed=failed,
        metrics={k: dict(value=v, unit=u) for k, (v, u) in metrics.items()})))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
