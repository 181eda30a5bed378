"""Command line entry points: evolve, replay, export-dot."""

from __future__ import annotations

import argparse
import os
import sys

from . import evolution, persist
from .dot import export_dot
from .values import scalar_of

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_CONFIG = 2
EXIT_ENV = 3
EXIT_GENOME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixelcgp",
        description="Evolve and inspect pixel-input CGP controllers")
    sub = parser.add_subparsers(dest="command", required=True)

    # the run settings evolve and replay share: a config file and the
    # overrides that replace its values
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="run configuration file")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--env", help="override the config environment")

    ev = sub.add_parser("evolve", parents=[run],
                        help="run a 1+lambda evolution")
    ev.add_argument("--out", dest="out_dir",
                    help="override the output directory")

    rp = sub.add_parser("replay", parents=[run],
                        help="replay a genome's evaluation")
    rp.add_argument("genome", help="genome file to replay")
    rp.add_argument("--trace", action="store_true",
                    help="print active node outputs every frame")

    dp = sub.add_parser("export-dot", help="print the active graph as DOT")
    dp.add_argument("genome", help="genome file to export")
    return parser


def _load_config(args) -> evolution.RunConfig:
    """The config file's values, replaced by the command line's overrides,
    checked once (ValueError)."""
    # replay has no --out
    overrides = {key: value for key in ("seed", "env", "out_dir")
                 if (value := getattr(args, key, None)) is not None}
    if args.config is not None:
        return persist.load_config(args.config, overrides)
    return evolution.RunConfig(**overrides)


def cmd_evolve(args) -> int:
    # out_dir is a config key, so an output file that cannot be written is
    # a config error, before the run for log.txt and after it for the rest
    try:
        cfg = _load_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        # append mode empties nothing until this run logs generation 0
        log_fh = open(os.path.join(cfg.out_dir, "log.txt"), "a")
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fresh = True

    def log(line: str) -> None:
        nonlocal fresh
        if fresh:   # a previous run's log.txt goes only now
            log_fh.truncate(0)
            fresh = False
        print(line, file=log_fh)

    with log_fh:
        try:
            state = evolution.run_evolution(cfg, log_fn=log)
        except Exception as exc:
            print(f"environment error: {exc}", file=sys.stderr)
            return EXIT_ENV
    try:
        persist.save_genome(state.elite,
                            os.path.join(cfg.out_dir, "best.cgp"))
        # evaluation seed of the recorded fitness; replay with
        # --seed $(cat best.seed)
        with open(os.path.join(cfg.out_dir, "best.seed"), "w") as fh:
            fh.write(f"{state.elite_seed}\n")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"best {state.elite_fitness} evals {state.evaluations_used}")
    return EXIT_OK


def cmd_replay(args) -> int:
    """Replay the evaluation evolve logged: cfg.episodes episodes from eval
    seed cfg.seed, printing each counted frame and then their mean. With
    more than one episode, `episode <k>` precedes each one's first frame."""
    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        genome = persist.load_genome(args.genome)
    except (OSError, ValueError) as exc:
        # ValueError: a FormatError, or a file that is not UTF-8 text
        print(f"genome error: {exc}", file=sys.stderr)
        return EXIT_GENOME

    def on_frame(episode, i, action, reward, prog):
        if i == 0 and cfg.episodes > 1:
            print(f"episode {episode}")
        print(f"frame {i} action {action} reward {reward}")
        if args.trace:
            # the plan lists the active program nodes in ascending order
            for n, spec, *_ in prog.plan:
                print(f"node {n} {spec.name} {scalar_of(prog.state[n])}")

    try:
        env = cfg.make_env()
        try:
            total = cfg.score(genome, env, cfg.seed, on_frame=on_frame)
        finally:
            if hasattr(env, "close"):
                env.close()
    except evolution.GenomeMismatch as exc:
        print(f"genome error: {exc}", file=sys.stderr)
        return EXIT_GENOME
    except BrokenPipeError:
        raise   # stdout's: the bridge reports its own pipes as BridgeError
    except Exception as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_ENV
    print(f"total {total}")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    try:
        genome = persist.load_genome(args.genome)
    except (OSError, ValueError) as exc:
        print(f"genome error: {exc}", file=sys.stderr)
        return EXIT_GENOME
    sys.stdout.write(export_dot(genome))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "evolve": cmd_evolve,
        "replay": cmd_replay,
        "export-dot": cmd_export_dot,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()   # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # stdout was closed early (`| head`); devnull takes what is still
        # buffered, so the flush at exit cannot fail (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
