"""Command line entry points: evolve, replay, export-dot.

Each phase of a command names its exit code once (`_fails_as`); a failure
leaves through `main` alone, which prints its one line and returns the code."""

from __future__ import annotations

import argparse
import contextlib
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

_PREFIX = {EXIT_PIPE: "output error: ", EXIT_CONFIG: "config error: ",
           EXIT_ENV: "environment error: ", EXIT_GENOME: "genome error: "}


class Failure(Exception):
    """A failed command: args are its exit code and the line main prints."""


@contextlib.contextmanager
def _fails_as(code: int, *errors: type[BaseException]):
    """A phase of a command: an error of a listed type leaves it as a
    Failure with `code`; a Failure an inner phase raised passes unchanged."""
    try:
        yield
    except Failure:
        raise
    except errors as exc:
        raise Failure(code, _PREFIX[code] + str(exc)) from exc


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


@_fails_as(EXIT_CONFIG, OSError, ValueError)
def _load_config(args) -> evolution.RunConfig:
    """The config file's values, replaced by the command line's overrides,
    checked once."""
    # replay has no --out
    overrides = {key: value for key in ("seed", "env", "out_dir")
                 if (value := getattr(args, key, None)) is not None}
    if args.config is not None:
        return persist.load_config(args.config, overrides)
    return evolution.RunConfig(**overrides)


# ValueError: a FormatError, or a file that is not UTF-8 text
_load_genome = _fails_as(EXIT_GENOME, OSError, ValueError)(
    persist.load_genome)


def cmd_evolve(args) -> None:
    cfg = _load_config(args)
    fresh = True

    # out_dir is a config key, so an output file that cannot be written is
    # a config error, whenever it fails
    @_fails_as(EXIT_CONFIG, OSError)
    def log(line: str) -> None:
        nonlocal fresh
        if fresh:   # a previous run's log.txt goes only now
            log_fh.truncate(0)
            fresh = False
        print(line, file=log_fh)

    with _fails_as(EXIT_CONFIG, OSError):
        os.makedirs(cfg.out_dir, exist_ok=True)
        # append mode empties nothing until this run logs generation 0;
        # each generation's line reaches the file as it is logged
        with open(os.path.join(cfg.out_dir, "log.txt"), "a",
                  buffering=1) as log_fh, _fails_as(EXIT_ENV, Exception):
            state = evolution.run_evolution(cfg, log_fn=log)
        persist.save_genome(state.elite,
                            os.path.join(cfg.out_dir, "best.cgp"))
        # evaluation seed of the recorded fitness; replay with
        # --seed $(cat best.seed)
        with open(os.path.join(cfg.out_dir, "best.seed"), "w") as fh:
            fh.write(f"{state.elite_seed}\n")
    with _fails_as(EXIT_PIPE, OSError):
        print(f"best {state.elite_fitness} evals {state.evaluations_used}")


def cmd_replay(args) -> None:
    """Replay the evaluation evolve logged: cfg.episodes episodes from eval
    seed cfg.seed, printing each counted frame and then their mean. With
    more than one episode, `episode <k>` precedes each one's first frame."""
    cfg = _load_config(args)
    genome = _load_genome(args.genome)

    @_fails_as(EXIT_PIPE, OSError)
    def on_frame(episode, i, action, reward, prog):
        if i == 0 and cfg.episodes > 1:
            print(f"episode {episode}")
        print(f"frame {i} action {action} reward {reward}")
        if args.trace:
            # the plan lists the active program nodes in ascending order
            for n, spec, *_ in prog.plan:
                print(f"node {n} {spec.name} {scalar_of(prog.state[n])}")

    with _fails_as(EXIT_ENV, Exception), \
            _fails_as(EXIT_GENOME, evolution.GenomeMismatch), \
            contextlib.closing(cfg.make_env()) as env:
        total = cfg.score(genome, env, cfg.seed, on_frame=on_frame)
    with _fails_as(EXIT_PIPE, OSError):
        print(f"total {total}")


def cmd_export_dot(args) -> None:
    dot = export_dot(_load_genome(args.genome))
    with _fails_as(EXIT_PIPE, OSError):
        sys.stdout.write(dot)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "evolve": cmd_evolve,
        "replay": cmd_replay,
        "export-dot": cmd_export_dot,
    }[args.command]
    try:
        handler(args)
        with _fails_as(EXIT_PIPE, OSError):
            sys.stdout.flush()   # a bad stdout fails here, not at exit
    except Failure as failure:
        code, line = failure.args
        if code == EXIT_PIPE:
            # devnull takes what is still buffered, so the flush at exit
            # cannot fail again (Python's SIGPIPE note)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # stdout closed early (`| head`) stops quietly
        if not isinstance(failure.__cause__, BrokenPipeError):
            print(line, file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
