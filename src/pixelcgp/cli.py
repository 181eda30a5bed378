"""Command line entry points: evolve, replay, export-dot.

Each phase of a command names its exit code once (`_fails_as`), and a command
line the parser rejects is a config error; a failure leaves through `main`
alone, which prints its one line and returns the code.
A SIGINT or SIGTERM leaves the same way, as exit code 128 + its number; it
waits in `envs.held_stops` (a server's start and close, `persist`'s record),
and a command stops once: a stop that arrives while it unwinds is ignored."""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys

from . import envs, evolution, persist
from .persist import export_dot
from .values import scalar_of

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_CONFIG = 2
EXIT_ENV = 3
EXIT_GENOME = 4

_PREFIX = {EXIT_PIPE: "output error: ", EXIT_CONFIG: "config error: ",
           EXIT_ENV: "environment error: ", EXIT_GENOME: "genome error: "}


class Failure(BaseException):
    """A failed or stopped command: args are its exit code and the line main
    prints, None after --help. A BaseException, as KeyboardInterrupt is, so
    that a stop passes every `except Exception` on its way out."""


def _stop(signum, frame):
    if envs.hold_stop(signum):   # raised again as the hold ends
        return
    # the command stops once: a later stop would cut its clean-up short, so
    # it is dropped until main restores the previous handlers. Nothing starts
    # a server while a command unwinds, so no process inherits SIG_IGN.
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_IGN)
    raise Failure(128 + signum, f"stopped by {signal.Signals(signum).name}")


@contextlib.contextmanager
def _fails_as(code: int, *errors: type[Exception]):
    """A phase of a command: an error of a listed type leaves it as a
    Failure with `code`. No phase lists a base class of Failure, so a
    Failure from an inner phase passes through unchanged; an error of a type
    that no phase lists is a defect, and leaves main as a traceback."""
    try:
        yield
    except errors as exc:
        raise Failure(code, _PREFIX[code] + str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one line from main, not a usage block
        raise Failure(EXIT_CONFIG, _PREFIX[EXIT_CONFIG] + message)

    def exit(self, status=0, message=None):   # --help: main returns status
        raise Failure(status, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


# ValueError: a malformed file, or one that is not UTF-8 text
_load_genome = _fails_as(EXIT_GENOME, OSError, ValueError)(
    persist.load_genome)


def cmd_evolve(args) -> None:
    cfg = _load_config(args)
    # out_dir is a config key, so a file of the run that cannot be written
    # is a config error, whenever it fails, the log's lines included
    with _fails_as(EXIT_CONFIG, OSError), \
            persist.open_run(cfg.out_dir) as record, \
            _fails_as(EXIT_ENV, envs.EnvError):
        state = evolution.run_evolution(cfg, on_generation=record)
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

    with _fails_as(EXIT_ENV, envs.EnvError), \
            _fails_as(EXIT_GENOME, evolution.GenomeMismatch):
        total = cfg.score(genome, cfg.make_env(), cfg.seed, on_frame=on_frame)
    with _fails_as(EXIT_PIPE, OSError):
        print(f"total {total}")


def cmd_export_dot(args) -> None:
    dot = export_dot(_load_genome(args.genome))
    with _fails_as(EXIT_PIPE, OSError):
        sys.stdout.write(dot)


def _to_devnull(stream) -> None:
    """Point stream's file at devnull, so that what is still buffered for it
    cannot fail again in the flush at exit (Python's SIGPIPE note)."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def main(argv=None) -> int:
    # a stop unwinds like a failure, so the env and its server are closed on
    # the way out; the previous handlers return, as main may run in process
    previous = {sig: signal.signal(sig, _stop)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        args = _build_parser().parse_args(argv)
        {"evolve": cmd_evolve, "replay": cmd_replay,
         "export-dot": cmd_export_dot}[args.command](args)
        with _fails_as(EXIT_PIPE, OSError):
            sys.stdout.flush()   # a bad stdout fails here, not at exit
    except Failure as failure:
        code, line = failure.args
        if code == EXIT_PIPE:
            _to_devnull(sys.stdout)
        # stdout closed early (`| head`) stops quietly, as --help ends
        if line and not isinstance(failure.__cause__, BrokenPipeError):
            try:
                print(line, file=sys.stderr)
            except OSError:   # an unwritable stderr leaves the code as is
                _to_devnull(sys.stderr)
        return code
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
