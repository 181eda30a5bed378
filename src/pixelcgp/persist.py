"""Text formats: a genome's CGP1 file and DOT graph, and the run config.

A CGP1 genome file, which parse_genome reads back, is two text lines:

    CGP1 <n_input> <n_output> <C> <r>
    <gene> <gene> ...

Genes are printed with 17 significant digits so parse(serialize(g)) is
bit-exact. Config files are flat ``key = value`` lines; blank lines and
``#`` comments are ignored, and unknown or repeated keys are rejected.
A malformed file of either kind raises ValueError.

Only `open_run` writes evolve's run directory: log.txt, and the elite's
pair, best.cgp, its genome, and best.seed, the eval seed of its logged
fitness as one decimal line. The pair, like every genome file, is written
to `<path>.tmp` and renamed over `<path>`, so a reader never sees part of
one. `record` holds a stop while it writes (envs.held_stops).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import fields

import numpy as np

from .envs import held_stops
from .evolution import RunConfig
from .genome import Genome, decode

GENOME_MAGIC = "CGP1"


def serialize_genome(genome: Genome) -> str:
    header = (f"{GENOME_MAGIC} {genome.n_input} {genome.n_output} "
              f"{genome.C} {genome.r:.17g}")
    genes = " ".join(f"{g:.17g}" for g in genome.genes)
    return f"{header}\n{genes}\n"


def export_dot(genome: Genome) -> str:
    """DOT export of the active program graph.

    Only active nodes appear: the inputs read as boxes, active program nodes
    with their function and parameter, and one box per action output. x-input
    edges are solid, y-input edges dashed. Output is byte-deterministic."""
    program = decode(genome)
    lines = ["digraph cgp {", "  rankdir=LR;"]
    for n in program.reads:
        lines.append(f'  n{n} [shape=box, label="in{n}"];')
    for n, spec, xi, yi, p in program.plan:
        lines.append(f'  n{n} [label="{n}:{spec.name} p={p:.2f}"];')
        if spec.trace_x:
            lines.append(f"  n{xi} -> n{n};")
        if spec.trace_y:
            lines.append(f"  n{yi} -> n{n} [style=dashed];")
    for action, src in enumerate(program.outputs):
        lines.append(f'  out{action} [shape=box, label="action {action}"];')
        lines.append(f"  n{src} -> out{action};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_genome(text: str) -> Genome:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"genome file needs 2 lines, got {len(lines)}")
    head = lines[0].split()
    if len(head) != 5 or head[0] != GENOME_MAGIC:
        raise ValueError(f"bad genome header: {lines[0]!r}")
    try:
        n_input, n_output, C = int(head[1]), int(head[2]), int(head[3])
        r = float(head[4])
        genes = np.array([float(t) for t in lines[1].split()])
    except ValueError as exc:
        raise ValueError(f"unparsable genome value: {exc}") from exc
    return Genome(genes, n_input, n_output, C, r)


def _write_atomic(path, text: str) -> None:
    """Write text to path through a temp file and os.replace; a failed
    write removes its temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_genome(genome: Genome, path) -> None:
    _write_atomic(path, serialize_genome(genome))


@contextlib.contextmanager
def open_run(out_dir):
    """Make evolve's run directory if missing, and yield record(state),
    which writes one generation: the pair when state.elite is not the one
    it holds, then the log line, which reaches the file at once. The first
    record empties a previous run's log.txt, which is kept until then, and
    always writes the pair. Replaying best.cgp with --seed $(cat best.seed)
    reproduces the last logged fitness."""
    os.makedirs(out_dir, exist_ok=True)
    saved = None   # the elite the pair holds
    with open(os.path.join(out_dir, "log.txt"), "a", buffering=1) as log_fh:
        @held_stops()   # a stop waits until the pair and the line are written
        def record(state) -> None:
            nonlocal saved
            if saved is None:
                log_fh.truncate(0)
            if state.elite is not saved:
                save_genome(state.elite, os.path.join(out_dir, "best.cgp"))
                _write_atomic(os.path.join(out_dir, "best.seed"),
                              f"{state.elite_seed}\n")
                saved = state.elite
            print(state.line(), file=log_fh)

        yield record


def load_genome(path) -> Genome:
    with open(path) as fh:
        return parse_genome(fh.read())


# config file key -> RunConfig field; the file spells lam "lambda", as
# the dataclass field avoids the Python keyword. A value parses as the
# type of its field's default: int, float or str.
_FIELDS = {("lambda" if f.name == "lam" else f.name): f
           for f in fields(RunConfig)}


def parse_config(text: str, overrides=None) -> RunConfig:
    """The config in text, with overrides (field name -> value) replacing
    the file's values before the one RunConfig check."""
    values, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(
                f"lines {seen[key]} and {lineno}: key {key!r} given twice")
        seen[key] = lineno
        f = _FIELDS[key]
        try:
            values[f.name] = type(f.default)(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    values.update(overrides or {})
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path, overrides=None) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), overrides)
