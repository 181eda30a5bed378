"""Genome and run-configuration file formats.

Genome files are two text lines:

    CGP1 <n_input> <n_output> <C> <r>
    <gene> <gene> ...

Genes are printed with 17 significant digits so parse(serialize(g)) is
bit-exact. Config files are flat ``key = value`` lines; blank lines and
``#`` comments are ignored and unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .envs import DEFAULT_FRAME_CAP, DEFAULT_P_FSKIP
from .genome import Genome

GENOME_MAGIC = "CGP1"


class FormatError(Exception):
    """Malformed genome or config file."""


def serialize_genome(genome: Genome) -> str:
    header = (f"{GENOME_MAGIC} {genome.n_input} {genome.n_output} "
              f"{genome.C} {genome.r:.17g}")
    genes = " ".join(f"{g:.17g}" for g in genome.genes)
    return f"{header}\n{genes}\n"


def parse_genome(text: str) -> Genome:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise FormatError(f"genome file needs 2 lines, got {len(lines)}")
    head = lines[0].split()
    if len(head) != 5 or head[0] != GENOME_MAGIC:
        raise FormatError(f"bad genome header: {lines[0]!r}")
    try:
        n_input, n_output, C = int(head[1]), int(head[2]), int(head[3])
        r = float(head[4])
        genes = np.array([float(t) for t in lines[1].split()])
    except ValueError as exc:
        raise FormatError(f"unparsable genome value: {exc}") from exc
    if len(genes) != n_output + 4 * C:
        raise FormatError(
            f"gene count {len(genes)} does not match header "
            f"(expected {n_output + 4 * C})")
    # decode maps genes in [0, 1) to indices; 1.0 or NaN would index past
    # the function table or the graph
    bad = ~((genes >= 0.0) & (genes < 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"gene {i} is {float(genes[i])!r}, outside [0, 1)")
    if not 0.0 <= r <= 1.0:
        raise FormatError(f"recurrency r = {r!r} outside [0, 1]")
    return Genome(genes, n_input, n_output, C, r)


def save_genome(genome: Genome, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_genome(genome))


def load_genome(path) -> Genome:
    with open(path) as fh:
        return parse_genome(fh.read())


@dataclass
class RunConfig:
    env: str = "catch"
    lam: int = 9
    c: int = 40
    r: float = 0.1
    m_nodes: float = 0.1
    m_output: float = 0.6
    n_eval: int = 10000
    episodes: int = 1
    p_fskip: float = DEFAULT_P_FSKIP
    frame_cap: int = DEFAULT_FRAME_CAP
    seed: int = 0
    out_dir: str = "."
    ale_server: str = ""
    rom_dir: str = ""


# config files spell the offspring count "lambda"; the dataclass field
# avoids the Python keyword
_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {"lam": "lambda"}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        attr = _KEY_TO_FIELD.get(key, key)
        if attr not in types or (attr in _FIELD_TO_KEY and key != "lambda"):
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        kind = types[attr]
        try:
            if kind == "int":
                setattr(cfg, attr, int(value))
            elif kind == "float":
                setattr(cfg, attr, float(value))
            else:
                setattr(cfg, attr, value)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad value for {key}: {exc}") from exc
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    """Reject values no run can use; each would fail later with a traceback
    (a zero lambda or episode count divides by zero) or decode genomes
    outside their graph (r > 1)."""
    for key in ("lambda", "episodes", "c", "n_eval"):
        value = getattr(cfg, _KEY_TO_FIELD.get(key, key))
        if value < 1:
            raise FormatError(f"{key} = {value} must be at least 1")
    for key in ("m_nodes", "m_output", "r"):
        value = getattr(cfg, key)
        if not 0.0 <= value <= 1.0:
            raise FormatError(f"{key} = {value!r} outside [0, 1]")
    # at p_fskip = 1 every frame is skipped and the frame cap is never reached
    if not 0.0 <= cfg.p_fskip < 1.0:
        raise FormatError(f"p_fskip = {cfg.p_fskip!r} outside [0, 1)")


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        value = getattr(cfg, f.name)
        if f.type == "float":
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
