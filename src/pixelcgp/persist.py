"""Genome and run-configuration file formats.

Genome files are two text lines:

    CGP1 <n_input> <n_output> <C> <r>
    <gene> <gene> ...

Genes are printed with 17 significant digits so parse(serialize(g)) is
bit-exact. Config files are flat ``key = value`` lines; blank lines and
``#`` comments are ignored and unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .evolution import RunConfig
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
    try:
        return Genome(genes, n_input, n_output, C, r)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_genome(genome: Genome, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_genome(genome))


def load_genome(path) -> Genome:
    with open(path) as fh:
        return parse_genome(fh.read())


# config files spell the offspring count "lambda"; the dataclass field
# avoids the Python keyword
_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {"lam": "lambda"}
_PARSERS = {"int": int, "float": float, "str": str}


def parse_config(text: str) -> RunConfig:
    types = {f.name: f.type for f in fields(RunConfig)}
    values = {}
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
        try:
            values[attr] = _PARSERS[types[attr]](value)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


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
