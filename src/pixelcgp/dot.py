"""DOT export of the active program graph.

Only active nodes appear: the inputs read as boxes, active program nodes
with their function and parameter, and one box per action output. x-input
edges are solid, y-input edges dashed. Output is byte-deterministic.
"""

from __future__ import annotations

from .genome import Genome, decode


def export_dot(genome: Genome) -> str:
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
