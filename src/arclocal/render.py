"""Rendering of digraphs, reports and decomposition outcomes.

JSON objects are built with a fixed key order and emitted with two-space
indentation, so equal inputs always produce byte-identical output.  The text
and dot forms of an outcome are read off its JSON object.
"""

from __future__ import annotations

import json

from .decompose import (
    CLIQUE_CUT,
    ODD_EXTENDED_CYCLE,
    TRIPARTITION,
    ALSOutcome,
    Decomposition,
)
from .digraph import Digraph
from .patterns import ClassReport, PatternWitness

_PALETTE = (
    "#8dd3c7",
    "#ffffb3",
    "#bebada",
    "#fb8072",
    "#80b1d3",
    "#fdb462",
    "#b3de69",
    "#fccde5",
)


def dumps(obj) -> str:
    """Deterministic JSON text: dicts one key per line, lists inline."""
    return _render(obj, 0) + "\n"


def _render(obj, indent: int) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * (indent + 2)
        items = [f"{pad}{json.dumps(k)}: {_render(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    return json.dumps(obj)


def witness_dict(w: PatternWitness) -> dict:
    return {"pattern": w.pattern, "vertices": list(w.vertices)}


def class_report_dict(d: Digraph, report: ClassReport) -> dict:
    return {
        "vertices": d.n,
        "arc_count": d.arc_count,
        "classes": {name: report.flag(name) for name in ClassReport.FLAG_NAMES},
        "witnesses": {
            name: witness_dict(w) for name, w in sorted(report.witnesses.items())
        },
    }


def class_report_text(d: Digraph, report: ClassReport) -> str:
    lines = [f"vertices: {d.n}  arcs: {d.arc_count}"]
    width = max(len(name) for name in ClassReport.FLAG_NAMES)
    for name in ClassReport.FLAG_NAMES:
        value = "yes" if report.flag(name) else "no"
        line = f"  {name:<{width}}  {value}"
        w = report.witnesses.get(name)
        if w is not None:
            line += f"  (witness: {w.record()})"
        lines.append(line)
    return "\n".join(lines) + "\n"


def outcome_dict(cls: str, outcome: Decomposition | ALSOutcome) -> dict:
    """Keys in the order class, outcome, V1, V2_parts, V3, cut; a key is
    present only for the outcome kinds that have it."""
    obj: dict = {"class": cls, "outcome": outcome.kind}
    parts = [list(p) for p in outcome.cert.parts] if outcome.cert is not None else None
    if outcome.kind == TRIPARTITION:
        obj.update(V1=list(outcome.v1), V2_parts=parts, V3=list(outcome.v3))
    elif outcome.kind == ODD_EXTENDED_CYCLE:
        obj["V2_parts"] = parts
    elif outcome.kind == CLIQUE_CUT:
        obj["cut"] = list(outcome.cut)
    return obj


def outcome_text(obj: dict) -> str:
    """One ``key: value`` line per key of an outcome object."""
    return "".join(f"{key.replace('_', ' ')}: {value}\n" for key, value in obj.items())


def outcome_groups(obj: dict) -> dict[str, list[int]]:
    """Dot colour groups of an outcome object: each non-empty vertex list,
    with V2 split into its parts."""
    groups = {}
    for key, value in obj.items():
        if key == "V2_parts":
            groups.update((f"V2.{i}", part) for i, part in enumerate(value))
        elif isinstance(value, list) and value:
            groups[key] = value
    return groups


def rejection_dict(cls: str, reason: str, witness: PatternWitness | None) -> dict:
    obj: dict = {"class": cls, "outcome": "rejected", "reason": reason}
    if witness is not None:
        obj["witness"] = witness_dict(witness)
    return obj


def digraph_to_dot(d: Digraph, groups: dict[str, list[int]] | None = None) -> str:
    """GraphViz text.  ``groups`` maps a label to vertices sharing a colour."""
    colour: dict[int, str] = {}
    label: dict[int, str] = {}
    if groups:
        for gi, (name, vertices) in enumerate(groups.items()):
            for v in vertices:
                colour[v] = _PALETTE[gi % len(_PALETTE)]
                label[v] = name
    lines = ["digraph D {", "  node [style=filled, fillcolor=white];"]
    for v in range(d.n):
        attrs = []
        if v in colour:
            attrs.append(f'fillcolor="{colour[v]}"')
            attrs.append(f'xlabel="{label[v]}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    for u, v in d.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
