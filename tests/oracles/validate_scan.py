"""The O(V·E) content checks that ``amrkit.validate`` replaced with
one pass over the edges per rule.  Each frame variable rescans every edge.

Kept as an oracle: ``validate`` must return the same report as
``validate`` here for every graph.
"""

from __future__ import annotations

import re

from amrkit.graph import AmrGraph, Variable
from amrkit.validate import AND_MIN_OPERANDS, FrameLexicon, Rule, ValidationReport, Violation

_OP_ROLE_RE = re.compile(r"^:op\d+$")
_ARG_ROLE_RE = re.compile(r"^:ARG\d+$")
_ARG_OF_ROLE_RE = re.compile(r"^:ARG\d+-of$")


def check_and_operands(graph: AmrGraph) -> list[Violation]:
    out = []
    for var, concept in graph.instances.items():
        if concept.label != "and":
            continue
        count = sum(1 for e in graph.edges if e.source == var and _OP_ROLE_RE.match(e.role))
        if count < AND_MIN_OPERANDS:
            out.append(
                Violation(
                    Rule.AND_ARITY,
                    var.name,
                    f"'and' node has {count} :op operands (minimum {AND_MIN_OPERANDS})",
                )
            )
    return out


def core_roles_used(graph: AmrGraph, var: Variable) -> set[str]:
    used = set()
    for edge in graph.edges:
        if edge.source == var and _ARG_ROLE_RE.match(edge.role):
            used.add(edge.role)
        if edge.target == var and _ARG_OF_ROLE_RE.match(edge.role):
            used.add(edge.role[: -len("-of")])
    return used


def check_frame_args(
    graph: AmrGraph, lexicon: FrameLexicon, unknown_frame_policy: str = "ignore"
) -> list[Violation]:
    out = []
    for var, concept in graph.instances.items():
        if not concept.is_frame:
            continue
        entry = lexicon.get(concept.label)
        if entry is None:
            if unknown_frame_policy == "flag":
                out.append(
                    Violation(
                        Rule.UNKNOWN_FRAME,
                        var.name,
                        f"frame '{concept.label}' is not in the lexicon",
                    )
                )
            continue
        for role in sorted(core_roles_used(graph, var)):
            if not entry.allows(role):
                out.append(
                    Violation(
                        Rule.ILLEGAL_ARG,
                        var.name,
                        f"frame '{concept.label}' does not allow {role}",
                    )
                )
    return out


def validate(
    graph: AmrGraph,
    lexicon: FrameLexicon,
    unknown_frame_policy: str = "ignore",
    graph_id: str = "",
) -> ValidationReport:
    found = check_and_operands(graph) + check_frame_args(graph, lexicon, unknown_frame_policy)
    return ValidationReport(tuple(sorted(found, key=Violation.sort_key)), graph_id)
