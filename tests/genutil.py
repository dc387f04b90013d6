"""Shared builders for test data: random graphs, renamings, and corpora
with planted defects."""

from __future__ import annotations

import random
from typing import Sequence

from amrkit import AmrGraph, Concept, Constant, Edge, Variable

WANT_GO_PRETTY = """(w / want-01
   :ARG0 (b / boy
        :mod (c / country
            :wiki "Hungary"
            :name (n / name
                :op1 "Hungary")))
   :ARG1 (g / go-01
        :ARG0 b))"""

WANT_GO_CANONICAL = (
    '( w / want-01 :ARG0 ( b / boy :mod ( c / country :name '
    '( n / name :op1 "Hungary" ) ) ) :ARG1 ( g / go-01 :ARG0 b ) )'
)

CONCEPTS = [
    "boy", "girl", "dog", "country", "name", "city", "thing", "person",
    "want-01", "go-01", "run-01", "say-01", "see-01", "have-03", "team",
]

ROLES = [
    ":ARG0", ":ARG1", ":ARG2", ":mod", ":op1", ":op2", ":time",
    ":location", ":poss", ":domain", ":ARG0-of", ":manner",
]

# constants grouped by how the parser would classify their surface form,
# so generated graphs survive a serialize/parse round-trip unchanged
STRING_VALUES = ["Hungary", "New York", "a (b) c", "x :y z", "12:30", "end)", ""]
NUMBER_VALUES = ["12", "3.5", "-7", "0.25", "2e3"]
SYMBOL_VALUES = ["-", "+", "1st", "imperative", "expressive", "interrogative"]


def random_graph(rng: random.Random, max_vars: int = 15, min_vars: int = 1) -> AmrGraph:
    """A random valid graph: a random tree for rooted reachability, plus
    extra variable edges (reentrancy, cycles) and constant edges."""
    count = rng.randint(min_vars, max_vars)
    variables = [Variable(f"v{i}") for i in range(count)]
    instances = {v: Concept(rng.choice(CONCEPTS)) for v in variables}
    edges: list[tuple[Variable, str, object]] = []
    for i in range(1, count):
        parent = variables[rng.randrange(i)]
        edges.append((parent, rng.choice(ROLES), variables[i]))
    for _ in range(rng.randint(0, max(0, count // 3))):
        source = variables[rng.randrange(count)]
        target = variables[rng.randrange(count)]
        edges.append((source, rng.choice(ROLES), target))
    for _ in range(rng.randint(0, 3)):
        source = variables[rng.randrange(count)]
        pick = rng.random()
        if pick < 0.5:
            constant = Constant(rng.choice(STRING_VALUES), "string")
        elif pick < 0.8:
            constant = Constant(rng.choice(NUMBER_VALUES), "number")
        else:
            constant = Constant(rng.choice(SYMBOL_VALUES), "symbol")
        edges.append((source, rng.choice(ROLES), constant))
    rng.shuffle(edges)
    return AmrGraph.build(variables[0], instances, edges)


def rename_variables(graph: AmrGraph, rng: random.Random, prefix: str = "x") -> AmrGraph:
    """The same graph with variables renamed by a random bijection; the
    structure, edge order, and instance order stay untouched."""
    numbers = list(range(len(graph.instances)))
    rng.shuffle(numbers)
    mapping = {
        old: Variable(f"{prefix}{numbers[i]}")
        for i, old in enumerate(graph.instances)
    }
    return AmrGraph(
        mapping[graph.root],
        {mapping[v]: c for v, c in graph.instances.items()},
        tuple(
            Edge(
                mapping[e.source],
                e.role,
                mapping[e.target] if isinstance(e.target, Variable) else e.target,
            )
            for e in graph.edges
        ),
    )


# graphs that pass the bundled lexicon's checks
VALID_TEMPLATES = [
    "( w / want-01 :ARG0 ( b / boy ) :ARG1 ( g / go-01 :ARG0 b ) )",
    "( a / and :op1 ( r / run-01 :ARG0 ( d / dog ) ) :op2 ( w / walk-01 :ARG0 d ) )",
    "( s / say-01 :ARG0 ( p / person ) :ARG1 ( t / think-01 :ARG0 p ) )",
    "( c / contrast-01 :ARG1 ( r / rain-01 ) :ARG2 ( g / go-01 :ARG0 ( t / team ) ) )",
    "( p / possible-01 :ARG1 ( w / win-01 :ARG0 ( t / team ) ) )",
    "( k / know-01 :ARG0 ( p / person ) :ARG1 ( h / have-03 :ARG0 p :ARG1 ( d / dog ) ) )",
]

AND_ARITY_BAD = "( a / and :op1 ( r / run-01 ) )"
ILLEGAL_ARG_BAD = "( w / want-01 :ARG5 ( b / boy ) )"
STRUCTURAL_BAD = "( w / want-01 :ARG0 ( b / boy )"


def corpus_text(records: Sequence[tuple[str, str]]) -> str:
    """Records of (id, graph text) rendered as one corpus document."""
    if not records:
        return ""
    return "\n\n".join(f"# ::id {rid}\n{text}" for rid, text in records) + "\n"


def planted_corpus(
    seed: int,
    total: int,
    planted: Sequence[tuple[str, int]],
) -> tuple[str, dict[str, set[str]]]:
    """A corpus of ``total`` records where ``planted`` assigns a number of
    records to each defective graph text; every other record cycles the
    valid templates.  Returns the document and the planted record ids
    keyed by defect text."""
    rng = random.Random(seed)
    bad_total = sum(n for _, n in planted)
    positions = rng.sample(range(total), bad_total)
    assignment: dict[int, str] = {}
    cursor = 0
    for text, n in planted:
        for position in positions[cursor : cursor + n]:
            assignment[position] = text
        cursor += n
    width = len(str(max(total - 1, 1)))
    records = []
    planted_ids: dict[str, set[str]] = {text: set() for text, _ in planted}
    for index in range(total):
        rid = f"e{index:0{width}d}"
        if index in assignment:
            text = assignment[index]
            planted_ids[text].add(rid)
        else:
            text = VALID_TEMPLATES[index % len(VALID_TEMPLATES)]
        records.append((rid, text))
    return corpus_text(records), planted_ids


def top_label_corpus(seed: int, counts: Sequence[tuple[str, int]]) -> str:
    """A corpus whose root-concept frequencies are exactly ``counts``,
    with record order shuffled."""
    rng = random.Random(seed)
    tops: list[str] = []
    for label, n in counts:
        tops.extend([label] * n)
    rng.shuffle(tops)
    records = []
    for index, label in enumerate(tops):
        if label == "and":
            text = f"( t / and :op1 ( o1 / thing ) :op2 ( o2 / thing ) )"
        else:
            text = f"( t / {label} )"
        records.append((f"e{index}", text))
    return corpus_text(records)
