"""Seeded input generator for the benchmark.

Everything the benchmark checks is known here by construction: the
expected validation verdict of every corpus record, its canonical line
(written by this module's own depth-first writer, minus ``:wiki``), and
for score pairs the triple totals and, for the "near" pairs, the optimum.
Nothing here imports amrkit or the test helpers, so neither a change to
the program nor a test edit can shift a workload.

Sizes follow a fixed schedule and only content depends on the seed, so
two seeds give equally heavy inputs: the spread between runs comes from
the machine, not from one seed drawing bigger graphs than another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Frames and the core roles the bundled lexicon allows them (a copy, so
# a lexicon edit shows up as a check failure instead of moving the input).
FRAMES = {
    "want-01": (0, 1, 2, 3, 4),
    "go-01": (0, 1, 2, 3, 4),
    "say-01": (0, 1, 2, 3),
    "contrast-01": (1, 2),
    "possible-01": (1,),
    "cause-01": (0, 1),
    "state-01": (0, 1, 2),
    "think-01": (0, 1, 2, 3),
    "know-01": (0, 1, 2, 3),
    "have-03": (0, 1),
    "need-01": (0, 1, 2),
    "like-02": (0, 1, 2),
    "believe-01": (0, 1),
    "win-01": (0, 1, 2, 3, 4),
    "announce-01": (0, 1, 2),
    "find-01": (0, 1, 2, 3),
    "report-01": (0, 1, 2, 3),
    "show-01": (0, 1, 2, 3),
    "write-01": (0, 1, 2, 3, 4),
    "start-01": (0, 1, 2, 3, 4),
    "decide-01": (0, 1, 2),
    "run-01": (0, 1, 2),
    "walk-01": (0, 1, 2, 3, 4),
    "obligate-01": (1, 2),
    "recommend-01": (0, 1, 2, 3),
    "live-01": (0, 1, 2),
    "rain-01": (1,),
}
FRAME_NAMES = sorted(FRAMES)
NOUNS = [
    "boy", "girl", "dog", "cat", "man", "woman", "child", "house", "car",
    "book", "letter", "school", "teacher", "money", "problem", "idea",
    "plan", "day", "year", "world", "road", "river", "tree", "game",
    "music", "food", "water", "law", "market", "price", "war", "peace",
    "thing", "time", "place", "i", "you", "we", "they", "it",
]
NE_TYPES = ["person", "country", "city", "organization", "company"]
NAME_TOKENS = [
    "Hungary", "Paris", "New York", "Anna", "Smith", "Acme Corp", "Nile",
    "Lee", "Tokyo", "Garcia", "Bell Labs", "Oslo", "Kim", "Rio de Janeiro",
]
FRAME_EXTRA_ROLES = [":time", ":location", ":manner", ":purpose", ":condition", ":mod"]
NOUN_ROLES = [":mod", ":poss", ":location", ":topic", ":part-of", ":consist-of"]
MAX_DEPTH = 100  # the workloads stay far below the parser's recursion limit


@dataclass
class Graph:
    """A generated AMR: variable names and concepts by index, and each
    variable's edges in surface order.  An edge is ``(role, kind, value)``
    with kind ``tree`` (a child written expanded in the surface text),
    ``ref`` (a bare reference to another variable), or ``str``/``num``/
    ``sym`` for constants."""

    root: int
    concepts: list[str]
    names: list[str] = field(default_factory=list)
    edges: list[list[tuple[str, str, object]]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.concepts)

    def triple_total(self) -> int:
        """Smatch triples with the root marker: instances plus edges plus one."""
        return self.size + sum(len(out) for out in self.edges) + 1


def _constant_text(kind: str, value: object) -> str:
    return f'"{value}"' if kind == "str" else str(value)


def write_pretty(graph: Graph) -> str:
    """The indented multi-line layout of the AMR releases."""
    lines: list[str] = []

    def node(var: int, indent: int, prefix: str) -> None:
        head = f"{prefix}({graph.names[var]} / {graph.concepts[var]}"
        out = graph.edges[var]
        if not out:
            lines.append(head + ")")
            return
        lines.append(head)
        pad = " " * (indent + 6)
        for pos, (role, kind, value) in enumerate(out):
            close = ")" if pos == len(out) - 1 else ""
            if kind == "tree":
                node(value, indent + 6, f"{pad}{role} ")
                lines[-1] += close
            elif kind == "ref":
                lines.append(f"{pad}{role} {graph.names[value]}{close}")
            else:
                lines.append(f"{pad}{role} {_constant_text(kind, value)}{close}")

    node(graph.root, 0, "")
    return "\n".join(lines)


def write_canonical(graph: Graph) -> str:
    """Single-line canonical form: depth-first from the root, edges in
    surface order, each variable expanded at its first mention, one space
    between tokens.  ``:wiki`` edges carry constants here, so removing
    them never strands a variable."""
    parts: list[str] = []
    expanded: set[int] = set()
    stack: list[object] = [graph.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item in expanded:
            parts.append(graph.names[item])
        else:
            expanded.add(item)
            parts.extend(("(", graph.names[item], "/", graph.concepts[item]))
            pending: list[object] = []
            for role, kind, value in graph.edges[item]:
                if role == ":wiki":
                    continue
                pending.append(role)
                pending.append(value if kind in ("tree", "ref") else _constant_text(kind, value))
            pending.append(")")
            stack.extend(reversed(pending))
    return " ".join(parts)


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.concepts: list[str] = []
        self.edges: list[list[tuple[str, str, object]]] = []

    def new(self, concept: str) -> int:
        self.concepts.append(concept)
        self.edges.append([])
        return len(self.concepts) - 1

    def split(self, total: int, parts: int) -> list[int]:
        cuts = sorted(self.rng.sample(range(1, total), parts - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    def build(self, budget: int, depth: int) -> int:
        """A subtree with exactly ``budget`` variables."""
        rng = self.rng
        if depth >= MAX_DEPTH:
            raise RuntimeError("generated graph nests too deeply")
        if budget >= 3 and rng.random() < 0.08:
            var = self.new("and")
            parts = self.split(budget - 1, min(budget - 1, rng.choice((2, 2, 3, 4))))
            for pos, part in enumerate(parts, start=1):
                self.edges[var].append((f":op{pos}", "tree", self.build(part, depth + 1)))
            return var
        if budget == 2 and rng.random() < 0.5 or budget >= 3 and rng.random() < 0.08:
            return self.named_entity(budget, depth)
        concept = rng.choice(FRAME_NAMES) if rng.random() < 0.45 else rng.choice(NOUNS)
        var = self.new(concept)
        if budget > 1:
            fan = min(budget - 1, rng.choice((1, 2, 2, 3, 3, 4)) if budget > 8 else rng.choice((1, 2, 3)))
            for part in self.split(budget - 1, fan):
                child = self.build(part, depth + 1)
                self.edges[var].append((self.role_for(var, child), "tree", child))
        rng.shuffle(self.edges[var])
        return var

    def named_entity(self, budget: int, depth: int) -> int:
        rng = self.rng
        var = self.new(rng.choice(NE_TYPES))
        name = self.new("name")
        words = rng.choice(NAME_TOKENS).split()
        for pos, word in enumerate(words, start=1):
            self.edges[name].append((f":op{pos}", "str", word))
        wiki = ("sym", "-") if rng.random() < 0.3 else ("str", "_".join(words))
        self.edges[var].append((":wiki", *wiki))
        self.edges[var].append((":name", "tree", name))
        if budget > 2:
            child = self.build(budget - 2, depth + 1)
            self.edges[var].append((":mod", "tree", child))
        return var

    def role_for(self, parent: int, child: int) -> str:
        rng = self.rng
        concept = self.concepts[parent]
        if concept in FRAMES:
            free = [k for k in FRAMES[concept] if f":ARG{k}" not in self.roles_of(parent)]
            if free and rng.random() < 0.8:
                return f":ARG{rng.choice(free)}"
            return rng.choice(FRAME_EXTRA_ROLES)
        child_concept = self.concepts[child]
        if child_concept in FRAMES and rng.random() < 0.3:
            return f":ARG{rng.choice(FRAMES[child_concept])}-of"
        return rng.choice(NOUN_ROLES)

    def roles_of(self, var: int) -> set[str]:
        return {role for role, _, _ in self.edges[var]}

    def add_attribute(self) -> bool:
        """Give a random variable that lacks one a ``:polarity`` (frames)
        or ``:quant`` (nouns) constant; False when none is left."""
        rng = self.rng
        open_vars = [
            v for v, c in enumerate(self.concepts)
            if (c in FRAMES and ":polarity" not in self.roles_of(v))
            or (c in NOUNS and ":quant" not in self.roles_of(v))
        ]
        if not open_vars:
            return False
        var = rng.choice(open_vars)
        if self.concepts[var] in FRAMES:
            edge = (":polarity", "sym", "-")
        else:
            edge = (":quant", "num", rng.choice((2, 3, 10, 1.5, 2010)))
        self.edges[var].insert(rng.randint(0, len(self.edges[var])), edge)
        return True

    def add_reentrancy(self) -> bool:
        """An extra ``:ARGn`` edge from a frame with a free role to another
        variable, written as a bare reference; False when no frame has a
        free role."""
        rng = self.rng
        size = len(self.concepts)
        sources = [
            v for v in range(size)
            if self.concepts[v] in FRAMES
            and any(f":ARG{k}" not in self.roles_of(v) for k in FRAMES[self.concepts[v]])
        ]
        targets = [v for v in range(size) if self.concepts[v] != "name"]
        if not sources or len(targets) < 2:
            return False
        source = rng.choice(sources)
        target = rng.choice([t for t in targets if t != source])
        free = [k for k in FRAMES[self.concepts[source]] if f":ARG{k}" not in self.roles_of(source)]
        edge = (f":ARG{rng.choice(free)}", "ref", target)
        self.edges[source].insert(rng.randint(0, len(self.edges[source])), edge)
        return True

    def top_up(self, target: int) -> None:
        """Add reentrancies and constants until the graph has ``target``
        edges beyond its spanning tree (named entities may already pass it)."""
        extra = sum(1 for out in self.edges for _, kind, _ in out if kind != "tree")
        for step in range(target - extra):
            if step % 2 == 0 and self.add_reentrancy():
                continue
            if not self.add_attribute() and not self.add_reentrancy():
                return


def _name_variables(graph: Graph, rng: random.Random, renamed: bool) -> None:
    """AMR-style names (first letter, numbered on collision), or for a
    renamed copy a shuffled numbering with another letter."""
    if renamed:
        numbers = list(range(1, graph.size + 1))
        rng.shuffle(numbers)
        graph.names = [f"x{n}" for n in numbers]
        return
    seen: dict[str, int] = {}
    names = []
    for concept in graph.concepts:
        letter = concept[0].lower()
        seen[letter] = seen.get(letter, 0) + 1
        names.append(letter if seen[letter] == 1 else f"{letter}{seen[letter]}")
    graph.names = names


def random_graph(rng: random.Random, size: int) -> Graph:
    """A graph with exactly ``size`` variables that passes the bundled
    lexicon's checks: every ``and`` has at least two ``:op`` operands and
    frames use only roles their lexicon entry allows."""
    builder = _Builder(rng)
    root = builder.build(size, 0)
    # a fixed edge count per size keeps the cost of a graph close to the
    # same for every seed
    builder.top_up(size // 2)
    graph = Graph(root, builder.concepts, edges=builder.edges)
    _name_variables(graph, rng, renamed=False)
    return graph


def copy_graph(graph: Graph) -> Graph:
    return Graph(graph.root, list(graph.concepts), list(graph.names), [list(e) for e in graph.edges])


# ---------------------------------------------------------------------------
# planted defects


def plant_and_arity(graph: Graph, rng: random.Random) -> str:
    """Leave one ``and`` node with a single ``:op``; returns its name."""
    ands = [v for v, c in enumerate(graph.concepts) if c == "and"]
    if not ands:
        # wrap the root in a one-operand conjunction
        var = graph.size
        graph.concepts.append("and")
        graph.edges.append([(":op1", "tree", graph.root)])
        graph.names.append(f"a{var + 100}")
        graph.root = var
        return graph.names[var]
    var = rng.choice(ands)
    graph.edges[var] = [
        (role if pos == 0 else ":mod", kind, value)
        for pos, (role, kind, value) in enumerate(graph.edges[var])
    ]
    return graph.names[var]


def plant_illegal_arg(graph: Graph, rng: random.Random) -> str:
    """Give one frame a core role its lexicon entry lacks; returns its name."""
    candidates = [
        v for v, c in enumerate(graph.concepts)
        if c in FRAMES and any(kind in ("tree", "ref") for _, kind, _ in graph.edges[v])
    ]
    if not candidates:
        var = graph.size
        graph.concepts.append("possible-01")
        graph.edges.append([(":ARG0", "tree", graph.root)])
        graph.names.append(f"p{var + 100}")
        graph.root = var
        return graph.names[var]
    var = rng.choice(candidates)
    banned = [k for k in range(7) if k not in FRAMES[graph.concepts[var]]]
    role = f":ARG{rng.choice(banned)}"
    out = graph.edges[var]
    slots = [pos for pos, (_, kind, _) in enumerate(out) if kind in ("tree", "ref")]
    pos = rng.choice(slots)
    out[pos] = (role, out[pos][1], out[pos][2])
    return graph.names[var]


def corrupt(text: str, kind: int) -> str:
    """PENMAN text that no longer parses, by one of three defects."""
    if kind == 0:
        return text[:-1]  # missing ')'
    if kind == 1:
        return text[:-1] + " :mod zq9)"  # undefined variable
    return text + ")"  # unmatched ')'


# ---------------------------------------------------------------------------
# silver-clean corpus


@dataclass
class SilverRecord:
    rid: str
    text: str
    verdict: tuple[str, str]  # ("", "") when clean, else (rule, node)
    canonical: str  # empty for discarded records
    size: int


def _metadata(rng: random.Random, rid: str, graph: Graph) -> str:
    words = [graph.concepts[v].split("-")[0] for v in range(min(graph.size, 12))]
    snt = " ".join(words).capitalize() + " ."
    return (
        f"# ::id {rid} ::date 2012-12-{rng.randint(1, 28):02d}T17:55:20 ::annotator bench-gen\n"
        f"# ::snt {snt}\n"
        f"# ::save-date Sun Dec 8, 2013"
    )


SILVER_SMALL = range(5, 41)
SILVER_LARGE = (250, 800)


def silver_corpus(seed: int, total: int) -> tuple[str, list[SilverRecord]]:
    """A corpus of ``total`` records.  About 1 % are large (250 to 800
    variables, evenly spaced); the rest cycle through 5 to 40 variables.
    Of the small ones, 3 % each are planted AndArity and IllegalArg
    violators and 2 % do not parse."""
    rng = random.Random(f"silver-{seed}")
    large = max(1, total // 100)
    low, high = SILVER_LARGE
    large_sizes = [low + (high - low) * i // max(1, large - 1) for i in range(large)]
    small_sizes = [SILVER_SMALL[(i * 7) % len(SILVER_SMALL)] for i in range(total - large)]
    sizes = small_sizes + large_sizes
    # one fixed order for every seed: where the large graphs fall decides
    # how the process pool's chunks balance
    random.Random("silver-order").shuffle(sizes)
    small_positions = [i for i, n in enumerate(sizes) if n <= SILVER_SMALL[-1]]
    per_kind = max(1, total * 3 // 100)
    broken = max(1, total * 2 // 100)
    chosen = rng.sample(small_positions, 2 * per_kind + broken)
    plant = {p: "AndArity" for p in chosen[:per_kind]}
    plant.update({p: "IllegalArg" for p in chosen[per_kind : 2 * per_kind]})
    plant.update({p: "Structural" for p in chosen[2 * per_kind :]})
    width = len(str(total))
    records = []
    blocks = []
    for index, size in enumerate(sizes):
        rid = f"bench.silver_{index:0{width}d}"
        graph = random_graph(rng, size)
        kind = plant.get(index)
        verdict = ("", "")
        if kind == "AndArity":
            verdict = (kind, plant_and_arity(graph, rng))
        elif kind == "IllegalArg":
            verdict = (kind, plant_illegal_arg(graph, rng))
        text = write_pretty(graph)
        if kind == "Structural":
            text = corrupt(text, index % 3)
            verdict = (kind, "")
        canonical = write_canonical(graph) if kind is None else ""
        records.append(SilverRecord(rid, text, verdict, canonical, size))
        blocks.append(_metadata(rng, rid, graph) + "\n" + text)
    return "\n\n".join(blocks) + "\n", records


# ---------------------------------------------------------------------------
# score pairs


@dataclass
class Pair:
    rid: str
    kind: str  # "near" (known optimum), "far" (unrelated), "broken" (unparseable)
    size: int  # max(pred, gold) variables: the size score_pair routes on
    pred_total: int  # 0 for a prediction that does not parse
    gold_total: int
    optimum: int  # -1 when unknown


def _removable_edges(graph: Graph) -> list[tuple[int, int]]:
    # reentrant references and constants: dropping one keeps every
    # variable connected
    return [
        (v, pos)
        for v in range(graph.size)
        for pos, (_, kind, _) in enumerate(graph.edges[v])
        if kind != "tree"
    ]


def _leaves(graph: Graph) -> list[int]:
    referenced = {value for out in graph.edges for _, kind, value in out if kind == "ref"}
    return [
        v for v in range(graph.size)
        if v != graph.root and not graph.edges[v] and v not in referenced
        and graph.concepts[v] != "name"
    ]


def near_copy(graph: Graph, rng: random.Random, removals: int, min_size: int) -> Graph:
    """A renamed copy with ``removals`` edges or leaf variables dropped.
    Every remaining triple has a partner in ``graph``, so the optimum
    matches all of them: it equals the copy's triple total."""
    pred = copy_graph(graph)
    for _ in range(removals):
        leaves = _leaves(pred)
        edges = _removable_edges(pred)
        if leaves and pred.size > min_size and (not edges or rng.random() < 0.5):
            _drop_leaf(pred, rng.choice(leaves))
        elif edges:
            var, pos = rng.choice(edges)
            del pred.edges[var][pos]
    _name_variables(pred, rng, renamed=True)
    return pred


def _drop_leaf(graph: Graph, leaf: int) -> None:
    remap = {old: new for new, old in enumerate(v for v in range(graph.size) if v != leaf)}
    edges = []
    for v in range(graph.size):
        if v == leaf:
            continue
        edges.append([
            (role, kind, remap[value] if kind in ("tree", "ref") else value)
            for role, kind, value in graph.edges[v]
            if not (kind == "tree" and value == leaf)
        ])
    graph.concepts = [c for v, c in enumerate(graph.concepts) if v != leaf]
    graph.names = [n for v, n in enumerate(graph.names) if v != leaf]
    graph.root = remap[graph.root]
    graph.edges = edges


# (size, kind) schedules, in one fixed order for every seed: the order
# decides which pairs a pool worker gets last.  Hill-climbing costs about
# n^3.3 and a near pair climbs about twice as long as a far one of the
# same size (a near pair at n=40 takes 7-8 s on a 2-core VM with CPython
# 3.11), so near pairs stop at n=30 and one far pair reaches n=40, keeping
# a pass within a few seconds.
EXACT_SCHEDULE = [(n, kind) for n in (4, 5, 6, 7, 8) * 3 for kind in ("near", "far")]
HILL_SCHEDULE = [(n, "near") for n in (9, 11, 13, 15, 18, 20, 25, 30)] + [
    (n, "far") for n in (9, 15, 20, 25, 30, 40)
]


def score_pairs(seed: int, workload: str) -> tuple[str, str, list[Pair]]:
    """Prediction and reference corpora plus the expected facts per pair.

    A near pair is a renamed reference with one or two edges or leaves
    removed (optimum known); a far pair is an unrelated graph of the same
    size.  One prediction, at a fixed position, is made unparseable.
    """
    schedule = list(EXACT_SCHEDULE if workload == "score-exact" else HILL_SCHEDULE)
    random.Random(f"{workload}-order").shuffle(schedule)
    # near copies may lose leaves, but never drop below the schedule's
    # smallest size, so no hill pair slips under the exact threshold
    min_size = min(n for n, _ in schedule) - (0 if workload == "score-exact" else 1)
    rng = random.Random(f"{workload}-{seed}")
    broken_at = len(schedule) // 2
    pred_blocks, gold_blocks, pairs = [], [], []
    for index, (size, kind) in enumerate(schedule):
        rid = f"bench.pair_{index:03d}"
        gold = random_graph(rng, size)
        if kind == "near":
            pred = near_copy(gold, rng, rng.choice((1, 2)), min_size)
        else:
            pred = random_graph(rng, size)
            _name_variables(pred, rng, renamed=True)
        pred_text = write_pretty(pred)
        if index == broken_at:
            kind = "broken"
            pred_text = corrupt(pred_text, index % 3)
        pred_total = 0 if kind == "broken" else pred.triple_total()
        optimum = pred_total if kind == "near" else -1
        pairs.append(Pair(rid, kind, max(pred.size, gold.size), pred_total, gold.triple_total(), optimum))
        pred_blocks.append(f"# ::id {rid}\n{pred_text}")
        gold_blocks.append(f"# ::id {rid}\n{write_pretty(gold)}")
    return "\n\n".join(pred_blocks) + "\n", "\n\n".join(gold_blocks) + "\n", pairs
