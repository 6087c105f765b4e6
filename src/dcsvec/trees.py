"""Semantic tree data model.

A tree node is a content word (lemma plus coarse POS); every edge carries
two field labels, one for each end.  The module also provides path
enumeration with exact rational weights, and the one-tree-per-line text
format used between pipeline stages.

Path weights follow the degrade-long-paths rule: a path through
intermediate nodes of degrees n_1..n_k has weight prod(1 / (n_i - 1)),
and a single-edge path has weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import parse_lines, text_lines

POS_TAGS = ("N", "V", "J", "P", "R", "X")
UNKNOWN_LEMMA = "*UNKNOWN*"

FieldId = str

ARG: FieldId = "ARG"
SUBJ: FieldId = "SUBJ"
COMP: FieldId = "COMP"
UNKNOWN_FIELD: FieldId = "*UNKNOWN*"
CORE_FIELDS = (ARG, SUBJ, COMP)

# reserved by the tree line format
_FIELD_BAD_CHARS = (":", ";", "\t", " ")


@dataclass(frozen=True, order=True)
class Word:
    lemma: str
    pos: str

    def __post_init__(self):
        if not self.lemma:
            raise ValueError("empty lemma")
        if self.pos not in POS_TAGS:
            raise ValueError(f"bad POS tag {self.pos!r} (expected one of {POS_TAGS})")

    def render(self) -> str:
        return f"{self.lemma}/{self.pos}"

    @classmethod
    def parse(cls, text: str) -> "Word":
        if not isinstance(text, str):  # e.g. a number in a JSON dataset
            raise TypeError(f"expected lemma/POS, got {text!r}")
        lemma, sep, pos = text.rpartition("/")
        if not sep or not lemma:
            raise ValueError(f"expected lemma/POS, got {text!r}")
        return cls(lemma, pos)


def unknown_word(pos: str) -> Word:
    return Word(UNKNOWN_LEMMA, pos)


class Edge(NamedTuple):
    parent: int
    child: int
    parent_field: FieldId
    child_field: FieldId


@dataclass(frozen=True)
class DcsTree:
    """Rooted tree over words; edges are stored sorted by child index.

    Immutable after construction; validation rejects anything that is not
    a single connected rooted tree.
    """

    words: tuple[Word, ...]
    root: int
    edges: tuple[Edge, ...]
    _parent: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = tuple(self.words)
        edges = tuple(sorted((Edge(*e) for e in self.edges), key=lambda e: e.child))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "edges", edges)
        n = len(words)
        if n == 0:
            raise ValueError("tree needs at least one node")
        if not 0 <= self.root < n:
            raise ValueError("root index out of range")
        if len(edges) != n - 1:
            raise ValueError(f"{n} nodes need {n - 1} edges, got {len(edges)}")
        parent: dict[int, Edge] = {}
        children: dict[int, list[Edge]] = {i: [] for i in range(n)}
        adj: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            if not (0 <= e.parent < n and 0 <= e.child < n) or e.parent == e.child:
                raise ValueError(f"bad edge {e}")
            if e.child == self.root or e.child in parent:
                raise ValueError("every non-root node needs exactly one parent")
            parent[e.child] = e
            children[e.parent].append(e)
            adj[e.parent].append(e.child)
            adj[e.child].append(e.parent)
        # connectivity: every node must be reachable from the root
        seen = {self.root}
        stack = [self.root]
        while stack:
            for e in children[stack.pop()]:
                seen.add(e.child)
                stack.append(e.child)
        if len(seen) != n:
            raise ValueError("edges do not connect all nodes to the root")
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_children", {i: tuple(children[i]) for i in range(n)})
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    @property
    def n_nodes(self) -> int:
        return len(self.words)

    def parent_edge(self, node: int) -> Edge | None:
        return self._parent.get(node)

    def child_edges(self, node: int) -> tuple[Edge, ...]:
        return self._children[node]

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adj[node]

    def degree(self, node: int) -> int:
        return len(self._adj[node])


@dataclass(frozen=True)
class TreePath:
    """Ordered node-to-node path; hops are (near_field, far_field) pairs,
    near being the end closer to the start node."""

    start: int
    end: int
    hops: tuple[tuple[FieldId, FieldId], ...]
    weight: float

    def __post_init__(self):
        if not self.hops:
            raise ValueError("path needs at least one hop")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")


def path_nodes(tree: DcsTree, start: int, end: int) -> list[int]:
    """Node sequence of the unique simple path start..end."""
    if start == end:
        raise ValueError("start and end must differ")
    top = lca(tree, start, end)
    left = _ancestor_chain(tree, start, top)
    right = _ancestor_chain(tree, end, top)
    return left + right[:-1][::-1]


def _ancestor_chain(tree: DcsTree, node: int, top: int | None = None) -> list[int]:
    """``node`` and its ancestors, up to ``top`` (inclusive) or the root."""
    chain = [node]
    while chain[-1] != top and (e := tree.parent_edge(chain[-1])) is not None:
        chain.append(e.parent)
    return chain


def hop_fields(tree: DcsTree, near: int, far: int) -> tuple[FieldId, FieldId]:
    """Field pair of the edge between adjacent nodes, oriented near->far."""
    e = tree.parent_edge(far)
    if e is not None and e.parent == near:
        return (e.parent_field, e.child_field)
    e = tree.parent_edge(near)
    if e is not None and e.parent == far:
        return (e.child_field, e.parent_field)
    raise ValueError(f"nodes {near} and {far} are not adjacent")


def exact_path_weight(tree: DcsTree, nodes: list[int]) -> Fraction:
    w = Fraction(1)
    for node in nodes[1:-1]:
        w *= Fraction(1, tree.degree(node) - 1)
    return w


def tree_path(tree: DcsTree, start: int, end: int) -> TreePath:
    nodes = path_nodes(tree, start, end)
    hops = tuple(hop_fields(tree, a, b) for a, b in zip(nodes, nodes[1:]))
    return TreePath(start, end, hops, float(exact_path_weight(tree, nodes)))


def enumerate_paths(tree: DcsTree) -> list[TreePath]:
    """All n*(n-1) ordered node-pair paths with their exact weights."""
    out = []
    for a in range(tree.n_nodes):
        for b in range(tree.n_nodes):
            if a != b:
                out.append(tree_path(tree, a, b))
    return out


def lca(tree: DcsTree, a: int, b: int) -> int:
    """Lowest common ancestor of ``a`` and ``b``."""
    on_a = set(_ancestor_chain(tree, a))
    while b not in on_a:
        b = tree.parent_edge(b).parent
    return b


def check_field_name(name: FieldId) -> FieldId:
    if not name or any(c in name for c in _FIELD_BAD_CHARS):
        raise ValueError(f"field name {name!r} is empty or contains reserved characters")
    return name


def tree_to_line(tree: DcsTree) -> str:
    """``root_idx<TAB>word0/POS word1/POS ...<TAB>parent:child:PF:LF;...``"""
    words = " ".join(w.render() for w in tree.words)
    edges = ";".join(
        f"{e.parent}:{e.child}:{check_field_name(e.parent_field)}:{check_field_name(e.child_field)}"
        for e in tree.edges
    )
    return f"{tree.root}\t{words}\t{edges}"


def _parse_tree_line(line: str) -> DcsTree:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise ValueError(f"expected 3 tab-separated columns, got {len(parts)}")
    root_text, word_text, edge_text = parts
    root = int(root_text)
    words = tuple(Word.parse(t) for t in word_text.split(" ") if t)
    edges = []
    if edge_text:
        for chunk in edge_text.split(";"):
            p, c, pf, lf = chunk.split(":")
            edges.append(Edge(int(p), int(c), check_field_name(pf), check_field_name(lf)))
    return DcsTree(words, root, tuple(edges))


def read_trees(source: Iterable[str]) -> Iterator[DcsTree]:
    """The trees of a tree-line stream, blank lines skipped; a line that
    does not parse is a MalformedLine naming its line number."""
    return parse_lines(source, _parse_tree_line)


def load_trees(path) -> list[DcsTree]:
    return list(read_trees(text_lines(path)))


def save_trees(trees: Iterable[DcsTree], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(tree_to_line(tree) + "\n")
            count += 1
    return count
