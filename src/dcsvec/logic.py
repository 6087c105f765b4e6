"""Set-theoretic evaluation of semantic trees over finite fact tables.

This is the executable logic counterpart of the vector model: word
denotations are finite sets of field=value tuples, composition is
intersection plus field projection.  Inverse images are never
materialized; they are evaluated as membership filters on the finite
parent denotation, which is equivalent on finite databases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping

from .errors import MissingField, UnknownWord
from .trees import DcsTree, FieldId, TreePath, Word, path_nodes


@dataclass(frozen=True)
class DbTuple:
    """One element of a denotation: an immutable field -> value record."""

    items: tuple[tuple[FieldId, str], ...]

    def __post_init__(self):
        items = tuple(sorted(self.items))
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("a tuple needs at least one field")
        fields = [f for f, _ in items]
        if len(set(fields)) != len(fields):
            raise ValueError("duplicate field in tuple")

    @classmethod
    def of(cls, mapping: Mapping[FieldId, str] | None = None, **fields: str) -> "DbTuple":
        merged = dict(mapping or {})
        merged.update(fields)
        return cls(tuple(merged.items()))

    def get(self, field: FieldId) -> str | None:
        for f, v in self.items:
            if f == field:
                return v
        return None


Denotation = FrozenSet[DbTuple]


def denotation(*tuples: DbTuple) -> Denotation:
    return frozenset(tuples)


@dataclass
class Database:
    entries: dict[Word, Denotation]

    def lookup(self, word: Word) -> Denotation:
        try:
            return self.entries[word]
        except KeyError:
            raise UnknownWord(f"no database entry for {word.render()}") from None


def project(den: Denotation, field: FieldId) -> frozenset[str]:
    """Value set of ``field`` over all tuples; every tuple must carry it."""
    values = set()
    for t in den:
        v = t.get(field)
        if v is None:
            raise MissingField(f"tuple {t.items} lacks field {field}")
        values.add(v)
    return frozenset(values)


def _present_values(den: Denotation, field: FieldId) -> frozenset[str]:
    # lenient projection used inside composition: tuples lacking the field
    # contribute nothing instead of raising
    return frozenset(v for t in den if (v := t.get(field)) is not None)


def restrict_by_child(
    parent_den: Denotation, parent_field: FieldId, child_values: Iterable[str]
) -> Denotation:
    """Tuples of the parent whose ``parent_field`` value falls in the
    child's value set; tuples lacking the field are excluded, not errors."""
    allowed = frozenset(child_values)
    return frozenset(t for t in parent_den if t.get(parent_field) in allowed)


def denotation_of_tree(tree: DcsTree, db: Database) -> Denotation:
    """Bottom-up composition: each node's set is its word denotation
    filtered by every child's projected value set.

    The words are looked up in preorder, each node before its children,
    so the first unknown word raised is the first in that order; the
    nodes are then composed in reverse preorder, each after all of its
    descendants.  Nothing recurses, so a tree of any depth composes."""
    order, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(e.child for e in reversed(tree.child_edges(node)))
    dens = {node: db.lookup(tree.words[node]) for node in order}
    for node in reversed(order):
        for e in tree.child_edges(node):
            child_values = _present_values(dens[e.child], e.child_field)
            dens[node] = restrict_by_child(dens[node], e.parent_field, child_values)
    return dens[tree.root]


def path_denotation(path: TreePath, tree: DcsTree, db: Database) -> Denotation:
    """Chain of projections and filtered inverse images along a path.

    Starting from the start node's word denotation, each hop projects on
    the near field and filters the far node's word denotation on the far
    field.  If the whole tree has a non-empty denotation, this chain is
    non-empty for every path.
    """
    nodes = path_nodes(tree, path.start, path.end)
    if len(nodes) - 1 != len(path.hops):
        raise ValueError("path hops do not match the tree")
    current = db.lookup(tree.words[nodes[0]])
    for (near, far), node in zip(path.hops, nodes[1:]):
        values = _present_values(current, near)
        current = restrict_by_child(db.lookup(tree.words[node]), far, values)
    return current
