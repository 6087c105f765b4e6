import numpy as np
import pytest

from dcsvec.errors import MissingField, UnknownWord
from dcsvec.logic import (
    Database,
    DbTuple,
    denotation,
    denotation_of_tree,
    path_denotation,
    project,
    restrict_by_child,
)
from dcsvec.trees import ARG, COMP, SUBJ, DcsTree, Edge, Word, enumerate_paths, tree_path
from helpers import (
    brute_force_denotation,
    brute_force_path,
    random_db_for_tree,
    random_tree,
)


def w(lemma, pos="N"):
    return Word(lemma, pos)


def t(**fields):
    return DbTuple.of(fields)


def test_project_extracts_field_values():
    ban = denotation(t(SUBJ="Canada", COMP="Thalidomide"))
    assert project(ban, COMP) == {"Thalidomide"}


def test_project_empty_set():
    assert project(frozenset(), ARG) == frozenset()


def test_project_deduplicates():
    den = denotation(t(ARG="a"), t(ARG="b"), t(ARG="a", SUBJ="x"))
    assert project(den, ARG) == {"a", "b"}


def test_project_missing_field_raises():
    with pytest.raises(MissingField):
        project(denotation(t(ARG="a"), t(SUBJ="x")), ARG)


def test_restrict_filters_parent_tuples():
    drug = denotation(t(ARG="Aspirin"), t(ARG="Thalidomide"))
    assert restrict_by_child(drug, ARG, {"Thalidomide"}) == denotation(t(ARG="Thalidomide"))


def test_restrict_empty_values():
    drug = denotation(t(ARG="Aspirin"))
    assert restrict_by_child(drug, ARG, set()) == frozenset()


def test_restrict_membership():
    sell = denotation(t(SUBJ="John", COMP="Aspirin"))
    assert restrict_by_child(sell, SUBJ, {"John", "Mary"}) == sell


def test_restrict_skips_tuples_without_field():
    den = denotation(t(SUBJ="John"), t(COMP="x"))
    assert restrict_by_child(den, SUBJ, {"John"}) == denotation(t(SUBJ="John"))


def banned_drugs_world():
    db = Database(
        {
            w("drug"): denotation(t(ARG="Aspirin"), t(ARG="Thalidomide")),
            w("ban", "V"): denotation(t(SUBJ="Canada", COMP="Thalidomide")),
        }
    )
    tree = DcsTree((w("drug"), w("ban", "V")), 0, (Edge(0, 1, ARG, COMP),))
    return tree, db


def test_banned_drugs_denotation():
    tree, db = banned_drugs_world()
    assert denotation_of_tree(tree, db) == denotation(t(ARG="Thalidomide"))


def test_single_node_denotation_is_db_entry():
    db = Database({w("drug"): denotation(t(ARG="Aspirin"))})
    tree = DcsTree((w("drug"),), 0, ())
    assert denotation_of_tree(tree, db) == db.entries[w("drug")]


def test_unknown_word_raises():
    tree = DcsTree((w("ghost"),), 0, ())
    with pytest.raises(UnknownWord):
        denotation_of_tree(tree, Database({}))


def test_sell_tree_matches_brute_force():
    # sell with a SUBJ child (man) and a COMP child (banned-drug subtree)
    words = (w("man"), w("sell", "V"), w("drug"), w("ban", "V"))
    tree = DcsTree(
        words,
        1,
        (Edge(1, 0, SUBJ, ARG), Edge(1, 2, COMP, ARG), Edge(2, 3, ARG, COMP)),
    )
    db = Database(
        {
            w("man"): denotation(t(ARG="John"), t(ARG="Bob")),
            w("drug"): denotation(t(ARG="Aspirin"), t(ARG="Thalidomide")),
            w("ban", "V"): denotation(t(SUBJ="Canada", COMP="Thalidomide")),
            w("sell", "V"): denotation(
                t(SUBJ="John", COMP="Aspirin"),
                t(SUBJ="John", COMP="Thalidomide"),
                t(SUBJ="Mary", COMP="Thalidomide"),
            ),
        }
    )
    expected = brute_force_denotation(tree, db)
    assert denotation_of_tree(tree, db) == expected
    assert expected == denotation(t(SUBJ="John", COMP="Thalidomide"))


def test_path_denotation_kid_play():
    db = Database(
        {
            w("kid"): denotation(t(ARG="Ann")),
            w("play", "V"): denotation(t(SUBJ="Ann")),
        }
    )
    tree = DcsTree((w("kid"), w("play", "V")), 1, (Edge(1, 0, SUBJ, ARG),))
    path = tree_path(tree, 0, 1)
    assert path_denotation(path, tree, db) == denotation(t(SUBJ="Ann"))


def test_path_denotation_disjoint_values_empty():
    db = Database(
        {
            w("kid"): denotation(t(ARG="Ann")),
            w("play", "V"): denotation(t(SUBJ="Bob")),
        }
    )
    tree = DcsTree((w("kid"), w("play", "V")), 1, (Edge(1, 0, SUBJ, ARG),))
    assert path_denotation(tree_path(tree, 0, 1), tree, db) == frozenset()


def test_random_paths_match_brute_force_chains():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(60):
        tree = random_tree(rng, int(rng.integers(2, 6)))
        db = random_db_for_tree(rng, tree)
        for path in enumerate_paths(tree):
            got = path_denotation(path, tree, db)
            assert got == brute_force_path(tree, db, path.start, path.end)
            checked += 1
    assert checked > 200


def test_projection_of_intersection_is_contained():
    rng = np.random.default_rng(11)
    for _ in range(100):
        size = int(rng.integers(1, 21))
        pool = [
            t(**{ARG: str(rng.integers(4)), SUBJ: str(rng.integers(4))}) for _ in range(size)
        ]
        half = int(rng.integers(1, size + 1))
        a = frozenset(pool[:half])
        b = frozenset(pool[int(rng.integers(size)) :])
        if not b:
            continue
        for f in (ARG, SUBJ):
            assert project(a & b, f) <= (project(a, f) & project(b, f))


def test_nonempty_tree_denotation_implies_nonempty_paths():
    rng = np.random.default_rng(12)
    nonempty_seen = 0
    for _ in range(80):
        tree = random_tree(rng, int(rng.integers(2, 6)))
        db = random_db_for_tree(rng, tree)
        if not denotation_of_tree(tree, db):
            continue
        nonempty_seen += 1
        for path in enumerate_paths(tree):
            assert path_denotation(path, tree, db), (
                f"empty chain for path {path.start}->{path.end} despite "
                f"non-empty tree denotation"
            )
    assert nonempty_seen >= 10


def recursive_denotation_of_tree(tree, db):
    """The recursive composition `denotation_of_tree` replaced, kept as its
    oracle: each node looked up, then each child composed and projected in
    `child_edges` order."""

    def eval_node(node):
        den = db.lookup(tree.words[node])
        for e in tree.child_edges(node):
            child_values = frozenset(
                v for tup in eval_node(e.child) if (v := tup.get(e.child_field)) is not None
            )
            den = restrict_by_child(den, e.parent_field, child_values)
        return den

    return eval_node(tree.root)


def test_denotation_of_tree_matches_the_recursion_on_random_trees():
    """Equal denotations on random trees and databases, and, with some
    words left out of the database, the same first `UnknownWord`."""
    rng = np.random.default_rng(91)
    compared = unknown = 0
    for _ in range(300):
        tree = random_tree(rng, int(rng.integers(1, 30)), int(rng.integers(2, 8)))
        db = random_db_for_tree(rng, tree)
        assert denotation_of_tree(tree, db) == recursive_denotation_of_tree(tree, db)
        compared += 1
        words = sorted(db.entries, key=Word.render)
        dropped = {words[int(i)] for i in rng.integers(len(words), size=2)}
        partial = Database({word: den for word, den in db.entries.items() if word not in dropped})
        with pytest.raises(UnknownWord) as want:
            recursive_denotation_of_tree(tree, partial)
        with pytest.raises(UnknownWord) as got:
            denotation_of_tree(tree, partial)
        assert str(got.value) == str(want.value)
        unknown += 1
    assert compared == unknown == 300


def test_a_tree_deeper_than_the_recursion_limit_has_a_denotation():
    """A 1,200-node chain, each node the ARG:SUBJ child of the one before,
    composes: every tuple agrees, so the root keeps its own; one
    disagreeing leaf empties the chain."""
    n = 1200
    tree = DcsTree(tuple(w(f"w{i % 3}") for i in range(n)), 0,
                   tuple(Edge(i - 1, i, ARG, SUBJ) for i in range(1, n)))
    agreeing = {w(f"w{i}"): denotation(t(ARG="a", SUBJ="a")) for i in range(3)}
    assert denotation_of_tree(tree, Database(agreeing)) == denotation(t(ARG="a", SUBJ="a"))
    leaf = DcsTree(tree.words[:-1] + (w("leaf"),), 0, tree.edges)
    disagreeing = {**agreeing, w("leaf"): denotation(t(ARG="b", SUBJ="b"))}
    assert denotation_of_tree(leaf, Database(disagreeing)) == frozenset()
