from fractions import Fraction

import numpy as np
import pytest

from dcsvec.errors import MalformedLine
from dcsvec.trees import (
    ARG,
    COMP,
    SUBJ,
    DcsTree,
    Edge,
    TreePath,
    Word,
    enumerate_paths,
    exact_path_weight,
    extract_subtree,
    hop_fields,
    lca,
    path_nodes,
    read_trees,
    reroot,
    tree_to_line,
    tree_path,
)
from helpers import random_tree


def w(lemma, pos="N"):
    return Word(lemma, pos)


def chain(*lemmas):
    words = tuple(w(x) for x in lemmas)
    edges = tuple(Edge(i, i + 1, ARG, ARG) for i in range(len(lemmas) - 1))
    return DcsTree(words, 0, edges)


def test_word_render_and_parse():
    word = Word("drug", "N")
    assert word.render() == "drug/N"
    assert Word.parse("drug/N") == word
    assert Word.parse("1/2/N") == Word("1/2", "N")


def test_word_rejects_bad_input():
    with pytest.raises(ValueError):
        Word("", "N")
    with pytest.raises(ValueError):
        Word("dog", "NOUN")
    with pytest.raises(ValueError):
        Word.parse("nopos")


def test_tree_validation():
    words = (w("a"), w("b"), w("c"))
    with pytest.raises(ValueError):
        DcsTree(words, 5, (Edge(0, 1, ARG, ARG), Edge(0, 2, ARG, ARG)))
    with pytest.raises(ValueError):  # wrong edge count
        DcsTree(words, 0, (Edge(0, 1, ARG, ARG),))
    with pytest.raises(ValueError):  # duplicate parent
        DcsTree(words, 0, (Edge(0, 1, ARG, ARG), Edge(2, 1, ARG, ARG)))
    with pytest.raises(ValueError):  # edge into the root
        DcsTree(words, 0, (Edge(1, 0, ARG, ARG), Edge(1, 2, ARG, ARG)))
    with pytest.raises(ValueError):  # disconnected (self-contained pair)
        DcsTree(words, 0, (Edge(0, 1, ARG, ARG), Edge(2, 2, ARG, ARG)))


def test_two_node_tree_has_two_unit_paths():
    tree = DcsTree((w("drug"), w("ban", "V")), 0, (Edge(0, 1, ARG, COMP),))
    paths = enumerate_paths(tree)
    assert len(paths) == 2
    assert all(p.weight == 1.0 for p in paths)
    by_ends = {(p.start, p.end): p for p in paths}
    assert by_ends[(0, 1)].hops == ((ARG, COMP),)
    assert by_ends[(1, 0)].hops == ((COMP, ARG),)


def test_star_leaf_to_leaf_weight_is_half():
    words = (w("c", "V"), w("a"), w("b"), w("d"))
    star = DcsTree(
        words, 0, (Edge(0, 1, SUBJ, ARG), Edge(0, 2, COMP, ARG), Edge(0, 3, "in", ARG))
    )
    p = tree_path(star, 1, 2)
    assert p.weight == 0.5
    assert p.hops == ((ARG, SUBJ), (COMP, ARG))


def test_chain_weight_stays_one():
    tree = chain("a", "b", "c", "d")
    assert tree_path(tree, 0, 3).weight == 1.0


def test_path_count_and_reversal_weight():
    rng = np.random.default_rng(0)
    for _ in range(30):
        tree = random_tree(rng, int(rng.integers(2, 9)))
        paths = enumerate_paths(tree)
        n = tree.n_nodes
        assert len(paths) == n * (n - 1)
        weights = {(p.start, p.end): p.weight for p in paths}
        for (a, b), wt in weights.items():
            assert weights[(b, a)] == wt


def test_exact_weights_are_rational():
    words = tuple(w(x) for x in "cabde")
    star = DcsTree(
        words,
        0,
        (
            Edge(0, 1, ARG, ARG),
            Edge(0, 2, ARG, ARG),
            Edge(0, 3, ARG, ARG),
            Edge(0, 4, ARG, ARG),
        ),
    )
    assert exact_path_weight(star, path_nodes(star, 1, 2)) == Fraction(1, 3)


def test_treepath_invariants():
    with pytest.raises(ValueError):
        TreePath(0, 1, (), 1.0)
    with pytest.raises(ValueError):
        TreePath(0, 1, ((ARG, ARG),), 0.0)
    with pytest.raises(ValueError):
        TreePath(0, 1, ((ARG, ARG),), 1.5)


def test_reroot_identity_and_involution():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 9)))
        assert reroot(tree, tree.root) == tree
        other = int(rng.integers(tree.n_nodes))
        assert reroot(reroot(tree, other), tree.root) == tree


def test_reroot_preserves_edge_descriptors():
    rng = np.random.default_rng(2)

    def descriptors(tree):
        out = []
        for e in tree.edges:
            ends = sorted(
                [
                    (tree.words[e.parent], e.parent_field),
                    (tree.words[e.child], e.child_field),
                ]
            )
            out.append(tuple(ends))
        return sorted(out)

    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 9)))
        new_root = int(rng.integers(tree.n_nodes))
        assert descriptors(reroot(tree, new_root)) == descriptors(tree)


def test_reroot_swaps_fields_on_the_moved_edge():
    # "smoke cause delay": cause/V root, smoke and delay as children
    words = (w("cause", "V"), w("smoke"), w("delay"))
    tree = DcsTree(words, 0, (Edge(0, 1, SUBJ, ARG), Edge(0, 2, COMP, ARG)))
    moved = reroot(tree, 1)
    assert moved.root == 1
    assert Edge(1, 0, ARG, SUBJ) in moved.edges  # smoke now above cause, fields swapped
    assert Edge(0, 2, COMP, ARG) in moved.edges  # delay edge untouched


def test_lca_and_subtree():
    #       0
    #     1   2
    #    3 4
    words = tuple(w(x) for x in "abcde")
    tree = DcsTree(
        words,
        0,
        (
            Edge(0, 1, ARG, ARG),
            Edge(0, 2, SUBJ, ARG),
            Edge(1, 3, COMP, ARG),
            Edge(1, 4, "of", ARG),
        ),
    )
    assert lca(tree, 3, 4) == 1
    assert lca(tree, 3, 2) == 0
    assert lca(tree, 1, 3) == 1  # ancestor case
    sub, remap = extract_subtree(tree, 1)
    assert sub.n_nodes == 3
    assert sub.words[sub.root] == words[1]
    assert {sub.words[e.child] for e in sub.edges} == {words[3], words[4]}
    assert remap[1] == sub.root


def test_hop_fields_orientation():
    tree = DcsTree((w("p", "V"), w("c")), 0, (Edge(0, 1, SUBJ, ARG),))
    assert hop_fields(tree, 0, 1) == (SUBJ, ARG)
    assert hop_fields(tree, 1, 0) == (ARG, SUBJ)


def read_line(line):
    (tree,) = read_trees([line + "\n"])
    return tree


def test_line_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        tree = random_tree(rng, int(rng.integers(1, 9)))
        assert read_line(tree_to_line(tree)) == tree


def test_line_roundtrip_single_node():
    tree = DcsTree((w("alone"),), 0, ())
    line = tree_to_line(tree)
    assert line == "0\talone/N\t"
    assert read_line(line) == tree


def test_malformed_lines_carry_line_numbers():
    good = tree_to_line(DcsTree((w("alone"),), 0, ())) + "\n"
    with pytest.raises(MalformedLine) as err:
        list(read_trees([good] * 6 + ["0\tonly two columns\n"]))
    assert err.value.line_no == 7 and "line 7" in str(err.value)
    with pytest.raises(MalformedLine):
        read_line("x\ta/N b/N\t0:1:ARG:ARG")
    with pytest.raises(MalformedLine):
        read_line("0\ta/N b/N\t0:1:ARG")  # short edge descriptor
