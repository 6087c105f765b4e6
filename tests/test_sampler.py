import math

import numpy as np

import worldgen
from dcsvec.trees import (
    ARG,
    SUBJ,
    UNKNOWN_FIELD,
    DcsTree,
    Edge,
    Word,
    hop_fields,
    unknown_word,
)
from dcsvec.ud import convert_sentence, parse_conllu_file
from dcsvec.vocab import _walk_trajectories, build_vocab, sample_paths
from helpers import enumerate_paths, random_tree, reroot, sample_path_counts


def w(lemma, pos="N"):
    return Word(lemma, pos)


def identity_vocab(trees):
    return build_vocab(trees, 1, 1)


def by_name(samples, vocab):
    """(start word, end word, hops of field names) of each id sample."""
    f = vocab.fields
    return [
        (vocab.words[s.start], vocab.words[s.end], tuple((f[a], f[b]) for a, b in s.hops))
        for s in samples
    ]


def name_sample_paths(tree, vocab, rng):
    """Slow-path oracle: the name-based sampler, which applied the
    placeholder rule by name to both end words and each hop's fields of
    every emitted path."""

    def map_word(word):
        return word if word in vocab.word_index else unknown_word(word.pos)

    def map_field(f):
        return f if f in vocab.field_index else UNKNOWN_FIELD

    if tree.n_nodes < 2:
        return []
    out = []
    for row in _walk_trajectories(tree, 1, rng):
        start = int(row[0])
        hops = []
        node = start
        for col in range(1, len(row)):
            nxt = int(row[col])
            if nxt < 0:
                break
            near, far = hop_fields(tree, node, nxt)
            hops.append((map_field(near), map_field(far)))
            out.append((map_word(tree.words[start]), map_word(tree.words[nxt]), tuple(hops)))
            node = nxt
    return out


def assert_sampler_matches_name_oracle(trees, vocab, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    emitted = []
    for tree in trees:
        got = by_name(sample_paths(tree, vocab, fast), vocab)
        assert got == name_sample_paths(tree, vocab, slow)
        emitted += got
    assert fast.random() == slow.random()  # the same draws, in the same order
    # placeholders were exercised on both sides of the index
    assert any(word.lemma == unknown_word("N").lemma for s in emitted for word in s[:2])
    assert any(f == UNKNOWN_FIELD for s in emitted for hop in s[2] for f in hop)


def test_sampler_matches_name_oracle_on_worldgen_trees(tmp_path):
    worldgen.generate_corpus(tmp_path / "corpus.conllu", 400, seed=11)
    convs = (convert_sentence(s) for s in parse_conllu_file(tmp_path / "corpus.conllu"))
    trees = [c.tree for c in convs if c is not None]
    # the vocabulary sees half the corpus: rare and unseen words and
    # prepositions in the other half fall to placeholders
    vocab = build_vocab(trees[:200], word_min=5, prep_min=20)
    assert_sampler_matches_name_oracle(trees, vocab, seed=12)


def test_sampler_matches_name_oracle_on_random_trees():
    rng = np.random.default_rng(13)
    trees = [random_tree(rng, int(rng.integers(1, 9)), 40) for _ in range(120)]
    vocab = build_vocab(trees[:60], word_min=2, prep_min=490)  # "of" falls, "in" and "on" stay
    assert_sampler_matches_name_oracle(trees, vocab, seed=14)


def pos_table_walk_trajectories(tree, epochs, rng):
    """Slow-path oracle: the walk kernel reading each walk's entry slot
    from an n x n table of neighbour positions built in Python loops,
    with adjacency rows padded by -1."""
    n = tree.n_nodes
    deg = np.array([tree.degree(i) for i in range(n)], dtype=np.int64)
    adj = np.full((n, int(deg.max())), -1, dtype=np.int64)
    pos_in_adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for slot, nb in enumerate(tree.neighbors(i)):
            adj[i, slot] = nb
            pos_in_adj[i, nb] = slot
    starts = np.array(
        [(e.parent, e.child) for e in tree.edges] + [(e.child, e.parent) for e in tree.edges],
        dtype=np.int64,
    )
    n_walks = len(starts) * epochs
    traj = np.full((n_walks, n), -1, dtype=np.int64)
    traj[:, 0] = prev = np.tile(starts[:, 0], epochs)
    traj[:, 1] = cur = np.tile(starts[:, 1], epochs)
    alive = np.arange(n_walks)
    for col in range(2, n):
        keep = deg[cur] >= 2
        alive = alive[keep]
        if alive.size == 0:
            break
        cur, prev = cur[keep], prev[keep]
        r = rng.integers(0, deg[cur] - 1)
        r = r + (r >= pos_in_adj[cur, prev])
        nxt = adj[cur, r]
        traj[alive, col] = nxt
        prev, cur = cur, nxt
    return traj


def star(n, center):
    edges = tuple(Edge(center, i, ARG, ARG) for i in range(n) if i != center)
    return DcsTree(tuple(w(f"s{i}") for i in range(n)), center, edges)


def chain(n, root):
    """Path graph 0-1-...-(n-1) rooted at ``root``."""
    edges = tuple(Edge(i, i + 1, ARG, SUBJ) for i in range(n - 1))
    return reroot(DcsTree(tuple(w(f"c{i}") for i in range(n)), 0, edges), root)


def test_walk_kernel_matches_the_position_table_oracle():
    rng = np.random.default_rng(15)
    trees = [random_tree(rng, int(rng.integers(1, 13))) for _ in range(150)]
    trees += [reroot(t, int(rng.integers(t.n_nodes))) for t in trees[:50]]
    trees += [star(n, c) for n in (2, 3, 6, 11) for c in {0, n // 2, n - 1}]
    trees += [chain(n, r) for n in (2, 3, 7, 12) for r in {0, n // 2, n - 1}]
    for seed, tree in enumerate(trees):
        if tree.n_nodes < 2:
            continue
        for epochs in (1, 3):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _walk_trajectories(tree, epochs, fast)
            assert np.array_equal(got, pos_table_walk_trajectories(tree, epochs, slow))
            assert fast.random() == slow.random()


def test_two_node_tree_emits_exactly_both_paths():
    tree = DcsTree((w("kid"), w("play", "V")), 1, (Edge(1, 0, SUBJ, ARG),))
    vocab = identity_vocab([tree])
    rng = np.random.default_rng(0)
    for _ in range(20):
        samples = by_name(sample_paths(tree, vocab, rng), vocab)
        assert len(samples) == 2
        assert {(start.render(), end.render()) for start, end, _ in samples} == {
            ("play/V", "kid/N"),
            ("kid/N", "play/V"),
        }
        assert all(hops in (((SUBJ, ARG),), ((ARG, SUBJ),)) for _, _, hops in samples)


def test_star_leaf_to_leaf_expectation_half():
    star = DcsTree(
        (w("c", "V"), w("a"), w("b"), w("d")),
        0,
        (Edge(0, 1, ARG, ARG), Edge(0, 2, ARG, ARG), Edge(0, 3, ARG, ARG)),
    )
    rng = np.random.default_rng(1)
    n = 50000
    counts = sample_path_counts(star, rng, n)
    assert abs(counts[1, 2] / n - 0.5) < 0.01


def test_counting_kernel_agrees_with_sample_paths():
    star = DcsTree(
        (w("c", "V"), w("a"), w("b"), w("d")),
        0,
        (Edge(0, 1, ARG, ARG), Edge(0, 2, ARG, ARG), Edge(0, 3, ARG, ARG)),
    )
    vocab = identity_vocab([star])
    rng = np.random.default_rng(2)
    n = 20000
    counts = np.zeros((4, 4))
    index = {vocab.word_id(word): i for i, word in enumerate(star.words)}
    for _ in range(n):
        for s in sample_paths(star, vocab, rng):
            counts[index[s.start], index[s.end]] += 1
    assert abs(counts[1, 2] / n - 0.5) < 3 * math.sqrt(0.25 / n)
    assert counts[0, 1] == n  # single-edge paths fire every epoch


def test_monte_carlo_matches_exact_weights_on_random_trees():
    rng = np.random.default_rng(3)
    epochs = 100000
    bad = total = 0
    for _ in range(8):
        tree = random_tree(rng, 8)
        counts = sample_path_counts(tree, rng, epochs)
        for path in enumerate_paths(tree):
            p_hat = counts[path.start, path.end] / epochs
            se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / epochs)
            total += 1
            if abs(p_hat - path.weight) > 3 * se:
                bad += 1
    assert bad / total <= 0.01


def test_emission_counts_bounded_per_epoch():
    rng = np.random.default_rng(4)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 9)))
        vocab = identity_vocab([tree])
        samples = sample_paths(tree, vocab, rng)
        n_edges = 2 * (tree.n_nodes - 1)
        assert n_edges <= len(samples) <= n_edges * (tree.n_nodes - 1)


def test_sampled_paths_are_simple_and_valid():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 7)
    vocab = identity_vocab([tree])
    exact = {(p.start, p.end): p.hops for p in enumerate_paths(tree)}
    for start, end, sampled_hops in by_name(sample_paths(tree, vocab, rng), vocab):
        # words may repeat across nodes; resolve via hop structure instead
        assert any(
            sampled_hops == hops
            and tree.words[a] == start
            and tree.words[b] == end
            for (a, b), hops in exact.items()
        )


def test_unknown_substitution_keeps_structure():
    tree = DcsTree((w("rareword"), w("play", "V")), 1, (Edge(1, 0, "beneath", ARG),))
    vocab = build_vocab([tree], word_min=100, prep_min=100)
    rng = np.random.default_rng(6)
    samples = by_name(sample_paths(tree, vocab, rng), vocab)
    assert len(samples) == 2
    for start, _, hops in samples:
        assert start in (unknown_word("N"), unknown_word("V"))
        assert all(f in ("*UNKNOWN*", ARG) for hop in hops for f in hop)
        assert len(hops) == 1
