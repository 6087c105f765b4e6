"""Shared generators and brute-force oracles for the test suite.

The oracles deliberately avoid the package's evaluation code paths:
denotations are checked by enumerating full tuple assignments, path
chains by enumerating tuple sequences, and compositions from any node
by building the re-rooted subtree and composing it over child edges.
"""

import itertools

import numpy as np

from dcsvec.evaluate import CompletionItem
from dcsvec.logic import Database, DbTuple
from dcsvec.model import init_params
from dcsvec.train import NoisedExample, TrainConfig, loss_and_gradients
from dcsvec.trees import ARG, COMP, SUBJ, DcsTree, Edge, Word, hop_fields, path_nodes
from dcsvec.ud import UdSentence, UdToken
from dcsvec.vocab import PathSample, Vocabulary, _walk_trajectories

POS_CHOICES = ("N", "V", "J")
FIELD_CHOICES = (ARG, SUBJ, COMP, "in", "on", "of")
VALUES = ("a", "b", "c", "d")


def random_tree(rng: np.random.Generator, n_nodes: int, n_words: int | None = None) -> DcsTree:
    """Random recursive tree: node i attaches to a uniform earlier node."""
    assert n_nodes >= 1
    lemmas = [f"w{i}" for i in range(n_words or n_nodes)]
    words = tuple(
        Word(lemmas[int(rng.integers(len(lemmas)))], POS_CHOICES[int(rng.integers(3))])
        for _ in range(n_nodes)
    )
    edges = []
    for child in range(1, n_nodes):
        parent = int(rng.integers(child))
        pf = FIELD_CHOICES[int(rng.integers(len(FIELD_CHOICES)))]
        lf = FIELD_CHOICES[int(rng.integers(len(FIELD_CHOICES)))]
        edges.append(Edge(parent, child, pf, lf))
    return DcsTree(words, 0, tuple(edges))


def random_tree_model(rng: np.random.Generator, dim: int = 4):
    """A float32 model over every word and field ``random_tree`` draws
    with ``n_words=6``."""
    words = tuple(Word(f"w{i}", pos) for i in range(6) for pos in POS_CHOICES)
    return init_params(
        Vocabulary(words, FIELD_CHOICES, dict.fromkeys(words, 1.0), dict.fromkeys(FIELD_CHOICES, 1.0)), dim, rng
    )


def random_db_for_tree(
    rng: np.random.Generator,
    tree: DcsTree,
    max_tuples_per_word: int = 4,
    field_drop: float = 0.1,
) -> Database:
    """Toy database whose tuples mostly carry the fields the tree needs,
    with occasional gaps to exercise lenient filtering."""
    needed: dict[Word, set] = {w: {ARG} for w in set(tree.words)}
    for e in tree.edges:
        needed[tree.words[e.parent]].add(e.parent_field)
        needed[tree.words[e.child]].add(e.child_field)
    entries = {}
    for word, fields in needed.items():
        tuples = []
        for _ in range(int(rng.integers(1, max_tuples_per_word + 1))):
            assign = {}
            for f in sorted(fields):
                if rng.random() >= field_drop:
                    assign[f] = VALUES[int(rng.integers(len(VALUES)))]
            if not assign:
                assign[ARG] = VALUES[int(rng.integers(len(VALUES)))]
            tuples.append(DbTuple.of(assign))
        entries[word] = frozenset(tuples)
    return Database(entries)


def brute_force_denotation(tree: DcsTree, db: Database) -> frozenset:
    """Enumerate every per-node tuple assignment; keep root tuples of the
    assignments where both edge fields exist and agree on every edge."""
    candidates = [
        sorted(db.entries[tree.words[i]], key=lambda t: t.items) for i in range(tree.n_nodes)
    ]
    out = set()
    for assignment in itertools.product(*candidates):
        ok = True
        for e in tree.edges:
            vp = assignment[e.parent].get(e.parent_field)
            vc = assignment[e.child].get(e.child_field)
            if vp is None or vc is None or vp != vc:
                ok = False
                break
        if ok:
            out.add(assignment[tree.root])
    return frozenset(out)


def brute_force_path(tree: DcsTree, db: Database, start: int, end: int) -> frozenset:
    """Enumerate tuple sequences along the path; adjacent tuples must
    agree near-field to far-field.  Returns the reachable end tuples."""
    nodes = path_nodes(tree, start, end)
    hops = [hop_fields(tree, a, b) for a, b in zip(nodes, nodes[1:])]
    results = set()

    def extend(j: int, t: DbTuple) -> None:
        if j == len(hops):
            results.add(t)
            return
        near, far = hops[j]
        v = t.get(near)
        if v is None:
            return
        for t2 in db.entries[tree.words[nodes[j + 1]]]:
            if t2.get(far) == v:
                extend(j + 1, t2)

    for t in db.entries[tree.words[nodes[0]]]:
        extend(0, t)
    return frozenset(results)


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def id_example(vocab, start, end, hops, *noises):
    """A training example written by name, as the row ids the trainer takes:
    the path start -> end over (near, far) field hops, and one noise per
    (i, fields, word) triple.  Every name must be in ``vocab``."""
    pos = PathSample(
        vocab.word_id(start),
        vocab.word_id(end),
        tuple((vocab.field_id(near), vocab.field_id(far)) for near, far in hops),
    )
    return pos, [
        NoisedExample(i, tuple(vocab.field_id(f) for f in fields), vocab.word_id(word))
        for i, fields, word in noises
    ]


def updated_maps(pos, noises, mode) -> set:
    """Each map a step on this example updates, once, as (field row,
    is_inverse), by the rule stated for `loss_and_gradients`: per noise
    that redraws a map (its first replaced slot ri = i - 1 lies on the
    path), the positive-path maps at slots ri - 1 and ri, and the noise's
    own map at ri.  Slot 2t holds M[near], 2t+1 Minv[far]; `no_matrix`
    has no slot."""
    slots = [] if mode == "no_matrix" else [
        slot for near, far in pos.hops for slot in ((near, False), (far, True))
    ]
    maps = set()
    for noise in noises:
        ri = noise.i - 1
        if ri < len(slots) and noise.fields:
            maps.update((slots[ri - 1], slots[ri], (noise.fields[0], slots[ri][1])))
    return maps


def gradient_dict(result) -> dict:
    """A `loss_and_gradients` result's gradients as one dict: each vector
    gradient, then each map's factors as (forward row, column) pairs."""
    _, vectors, maps, rows = result
    return {**vectors, **{key: [(rows[j], c) for j, c in pairs] for key, pairs in maps.items()}}


def dense_gradient(g) -> np.ndarray:
    """A gradient as `gradient_dict` gives it, made dense: a vector as it
    is, a map's (row, column) factors as the sum of their outer
    products."""
    if isinstance(g, np.ndarray):
        return g
    return sum(r[:, None] * c[None, :] for r, c in g)


def nce_loss(params, pos, noises) -> float:
    """-log sigmoid(s+) - sum over noises of log sigmoid(-s-): the loss
    `loss_and_gradients` returns."""
    return loss_and_gradients(params, pos, noises, TrainConfig())[0]


def path_matrix(params, hops, strict=True) -> np.ndarray:
    """Product over (near, far) hops, from the start side: M[near] @ Minv[far]."""
    if not hops:
        raise ValueError("need at least one hop")
    A = np.eye(params.dim, dtype=np.float64)
    for near, far in hops:
        A = A @ params.M[params.vocab.field_id(near, strict)]
        A = A @ params.Minv[params.vocab.field_id(far, strict)]
    return A


def sample_path_counts(tree, rng, epochs, chunk=20000) -> np.ndarray:
    """Emission counts per ordered node pair over many sampling epochs.

    Shares the walk kernel with ``sample_paths``; entry [a, b] counts how
    often the path a->b was emitted in total.
    """
    n = tree.n_nodes
    counts = np.zeros(n * n, dtype=np.int64)
    done = 0
    while done < epochs:
        batch = min(chunk, epochs - done)
        traj = _walk_trajectories(tree, batch, rng)
        base = traj[:, 0] * n
        for col in range(1, n):
            nodes = traj[:, col]
            valid = nodes >= 0
            if not valid.any():
                break
            counts += np.bincount(base[valid] + nodes[valid], minlength=n * n)
        done += batch
    return counts.reshape(n, n)


def reroot(tree: DcsTree, new_root: int) -> DcsTree:
    """Same undirected labelled tree with edges on the old-root path
    reversed (parent/child and their fields swapped)."""
    if not 0 <= new_root < tree.n_nodes:
        raise ValueError("new root out of range")
    if new_root == tree.root:
        return tree
    edges = []
    seen = {new_root}
    stack = [new_root]
    while stack:
        node = stack.pop()
        for nb in tree.neighbors(node):
            if nb in seen:
                continue
            seen.add(nb)
            old = tree.parent_edge(nb)
            if old is not None and old.parent == node:
                edges.append(old)
            else:
                old = tree.parent_edge(node)
                edges.append(Edge(node, nb, old.child_field, old.parent_field))
            stack.append(nb)
    return DcsTree(tree.words, new_root, tuple(edges))


def extract_subtree(tree: DcsTree, node: int) -> tuple[DcsTree, dict[int, int]]:
    """Subtree rooted at ``node``; returns it plus the old->new index map."""
    order = [node]
    stack = [node]
    while stack:
        for e in tree.child_edges(stack.pop()):
            order.append(e.child)
            stack.append(e.child)
    order.sort()
    remap = {old: new for new, old in enumerate(order)}
    words = tuple(tree.words[old] for old in order)
    edges = tuple(
        Edge(remap[e.parent], remap[e.child], e.parent_field, e.child_field)
        for old in order
        for e in tree.child_edges(old)
    )
    return DcsTree(words, remap[node], edges), remap


def child_edge_compose(params, tree: DcsTree, strict: bool = True, node: int | None = None) -> np.ndarray:
    """Query vector of the subtree rooted at ``node`` (default the root),
    composed over child edges: the word vector plus the averaged child
    query vectors, each mapped through M[child_field] @ Minv[parent_field]."""
    node = tree.root if node is None else node
    q = params.V[params.vocab.word_id(tree.words[node], strict)].astype(np.float64)
    children = tree.child_edges(node)
    if children:
        acc = np.zeros(params.dim, dtype=np.float64)
        for e in children:
            sub = child_edge_compose(params, tree, strict, e.child)
            sub = sub @ params.M[params.vocab.field_id(e.child_field, strict)]
            sub = sub @ params.Minv[params.vocab.field_id(e.parent_field, strict)]
            acc += sub
        q = q + acc / len(children)
    return q


def long_completion_item(rng, n_nouns):
    """A verb with subject and object, grown by adjectives and
    prepositional noun phrases on random nouns; the blank is a noun."""
    tokens = []

    def add(lemma, upos, head, deprel):
        tokens.append(UdToken(len(tokens) + 1, lemma, lemma, upos, head, deprel))
        return len(tokens)

    nouns_pool = ("farmer", "bread", "car", "dog", "piano", "barn")
    verb = add("eat", "VERB", 0, "root")
    nouns = [add("farmer", "NOUN", verb, "nsubj"), add("bread", "NOUN", verb, "obj")]
    while len(nouns) < n_nouns:
        anchor = nouns[int(rng.integers(len(nouns)))]
        if rng.random() < 0.3:
            add("big", "ADJ", anchor, "amod")
        else:
            pp = add(nouns_pool[int(rng.integers(len(nouns_pool)))], "NOUN", anchor, "nmod")
            add("of", "ADP", pp, "case")
            nouns.append(pp)
    blank = nouns[int(rng.integers(len(nouns)))]
    return CompletionItem(
        UdSentence(tuple(tokens)), blank, tuple(Word(x, "N") for x in nouns_pool[1:]), 0
    )
