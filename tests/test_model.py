import gc
import io
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dcsvec.errors import (
    BadMagic,
    DimensionMismatch,
    InvalidConfig,
    TruncatedFile,
    UnknownField,
    UnknownWord,
    ZeroNorm,
)
import dcsvec.model as model_mod
from dcsvec import cli
from dcsvec.evaluate import RelationInstance, relation_features
from dcsvec.model import (
    ModelParams,
    compose_query,
    identity_maps,
    init_params,
    load_model,
    nearest_answers,
    normalize,
    path_score,
    save_model,
)
from dcsvec.trees import ARG, COMP, POS_TAGS, SUBJ, DcsTree, Edge, Word, save_trees, unknown_word
from dcsvec.vocab import Vocabulary
from helpers import child_edge_compose, extract_subtree, path_matrix, random_tree, random_tree_model, reroot


def w(lemma, pos="N"):
    return Word(lemma, pos)


def make_vocab(n_words=6, fields=(ARG, SUBJ, COMP, "of")):
    words = tuple(w(f"w{i}") for i in range(n_words)) + tuple(
        unknown_word(pos) for pos in ("N", "V", "J", "P", "R", "X")
    )
    counts = {word: 1.0 for word in words[:n_words]}
    return Vocabulary(
        words=words,
        fields=tuple(fields),
        word_counts=counts,
        field_counts={f: 1.0 for f in fields},
    )


def vocab_of(words, fields):
    return Vocabulary(tuple(words), tuple(fields), dict.fromkeys(words, 1.0), dict.fromkeys(fields, 1.0))


def make_params(rng, dim=4, n_words=6, dtype=np.float64, scale=0.5):
    return ModelParams(
        dim,
        vocab_of([w(f"w{i}") for i in range(n_words)], (ARG, SUBJ, COMP, "of")),
        (rng.standard_normal((n_words, dim)) * scale).astype(dtype),
        (rng.standard_normal((n_words, dim)) * scale).astype(dtype),
        (np.eye(dim) + rng.standard_normal((4, dim, dim)) * scale).astype(dtype),
        (np.eye(dim) + rng.standard_normal((4, dim, dim)) * scale).astype(dtype),
    )


def test_init_matrix_mean_is_half_identity():
    vocab = make_vocab(n_words=2, fields=(ARG,))
    rng = np.random.default_rng(0)
    d = 4
    diag_sum = 0.0
    off_sum = 0.0
    n = 10**4
    for _ in range(n):
        params = init_params(vocab, d, rng)
        m = params.M[0]
        diag_sum += float(np.trace(m)) / d
        off_sum += float(m.sum() - np.trace(m)) / (d * d - d)
    assert abs(diag_sum / n - 0.5) < 0.01
    assert abs(off_sum / n) < 0.01


def test_init_inverse_is_exact_transpose():
    vocab = make_vocab()
    params = init_params(vocab, 8, np.random.default_rng(1))
    for i in range(len(params.fields)):
        assert np.array_equal(params.Minv[i], params.M[i].T)


def out_of_place_init_params(vocab, dim, rng, dtype=np.float32):
    """`init_params` as one expression per table, a fresh array per operation."""
    n, m = vocab.n_words, vocab.n_fields
    scale = dim ** -0.5
    V = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    U = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    G = rng.standard_normal((m, dim, dim)) * scale
    M = ((np.eye(dim) + G) / 2.0).astype(dtype)
    return V, U, M, np.transpose(M, (0, 2, 1)).copy()


@pytest.mark.parametrize("n_fields, dim, seed", [(1, 2, 0), (4, 25, 1), (3, 250, 7), (9, 7, 3), (6, 100, 814)])
def test_init_params_writes_the_bytes_of_the_out_of_place_expression(n_fields, dim, seed):
    fields = tuple(f"f{i}" for i in range(n_fields))
    vocab = vocab_of([w(f"w{i}") for i in range(11)], fields)
    for dtype in (np.float32, np.float64):
        params = init_params(vocab, dim, np.random.default_rng(seed), dtype=dtype)
        want = out_of_place_init_params(vocab, dim, np.random.default_rng(seed), dtype)
        for name, table in zip(("V", "U", "M", "Minv"), want):
            got = getattr(params, name)
            assert got.dtype == table.dtype and got.tobytes() == table.tobytes(), (name, dtype)


def test_init_params_holds_one_float64_copy_of_the_map_draw():
    vocab = vocab_of([w("w0"), w("w1")], (ARG, SUBJ, COMP, "of"))
    dim = 250
    draw = 4 * dim * dim * 8  # the float64 draw of the four fields' maps
    init_params(vocab, dim, np.random.default_rng(3))  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        init_params(vocab, dim, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the draw and M and Minv in float32 (half the draw each); the
    # out-of-place expression held a second float64 copy, 2.5 draws in all
    assert peak < 2.25 * draw, peak / draw


def test_init_vector_variance_near_one_over_d():
    words = tuple(w(f"w{i}") for i in range(200))
    vocab = Vocabulary(words, (ARG,), {word: 1.0 for word in words}, {ARG: 1.0})
    d = 100
    params = init_params(vocab, d, np.random.default_rng(2))
    var = float(np.var(params.V.astype(np.float64)))
    assert abs(var - 1.0 / d) / (1.0 / d) < 0.05


def test_path_matrix_identity():
    params = make_params(np.random.default_rng(3))
    params.M[:] = np.eye(4)
    params.Minv[:] = np.eye(4)
    A = path_matrix(params, ((ARG, SUBJ), (COMP, "of")))
    assert np.allclose(A, np.eye(4))


def test_path_matrix_single_hop():
    params = make_params(np.random.default_rng(4))
    A = path_matrix(params, ((SUBJ, ARG),))
    fi = params.vocab.field_index
    expected = params.M[fi[SUBJ]] @ params.Minv[fi[ARG]]
    assert np.allclose(A, expected, atol=1e-12)


def test_path_matrix_two_hops_manual():
    params = make_params(np.random.default_rng(5), dim=3)
    hops = ((ARG, SUBJ), (COMP, "of"))
    A = path_matrix(params, hops)
    fi = params.vocab.field_index
    manual = np.eye(3)
    for name in (("M", ARG), ("Minv", SUBJ), ("M", COMP), ("Minv", "of")):
        table = params.M if name[0] == "M" else params.Minv
        manual = manual @ table[fi[name[1]]]
    assert np.allclose(A, manual, atol=1e-12)
    with pytest.raises(UnknownField):
        path_matrix(params, (("nope", ARG),))
    with pytest.raises(UnknownField):
        params.vocab.field_id("nope")
    with pytest.raises(ValueError):
        path_matrix(params, ())


def test_path_score_zero_vectors():
    params = make_params(np.random.default_rng(6))
    params.V[:] = 0.0
    assert path_score(params, w("w0"), ((ARG, SUBJ),), w("w1")) == 0.0


def test_path_score_identity_matrices_is_dot_product():
    params = make_params(np.random.default_rng(7))
    params.M[:] = np.eye(4)
    params.Minv[:] = np.eye(4)
    got = path_score(params, w("w0"), ((ARG, ARG),), w("w1"))
    assert abs(got - float(params.V[0] @ params.U[1])) < 1e-12


def test_path_score_matches_triple_loop_oracle():
    params = make_params(np.random.default_rng(8), dim=4)
    hops = ((SUBJ, ARG), (COMP, "of"))
    got = path_score(params, w("w2"), hops, w("w3"))
    fi = params.vocab.field_index
    order = [
        params.M[fi[SUBJ]], params.Minv[fi[ARG]], params.M[fi[COMP]], params.Minv[fi["of"]],
    ]
    vec = [float(x) for x in params.V[2]]
    for mat in order:
        nxt = [0.0] * 4
        for j in range(4):
            for i in range(4):
                nxt[j] += vec[i] * float(mat[i, j])
        vec = nxt
    expected = sum(vec[i] * float(params.U[3][i]) for i in range(4))
    assert abs(got - expected) < 1e-12
    with pytest.raises(UnknownWord):
        path_score(params, w("ghost"), hops, w("w0"))


def test_path_score_reversal_symmetry_only_in_orthogonal_fixture():
    # reversal symmetry needs orthogonal maps with exact inverses and
    # shared query/answer tables; it is not asserted in general
    from helpers import random_orthogonal

    rng = np.random.default_rng(24)
    params = make_params(rng, dim=4)
    shared = rng.standard_normal((6, 4))
    params.V[:] = shared
    params.U[:] = shared
    for i in range(len(params.fields)):
        Q = random_orthogonal(rng, 4)
        params.M[i] = Q
        params.Minv[i] = Q.T
    forward = path_score(params, w("w0"), ((ARG, SUBJ), (COMP, "of")), w("w1"))
    backward = path_score(params, w("w1"), (("of", COMP), (SUBJ, ARG)), w("w0"))
    assert abs(forward - backward) < 1e-10
    # generic (non-orthogonal) parameters break the symmetry
    generic = make_params(np.random.default_rng(25), dim=4)
    f = path_score(generic, w("w0"), ((ARG, SUBJ),), w("w1"))
    b = path_score(generic, w("w1"), ((SUBJ, ARG),), w("w0"))
    assert abs(f - b) > 1e-6


def fight_war_tree():
    return DcsTree((w("fight", "V"), w("war")), 0, (Edge(0, 1, COMP, ARG),))


def test_compose_fight_war_structure():
    rng = np.random.default_rng(9)
    words = (w("fight", "V"), w("war"))
    params = ModelParams(
        4, vocab_of(words, (ARG, SUBJ, COMP, "of")),
        rng.standard_normal((2, 4)), rng.standard_normal((2, 4)),
        np.eye(4) + rng.standard_normal((4, 4, 4)) * 0.3,
        np.eye(4) + rng.standard_normal((4, 4, 4)) * 0.3,
    )
    q = compose_query(params, fight_war_tree())
    fi = params.vocab.field_index
    expected = (
        params.V[params.vocab.word_index[w("war")]].astype(np.float64)
        @ params.M[fi[ARG]]
        @ params.Minv[fi[COMP]]
        + params.V[params.vocab.word_index[w("fight", "V")]]
    )
    assert np.allclose(q, expected, atol=1e-12)


def test_compose_leaf_is_word_vector():
    params = make_params(np.random.default_rng(10))
    tree = DcsTree((w("w1"),), 0, ())
    assert np.array_equal(compose_query(params, tree), params.V[1].astype(np.float64))


def test_compose_identity_chain_sums_vectors():
    params = make_params(np.random.default_rng(11))
    params.M[:] = np.eye(4)
    params.Minv[:] = np.eye(4)
    tree = DcsTree(
        (w("w0"), w("w1"), w("w2")), 0, (Edge(0, 1, ARG, ARG), Edge(1, 2, SUBJ, ARG))
    )
    total = (params.V[0] + params.V[1] + params.V[2]).astype(np.float64)
    assert np.allclose(compose_query(params, tree), total, atol=1e-12)


def test_compose_linearity_of_maps():
    rng = np.random.default_rng(12)
    for _ in range(100):
        params = make_params(rng)
        v1 = rng.standard_normal(4)
        v2 = rng.standard_normal(4)
        A = path_matrix(params, ((ARG, SUBJ),))
        left = (v1 + v2) @ A
        right = v1 @ A + v2 @ A
        assert np.linalg.norm(left - right) <= 1e-10 * max(np.linalg.norm(left), 1e-30)


def test_compose_matches_independent_root_path_accumulation():
    # every node contributes its vector mapped through the maps on the
    # node-to-root path, scaled by 1/(child count) at each ancestor
    rng = np.random.default_rng(13)
    from helpers import random_tree

    all_words = tuple(w(f"w{i}", pos) for i in range(6) for pos in ("N", "V", "J"))
    for _ in range(25):
        tree = random_tree(rng, int(rng.integers(1, 13)), n_words=6)
        params = ModelParams(
            4, vocab_of(all_words, (ARG, SUBJ, COMP, "in", "on", "of")),
            rng.standard_normal((len(all_words), 4)) * 0.4,
            rng.standard_normal((len(all_words), 4)) * 0.4,
            np.eye(4) + rng.standard_normal((6, 4, 4)) * 0.4,
            np.eye(4) + rng.standard_normal((6, 4, 4)) * 0.4,
        )
        fi = params.vocab.field_index

        def contribution(node):
            vec = params.V[params.vocab.word_index[tree.words[node]]].astype(np.float64)
            cur = node
            while (e := tree.parent_edge(cur)) is not None:
                vec = vec @ params.M[fi[e.child_field]] @ params.Minv[fi[e.parent_field]]
                vec = vec / len(tree.child_edges(e.parent))
                cur = e.parent
            return vec

        expected = sum(contribution(i) for i in range(tree.n_nodes))
        got = compose_query(params, tree)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_compose_from_any_node_is_the_rerooted_subtree_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(40):
        tree = random_tree(rng, int(rng.integers(2, 15)), n_words=6)
        params = random_tree_model(rng)
        assert compose_query(params, tree).tobytes() == child_edge_compose(params, tree).tobytes()
        for x in range(tree.n_nodes):
            want = child_edge_compose(params, reroot(tree, x))
            assert compose_query(params, tree, at=x).tobytes() == want.tobytes()
            # bounded at each ancestor-or-self of x: the subtree there, re-rooted at x
            top = x
            while True:
                sub, remap = extract_subtree(tree, top)
                want = child_edge_compose(params, reroot(sub, remap[x]))
                assert compose_query(params, tree, at=x, within=top).tobytes() == want.tobytes()
                if (e := tree.parent_edge(top)) is None:
                    break
                top = e.parent


def test_compose_start_must_lie_in_the_bounding_subtree():
    tree = DcsTree((w("w0"), w("w1"), w("w2")), 0, (Edge(0, 1, ARG, ARG), Edge(0, 2, SUBJ, ARG)))
    params = make_params(np.random.default_rng(22), n_words=3)
    for at, within in ((0, 1), (2, 1), (3, None), (None, -1)):
        with pytest.raises(ValueError):
            compose_query(params, tree, at=at, within=within)


def chain_tree(n):
    """n nodes, each the ARG:SUBJ child of the one before: a walk from
    either end is n nodes deep."""
    words = tuple(w(f"w{i % 6}") for i in range(n))
    return DcsTree(words, 0, tuple(Edge(i - 1, i, ARG, SUBJ) for i in range(1, n)))


def test_a_walk_deeper_than_the_recursion_limit_composes(tmp_path, capsys):
    n = 3000
    tree = chain_tree(n)
    params = make_params(np.random.default_rng(23))
    identity_maps(params)
    want = params.V[params.vocab.word_id(tree.words[-1])].astype(np.float64)
    for word in reversed(tree.words[:-1]):
        want = params.V[params.vocab.word_id(word)].astype(np.float64) + want  # the right-nested sum
    assert compose_query(params, tree).tobytes() == want.tobytes()
    feats = relation_features(params, RelationInstance(tree, 1, n - 1, "x"))
    blocks = feats.reshape(4, params.dim)
    assert np.allclose(np.linalg.norm(blocks, axis=1), 1.0, rtol=0, atol=1e-12)
    model, trees = tmp_path / "m.bin", tmp_path / "chain.trees"
    save_model(params, params.vocab, model)
    save_trees([tree], trees)
    assert cli.main(["compose", str(model), "--tree-file", str(trees)]) == 0
    assert len(capsys.readouterr().out.split()) == params.dim


def test_compose_oov_fallback_and_strict():
    vocab = make_vocab()
    params = init_params(vocab, 4, np.random.default_rng(14))
    tree = DcsTree((w("unseen"), w("w1")), 0, (Edge(0, 1, ARG, ARG),))
    with pytest.raises(UnknownWord):
        compose_query(params, tree, strict=True)
    with pytest.raises(UnknownWord):
        params.vocab.word_id(w("unseen"))
    assert params.vocab.word_id(w("unseen"), strict=False) == params.vocab.word_id(unknown_word("N"))
    q = compose_query(params, tree, strict=False)
    manual_root = params.V[params.vocab.word_index[unknown_word("N")]].astype(np.float64)
    fi = params.vocab.field_index
    manual = manual_root + params.V[1].astype(np.float64) @ params.M[fi[ARG]] @ params.Minv[fi[ARG]]
    assert np.allclose(q, manual, atol=1e-12)


def test_normalize_vectors_and_matrices():
    params = make_params(np.random.default_rng(15), dim=2)
    params.V[0] = [3.0, 4.0]
    out = normalize(params)
    assert np.allclose(out.V[0], [0.6, 0.8], atol=1e-12)
    d4 = make_params(np.random.default_rng(16), dim=4)
    d4.M[0] = np.eye(4)
    out4 = normalize(d4)
    assert np.allclose(out4.M[0], np.eye(4), atol=1e-12)  # ||I||_F is already sqrt(d)
    for i in range(len(out4.fields)):
        assert abs(np.linalg.norm(out4.M[i]) - 2.0) < 1e-12
        assert abs(np.linalg.norm(out4.Minv[i]) - 2.0) < 1e-12
    assert abs(np.linalg.norm(out4.V[2]) - 1.0) < 1e-9


def test_normalize_zero_raises():
    params = make_params(np.random.default_rng(17))
    params.U[3] = 0.0
    with pytest.raises(ZeroNorm):
        normalize(params)


def normalize_whole_table(params):
    """The whole-table normalization ``normalize`` computes by row blocks:
    the oracle its output must equal bitwise."""
    out = params.copy()
    for table in (out.V, out.U):
        norms = np.linalg.norm(table.astype(np.float64), axis=1)
        table[:] = (table.astype(np.float64) / norms[:, None]).astype(table.dtype)
    for table in (out.M, out.Minv):
        norms = np.linalg.norm(table.astype(np.float64).reshape(len(table), -1), axis=1)
        table[:] = (table.astype(np.float64) * (params.dim ** 0.5 / norms)[:, None, None]).astype(table.dtype)
    return out


def scaled_params(n_words, dim, seed, dtype=np.float32):
    """Gaussian tables whose rows are scaled by 0.01 to 100."""
    rng = np.random.default_rng(seed)
    words = [w(f"w{i}") for i in range(n_words)]
    vectors = [rng.standard_normal((n_words, dim)) * 10.0 ** rng.uniform(-2, 2, (n_words, 1)) for _ in "VU"]
    maps = [rng.standard_normal((2, dim, dim)) * 10.0 ** rng.uniform(-2, 2, (2, 1, 1)) for _ in "MN"]
    return ModelParams(dim, vocab_of(words, (ARG, SUBJ)), *(t.astype(dtype) for t in vectors + maps))


BLOCK = model_mod._NORM_ROWS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [2, 25, 100])
@pytest.mark.parametrize("n_words", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_normalize_by_row_blocks_is_bitwise_the_whole_table_expression(n_words, dim, dtype):
    params = scaled_params(n_words, dim, seed=n_words * 1000 + dim, dtype=dtype)
    before = [t.copy() for t in (params.V, params.U, params.M, params.Minv)]
    out, oracle = normalize(params), normalize_whole_table(params)
    for got, want in ((out.V, oracle.V), (out.U, oracle.U), (out.M, oracle.M), (out.Minv, oracle.Minv)):
        assert got.dtype == want.dtype and got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == want.tobytes()
    # the input is left as it was
    for table, copy in zip((params.V, params.U, params.M, params.Minv), before):
        assert table.tobytes() == copy.tobytes()


@pytest.mark.parametrize("name", ["V", "U"])
def test_zero_norm_names_the_first_zero_row_in_a_later_block(name):
    params = scaled_params(2 * BLOCK + 7, 4, seed=9)
    table = getattr(params, name)
    table[BLOCK + 3] = 0.0
    table[2 * BLOCK + 1] = 0.0
    with pytest.raises(ZeroNorm, match=rf"^{name} row for w{BLOCK + 3}/N is zero$"):
        normalize(params)


def test_nearest_answers_self_similarity():
    params = make_params(np.random.default_rng(18))
    params = normalize(params)
    ranked = nearest_answers(params, params.U[2].astype(np.float64), 1)
    assert ranked[0][0] == w("w2")


def test_nearest_answers_full_ranking_and_ties():
    params = make_params(np.random.default_rng(19))
    params.U[:] = 1.0  # all scores equal: ties resolve by vocabulary index
    ranked = nearest_answers(params, np.ones(4), 100)
    assert len(ranked) == len(params.words)
    assert [word.lemma for word, _ in ranked] == [f"w{i}" for i in range(6)]


def test_nearest_answers_pos_filter():
    words = (w("q", "V"), w("a"), w("b"))
    params = ModelParams(
        2, vocab_of(words, (ARG,)),
        np.zeros((3, 2)), np.array([[9.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        np.eye(2)[None], np.eye(2)[None],
    )
    ranked = nearest_answers(params, np.array([1.0, 0.0]), 5, pos_filter="N")
    assert [word.render() for word, _ in ranked] == ["b/N", "a/N"]
    assert nearest_answers(params, np.array([1.0, 0.0]), 5, pos_filter="J") == []
    with pytest.raises(InvalidConfig, match="pos must be one of N V J P R X"):
        nearest_answers(params, np.array([1.0, 0.0]), 5, pos_filter="n")


def nearest_answers_oracle(params, query, k, pos_filter=None, score=np.matmul):
    """The per-call scan that the answer index replaced: candidates in
    vocabulary order, scored in float64, fully stable-sorted."""
    if pos_filter is None:
        candidates = np.arange(len(params.words))
    else:
        candidates = np.array(
            [i for i, w in enumerate(params.words) if w.pos == pos_filter], dtype=np.int64
        )
    if candidates.size == 0:
        return []
    scores = score(params.U[candidates].astype(np.float64), np.asarray(query, dtype=np.float64))
    order = np.argsort(-scores, kind="stable")[:k]
    return [(params.words[int(candidates[i])], float(scores[i])) for i in order]


def tie_params(rng, n_tags, dtype, dim=6, n_words=40):
    """Answer rows are dyadic with power-of-two norms (one entry of ±1 or
    four of ±1/2, times 1/2, 1 or 2), so raw and normalized scores against
    a dyadic query are exact in any summation order: equal rows and equal
    sums tie exactly.  Some rows are copies of others, and the last row is
    NaN."""
    U = np.zeros((n_words, dim))
    for row in U:
        if rng.random() < 0.5:
            row[rng.integers(dim)] = 1.0
        else:
            row[rng.choice(dim, 4, replace=False)] = 0.5
        row *= rng.choice([-1.0, 1.0], dim) * 2.0 ** rng.integers(-1, 2)
    U[rng.choice(n_words - 1, 8, replace=False)] = U[rng.integers(n_words - 1)]
    U[-1] = np.nan
    words = tuple(w(f"w{i}", "NVJPRX"[rng.integers(n_tags)]) for i in range(n_words))
    return ModelParams(
        dim, vocab_of(words, (ARG,)), rng.standard_normal((n_words, dim)).astype(dtype), U.astype(dtype),
        (np.eye(dim) + rng.standard_normal((dim, dim)) * 0.5)[None].astype(dtype),
        (np.eye(dim) + rng.standard_normal((dim, dim)) * 0.5)[None].astype(dtype),
    )


def gaussian_params(rng, n_tags, dtype, dim=5, n_words=60):
    base = make_params(rng, dim=dim, n_words=n_words, dtype=dtype)
    base.U[7] = np.nan
    words = tuple(w(f"w{i}", "NVJPRX"[rng.integers(n_tags)]) for i in range(n_words))
    return ModelParams(dim, vocab_of(words, base.fields), base.V, base.U, base.M, base.Minv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [tie_params, gaussian_params])
def test_nearest_answers_matches_the_full_scan(dtype, make):
    rng = np.random.default_rng(24)
    ties_at_k = 0
    for n_tags in range(1, 7):
        raw = make(rng, n_tags, dtype)
        for params in (raw, normalize(raw)):
            nan_word = params.words[int(np.flatnonzero(np.isnan(params.U[:, 0]))[0])]
            for _ in range(4):
                if make is tie_params:
                    query = rng.integers(-4, 5, params.dim) / 4.0
                else:
                    query = rng.standard_normal(params.dim)
                with pytest.raises(InvalidConfig):
                    nearest_answers(params, query, 1, pos_filter="Z")
                for pos in [None, *POS_TAGS]:
                    n = sum(pos in (None, word.pos) for word in params.words)
                    for k in sorted({1, max(1, n // 2), max(1, n), n + 3}):
                        got = nearest_answers(params, query, k, pos_filter=pos)
                        want = nearest_answers_oracle(params, query, k, pos_filter=pos)
                        assert [word for word, _ in got] == [word for word, _ in want]
                        for (_, a), (_, b) in zip(got, want):
                            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12 * (1 + abs(b))
                        if n == 0:  # a valid tag with no words
                            assert got == []
                        if k >= n and nan_word.pos in (None, pos):
                            assert got[-1][0] == nan_word
                        full = nearest_answers_oracle(params, query, k + 1, pos_filter=pos)
                        ties_at_k += len(full) > k and full[k - 1][1] == full[k][1]
    if make is tie_params:
        assert ties_at_k > 50, ties_at_k  # exact ties straddle the k-th rank


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_equal_answer_vectors_tie_wherever_they_sit(dtype):
    # Gaussian rows are not dyadic, so a BLAS product may round equal rows
    # differently by their position (OpenBLAS dgemv scores the last rows of
    # a slice with another kernel); a per-row sum rounds them alike
    rng = np.random.default_rng(28)
    n_words, dim = 403, 37
    words = tuple(w(f"w{i}", "NVJ"[rng.integers(3)]) for i in range(n_words))
    last = [i for pos in "NVJ" for i in [j for j, word in enumerate(words) if word.pos == pos][-3:]]
    copies = np.union1d(rng.choice(n_words, 6, replace=False), last)  # some end a slice
    U = rng.standard_normal((n_words, dim))
    U[copies] = U[copies[0]]
    eye = np.eye(dim, dtype=dtype)[None]
    raw = ModelParams(dim, vocab_of(words, (ARG,)), U.astype(dtype), U.astype(dtype), eye, eye)
    for params in (raw, normalize(raw)):
        for _ in range(10):
            query = params.U[copies[0]] + 0.1 * rng.standard_normal(dim)  # the copies rank first
            for pos in (None, "N", "V", "J"):
                tied = [words[i] for i in copies if pos in (None, words[i].pos)]
                n = sum(pos in (None, word.pos) for word in words)
                for k in (1, len(tied), len(tied) + 3, n):  # screened, then the whole slice
                    got = nearest_answers(params, query, k, pos)
                    assert [word for word, _ in got[: len(tied)]] == tied[:k]
                    assert len({score for _, score in got[: len(tied)]}) == 1


def assert_same_ranking(got, want):
    """The same words in the same order, with scores equal up to rounding."""
    assert [word for word, _ in got] == [word for word, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12 * (1 + abs(b))


def row_sums(U, q):
    """Scores summed left to right within each row: equal rows score
    bitwise equal wherever they sit, as ``nearest_answers`` promises."""
    return np.array([sum(row) for row in (U * q).tolist()])


def screen_params(rng, n_tags, dtype, dim=6, n_words=90, nan_row=False):
    """Answer rows for the float32 screen.  Rows 0-29 differ from row 0
    below float32 resolution, in direction too (one float32 row, distinct
    float64 scores, raw or normalized), rows 40-59 at about its resolution
    (float32 rounding reorders them), rows 30-39 are one dyadic row and the
    rest are Gaussian."""
    U = rng.standard_normal((n_words, dim))
    U[:30] = U[0] * (1 + rng.uniform(-1e-10, 1e-10, (30, dim)))
    U[40:60] = U[0] * (1 + rng.uniform(-3e-7, 3e-7, (20, dim)))
    U[30:40] = 0.0
    U[30:40, rng.choice(dim, 4, replace=False)] = rng.choice([-0.5, 0.5], 4)
    if nan_row:
        U[rng.integers(n_words)] = np.nan
    words = tuple(w(f"w{i}", "NVJPRX"[rng.integers(n_tags)]) for i in range(n_words))
    eye = np.eye(dim, dtype=dtype)[None]
    return ModelParams(dim, vocab_of(words, (ARG,)), U.astype(dtype), U.astype(dtype), eye, eye)


# powers of two keep a dyadic query dyadic: zero, float64 subnormal, float32
# subnormal, small, unit, norm past 1e38 (screened at unit rows), float32
# overflow, float64 overflow of |q|^2
QUERY_SCALES = (0.0, 2.0 ** -1060, 2.0 ** -140, 2.0 ** -60, 1.0, 2.0 ** 127, 2.0 ** 130, 2.0 ** 520)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nan_row", [False, True])
def test_answer_screen_matches_the_full_scan(dtype, nan_row):
    rng = np.random.default_rng(29)
    ties_in_k = 0
    for n_tags in (1, 3, 6):
        raw = screen_params(rng, n_tags, dtype, nan_row=nan_row)
        for params in (raw, normalize(raw)):
            for dyadic in (False, True):
                if dyadic:
                    base = rng.integers(-4, 5, params.dim) / 4.0
                else:  # the near-equal rows rank first
                    base = rng.standard_normal(params.dim) + 2 * params.U[0]
                for scale in QUERY_SCALES:
                    query = base * scale
                    for pos in [None, *POS_TAGS]:
                        full = nearest_answers_oracle(params, query, len(params.words), pos, row_sums)
                        n = len(full)
                        # k = 1, inside the near-equal rows, a tie at the k-th rank, the
                        # slice and past it
                        ks = {1, 3, 10, 25, 40, max(1, n // 2), max(1, n - 1), max(1, n), n + 3}
                        ks |= set([i + 1 for i in range(n - 1) if full[i][1] == full[i + 1][1]][:3])
                        for k in sorted(ks):
                            assert_same_ranking(nearest_answers(params, query, k, pos), full[:k])
                            ties_in_k += k < n and full[k - 1][1] == full[k][1]
    assert ties_in_k > 100, ties_in_k


def test_the_screen_rescores_few_rows(monkeypatch):
    scored = []
    exact = model_mod._exact_scores
    monkeypatch.setattr(
        model_mod, "_exact_scores", lambda U, rows, q: scored.append(len(rows)) or exact(U, rows, q)
    )
    rng = np.random.default_rng(30)
    n_words, dim = 3000, 16
    words = tuple(w(f"w{i}", "NV"[i % 2]) for i in range(n_words))
    eye = np.eye(dim, dtype=np.float32)[None]
    U = rng.standard_normal((n_words, dim)).astype(np.float32)
    params = normalize(ModelParams(dim, vocab_of(words, (ARG,)), U, U, eye, eye))
    for _ in range(20):
        query = rng.standard_normal(dim)
        for pos in (None, "N"):
            want = nearest_answers_oracle(params, query, 10, pos)
            assert_same_ranking(nearest_answers(params, query, 10, pos), want)
    assert max(scored) < 30, scored  # of 1,500 or 3,000 rows
    # a NaN row leaves no bound on the float32 error of its own slice:
    # every row of the slice is scored
    U = U.copy()
    U[5] = np.nan
    params = normalize(ModelParams(dim, vocab_of(words, (ARG,)), U, U, eye, eye))
    scored.clear()
    want = nearest_answers_oracle(params, query, 10, "V")  # row 5 is a V word
    assert_same_ranking(nearest_answers(params, query, 10, "V"), want)
    assert scored == [n_words // 2]


def test_a_non_finite_row_keeps_the_screen_on_the_other_spans(monkeypatch):
    scored = []
    exact = model_mod._exact_scores
    monkeypatch.setattr(
        model_mod, "_exact_scores", lambda U, rows, q: scored.append(len(rows)) or exact(U, rows, q)
    )
    rng = np.random.default_rng(31)
    n_words, dim = 3000, 16
    words = tuple(w(f"w{i}", "NV"[i % 2]) for i in range(n_words))
    eye = np.eye(dim, dtype=np.float32)[None]
    U = rng.standard_normal((n_words, dim)).astype(np.float32)
    U[5] = np.nan  # a V word
    U[7, 3] = np.inf  # another V word
    params = ModelParams(dim, vocab_of(words, (ARG,)), U, U, eye, eye)
    index = model_mod.answer_index(params)
    finite = np.sqrt(np.sum(params.U.astype(np.float64) ** 2, axis=1))
    finite[[5, 7]] = 0.0
    assert max(index.span_norms.values()) == pytest.approx(finite.max(), rel=1e-15)
    for tag in ("N", "V"):
        start, stop = index.spans[tag]
        assert index.span_norms[tag] == pytest.approx(finite[index.rows[start:stop]].max(), rel=1e-15)
    for _ in range(10):
        query = rng.standard_normal(dim)
        scored.clear()
        assert_same_ranking(nearest_answers(params, query, 10, "N"), nearest_answers_oracle(params, query, 10, "N"))
        assert max(scored) < 30, scored  # of 1,500 N rows
        # the slices that hold the non-finite rows are scanned in full
        for pos, n_rows in (("V", n_words // 2), (None, n_words)):
            scored.clear()
            assert_same_ranking(nearest_answers(params, query, 10, pos), nearest_answers_oracle(params, query, 10, pos))
            assert scored == [n_rows]


def test_normalized_model_is_read_only_and_memoizes_its_answer_index(monkeypatch):
    built = []
    build = model_mod.build_answer_index
    monkeypatch.setattr(model_mod, "build_answer_index", lambda p: built.append(p) or build(p))
    rng = np.random.default_rng(25)
    raw = tie_params(rng, 3, np.float32)
    out = normalize(raw)
    for table in (out.V, out.U, out.M, out.Minv):
        with pytest.raises(ValueError):
            table[0] = 0.0
    for i in range(50):
        query = rng.integers(-4, 5, out.dim) / 4.0
        pos = (None, "N", "V", "J", "X")[i % 5]  # X: a tag with no words here
        assert nearest_answers(out, query, 3, pos) == nearest_answers_oracle(out, query, 3, pos)
    assert len(built) == 1
    # a writeable model is indexed afresh on every call
    for _ in range(3):
        nearest_answers(raw, rng.standard_normal(raw.dim), 3)
    assert len(built) == 4
    editable = out.copy()
    assert all(t.flags.writeable for t in (editable.V, editable.U, editable.M, editable.Minv))
    assert editable._answers is None
    # a new U table replaces the memoized index
    U = np.ascontiguousarray(out.U[::-1])
    U.flags.writeable = False
    out.U = U
    query = rng.integers(-4, 5, out.dim) / 4.0
    assert nearest_answers(out, query, 5) == nearest_answers_oracle(out, query, 5)


def test_answer_index_orders_rows_by_pos_then_vocabulary_index():
    params = gaussian_params(np.random.default_rng(27), 4, np.float32)
    index = model_mod.answer_index(params)
    assert sorted(index.rows.tolist()) == list(range(len(params.words)))
    assert index.table.dtype == np.float32 and not index.table.flags.writeable
    assert np.array_equal(index.table, params.U[index.rows], equal_nan=True)
    norms = np.sqrt(np.sum(params.U.astype(np.float64) ** 2, axis=1))
    assert math.isnan(norms[7])  # row 7 of U is NaN: the bounds are over the other rows
    assert max(index.span_norms.values()) == np.nanmax(norms)
    for tag, (start, stop) in index.spans.items():
        span = [r for r in index.rows[start:stop].tolist() if r != 7]
        assert index.span_norms[tag] == (norms[span].max() if span else 0.0)
    params.U[7] = 3.0  # a writeable U is indexed afresh
    norms = np.sqrt(np.sum(params.U.astype(np.float64) ** 2, axis=1))
    assert abs(max(model_mod.answer_index(params).span_norms.values()) - norms.max()) <= 1e-15 * norms.max()
    U = params.U.astype(np.float64) * (1 + 2.0 ** -40)  # float64 rows that float32 rounds
    U[3] = 1e100  # past float32 range: inf in the table, its float64 norm stored
    index = model_mod.answer_index(ModelParams(params.dim, params.vocab, params.V, U, params.M, params.Minv))
    assert index.table.dtype == np.float32
    kept = index.rows != 3
    assert np.array_equal(index.table[kept], U[index.rows[kept]].astype(np.float32))
    assert np.isposinf(index.table[index.rows == 3]).all()
    assert max(index.span_norms.values()) == pytest.approx(1e100 * math.sqrt(params.dim), rel=1e-12)
    tags = sorted({word.pos for word in params.words})
    bounds = [index.spans[tag] for tag in tags]
    assert sorted(index.spans) == tags
    assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
    assert bounds[-1][1] == len(params.words)
    for tag, (start, stop) in zip(tags, bounds):
        rows = index.rows[start:stop].tolist()
        assert rows == sorted(rows)
        assert {params.words[r].pos for r in rows} == {tag}


def test_nearest_answers_sees_in_place_edits_of_a_raw_model():
    params = make_params(np.random.default_rng(26))
    query = np.ones(4)
    before = nearest_answers(params, query, 100)
    params.U[:] = 1.0
    params.U[4] = 2.0
    after = nearest_answers(params, query, 100)
    assert after != before
    assert [word.lemma for word, _ in after] == ["w4", "w0", "w1", "w2", "w3", "w5"]
    assert after == nearest_answers_oracle(params, query, 100)


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    # composing and ranking must leave no reference cycle through the
    # model: a caller that drops it gets its tables and answer index back
    # at once, not whenever the cyclic collector next runs
    vocab = make_vocab(n_words=6)
    params = normalize(init_params(vocab, 4, np.random.default_rng(23)))
    tree = DcsTree((w("w0"), w("w1"), w("w2")), 0, (Edge(0, 1, COMP, ARG), Edge(1, 2, ARG, SUBJ)))
    gc.disable()
    try:
        query = compose_query(params, tree)
        assert nearest_answers(params, query, 3, pos_filter="N")
        ref = weakref.ref(params)
        del params
        assert ref() is None
    finally:
        gc.enable()


def test_model_roundtrip_bitwise(tmp_path):
    vocab = make_vocab(n_words=10)
    params = init_params(vocab, 8, np.random.default_rng(20))
    path = tmp_path / "model.bin"
    save_model(params, vocab, path)
    loaded, voc2 = load_model(path)
    assert loaded.dim == 8
    assert loaded.words == params.words
    assert loaded.fields == params.fields
    for a, b in ((loaded.V, params.V), (loaded.U, params.U), (loaded.M, params.M), (loaded.Minv, params.Minv)):
        assert a.dtype == np.float32 and np.array_equal(a, b)
    assert voc2.word_counts == {word: vocab.word_counts.get(word, 0.0) for word in vocab.words}
    # save the reload: byte-identical files
    buf = io.BytesIO()
    save_model(loaded, voc2, buf)
    assert buf.getvalue() == path.read_bytes()


def test_model_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"WRONG 9\n")
    with pytest.raises(BadMagic):
        load_model(path)


def test_model_truncated_reports_offset(tmp_path):
    vocab = make_vocab(n_words=4)
    params = init_params(vocab, 4, np.random.default_rng(21))
    path = tmp_path / "model.bin"
    save_model(params, vocab, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(blob[: len(blob) - 50])
    with pytest.raises(TruncatedFile) as err:
        load_model(cut)
    assert err.value.offset == len(blob) - 50


def test_model_trailing_bytes_rejected(tmp_path):
    vocab = make_vocab(n_words=4)
    params = init_params(vocab, 4, np.random.default_rng(21))
    path = tmp_path / "model.bin"
    save_model(params, vocab, path)
    blob = path.read_bytes()
    longer = tmp_path / "longer.bin"
    longer.write_bytes(blob + b"\0")
    with pytest.raises(DimensionMismatch, match=f"byte offset {len(blob)}"):
        load_model(longer)


def test_model_header_mismatch(tmp_path):
    vocab = make_vocab(n_words=4)
    params = init_params(vocab, 4, np.random.default_rng(22))
    path = tmp_path / "model.bin"
    save_model(params, vocab, path)
    text = path.read_bytes().split(b"\n", 2)
    mangled = text[0] + b"\ndim 1\n" + text[2]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(mangled)
    with pytest.raises(DimensionMismatch):
        load_model(bad)


@pytest.mark.parametrize("line, repeat", [(b"w1/N\t1.0", b"w0/N\t1.0"), (b"SUBJ\t1.0", b"ARG\t1.0")])
def test_model_header_repeated_entry_rejected(tmp_path, line, repeat):
    vocab = make_vocab(n_words=4)
    path = tmp_path / "model.bin"
    save_model(init_params(vocab, 4, np.random.default_rng(22)), vocab, path)
    blob = path.read_bytes()
    assert blob.count(b"\n" + line + b"\n") == 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob.replace(b"\n" + line + b"\n", b"\n" + repeat + b"\n"))
    with pytest.raises(DimensionMismatch, match="listed twice"):
        load_model(bad)


def saved_model_blob(n_words=4, dim=4):
    vocab = make_vocab(n_words=n_words)
    buf = io.BytesIO()
    save_model(init_params(vocab, dim, np.random.default_rng(22)), vocab, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"\nw1/N\t1.0\n", b"\nw1/N\tnan\n", "count must be finite and >= 0, got 'nan'"),
        (b"\nw1/N\t1.0\n", b"\nw1/N\t-1\n", "count must be finite and >= 0, got '-1'"),
        (b"\nSUBJ\t1.0\n", b"\nSUBJ\tinf\n", "count must be finite and >= 0, got 'inf'"),
        (b"\nw0/N\t1.0\nw1/N\t1.0\n", b"\nw0/N\t1e308\nw1/N\t1e308\n", "word counts sum to inf"),
        (b"\nARG\t1.0\nSUBJ\t1.0\n", b"\nARG\t1e308\nSUBJ\t1e308\n", "field counts sum to inf"),
        (b"\nw1/N\t1.0\n", b"\nw1/N\t1.0\tx\n", "expected W entry<TAB>count"),
        (b"\nw1/N\t1.0\n", b"\nw1\t1.0\n", "expected lemma/POS"),
        (b"\nSUBJ\t1.0\n", b"\nSU BJ\t1.0\n", "reserved characters"),
    ],
)
def test_model_header_counts_follow_the_vocabulary_rules(old, new, message):
    blob = saved_model_blob()
    assert blob.count(old) == 1
    with pytest.raises(DimensionMismatch, match=message):
        load_model(io.BytesIO(blob.replace(old, new)))


@pytest.mark.parametrize(
    "old, new",
    [
        (b"\ndim 4\n", b"\nfoo 4 extra\n"),
        (b"\ndim 4\n", b"\ndim 4 extra\n"),
        (b"\ndim 4\n", b"\ndim four\n"),
        (b"\nwords 10\n", b"\nfields 10\n"),
        (b"\nfields 4\n", b"\nwords 4\n"),
        (b"\nfields 4\n", b"\nfields\n"),
    ],
)
def test_model_header_size_lines_need_their_keyword_and_one_whole_number(old, new):
    blob = saved_model_blob()
    assert blob.count(old) == 1
    with pytest.raises(DimensionMismatch, match="with n a whole number"):
        load_model(io.BytesIO(blob.replace(old, new)))


def test_model_header_that_is_not_utf8_is_rejected():
    blob = saved_model_blob()
    with pytest.raises(DimensionMismatch, match="not UTF-8"):
        load_model(io.BytesIO(blob.replace(b"\nw1/N\t", b"\nw\xff/N\t")))


def test_the_model_keeps_the_vocabulary_it_was_built_from(tmp_path):
    vocab = make_vocab()
    params = init_params(vocab, 4, np.random.default_rng(24))
    assert params.vocab is vocab
    assert params.words is vocab.words and params.fields is vocab.fields
    assert params.copy().vocab is vocab
    assert normalize(params).vocab is vocab
    save_model(params, vocab, tmp_path / "model.bin")
    loaded, loaded_vocab = load_model(tmp_path / "model.bin")
    assert loaded.vocab is loaded_vocab
    assert loaded_vocab.words == vocab.words and loaded_vocab.fields == vocab.fields
    # the vocabulary is the one name-to-row index
    for name in ("word_index", "field_index", "word_id", "field_id"):
        assert not hasattr(params, name)
    with pytest.raises(DimensionMismatch):
        ModelParams(4, make_vocab(n_words=5), params.V, params.U, params.M, params.Minv)


def test_save_rejects_mismatched_vocab():
    vocab = make_vocab(n_words=4)
    other = make_vocab(n_words=5)
    params = init_params(vocab, 4, np.random.default_rng(23))
    with pytest.raises(DimensionMismatch):
        save_model(params, other, io.BytesIO())


def test_load_model_reads_a_path_a_handle_past_other_bytes_and_bytesio_alike(tmp_path):
    vocab = make_vocab(n_words=7)
    params = init_params(vocab, 5, np.random.default_rng(25))
    path = tmp_path / "model.bin"
    save_model(params, vocab, path)
    blob = path.read_bytes()
    prefixed = tmp_path / "prefixed.bin"
    prefixed.write_bytes(b"unrelated\nbytes\0" + blob)
    from_path, _ = load_model(path)
    with open(prefixed, "rb") as fh:
        fh.seek(len(b"unrelated\nbytes\0"))
        from_handle, _ = load_model(fh)
        assert fh.read() == b""  # read to the end of the payload; the handle stays open
    from_bytes, _ = load_model(io.BytesIO(blob))
    for loaded in (from_path, from_handle, from_bytes):
        tables = (loaded.V, loaded.U, loaded.M, loaded.Minv)
        for table, want in zip(tables, (params.V, params.U, params.M, params.Minv)):
            assert table.dtype == np.float32 and table.tobytes() == want.tobytes()
            assert table.flags.writeable and table.flags.c_contiguous
        # the tables are separate: an edit to one leaves the others alone
        loaded.V[0] = 7.0
        loaded.M[1, 0] = 7.0
        assert loaded.U.tobytes() == params.U.tobytes()
        assert loaded.Minv.tobytes() == params.Minv.tobytes()
        assert np.array_equal(loaded.M[0], params.M[0]) and np.array_equal(loaded.M[2:], params.M[2:])


def test_load_model_offsets_count_from_where_the_handle_stands(tmp_path):
    blob = saved_model_blob()
    prefix = b"unrelated bytes"
    for data, error, message in (
        (blob[:-50], TruncatedFile, f"at byte offset {len(blob) - 50}"),
        (blob + b"\0", DimensionMismatch, f"byte offset {len(blob)} \\(file is {len(blob) + 1} bytes\\)"),
    ):
        handle = io.BytesIO(prefix + data)
        handle.seek(len(prefix))
        with pytest.raises(error, match=message):
            load_model(handle)


class ShrunkFile(io.BytesIO):
    """A file cut short after its size was read: each read stops 4 bytes short."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:-4])


def test_a_payload_cut_short_during_the_read_is_a_truncated_file():
    blob = saved_model_blob()
    with pytest.raises(TruncatedFile, match="payload ended early"):
        load_model(ShrunkFile(blob))


def traced(fn):
    """fn()'s result, the memory it allocated and still holds, and the most
    it held at once (tracemalloc: numpy arrays and Python objects alike)."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.mark.parametrize("dim", [2000, 200000])
def test_a_header_that_overstates_the_payload_allocates_nothing(tmp_path, dim, capsys):
    # dim 2000 asks for 128 MB of maps, dim 200000 for more than any host
    # has: either is a short payload, found before a table is allocated
    path = tmp_path / "model.bin"
    path.write_bytes(saved_model_blob().replace(b"\ndim 4\n", f"\ndim {dim}\n".encode()))
    err, _, peak = traced(lambda: pytest.raises(TruncatedFile, load_model, path).value)
    assert "payload bytes" in str(err) and peak < 2**20, peak
    assert cli.main(["nearest", str(path), "--tree", "w0/N"]) == 2
    assert capsys.readouterr().err.startswith("error\tTruncatedFile\texpected ")


def test_save_and_load_hold_no_second_copy_of_the_payload(tmp_path):
    vocab = make_vocab(n_words=2000 - 6)  # 2,000 rows with the placeholders
    params = init_params(vocab, 256, np.random.default_rng(26))
    path = tmp_path / "model.bin"
    _, _, peak = traced(lambda: save_model(params, vocab, path))
    payload = sum(t.nbytes for t in (params.V, params.U, params.M, params.Minv))
    # a bytes copy of each table in turn held a third of the payload (V)
    assert peak < 0.1 * payload, peak / payload
    assert path.stat().st_size < 1.01 * payload  # the header is small beside it
    del params
    (loaded, _), kept, peak = traced(lambda: load_model(path))
    # reading the file whole and copying the tables out of it held 1x more
    assert peak - kept < 0.5 * payload, (peak - kept) / payload
    assert loaded.V.shape == (2000, 256)


def test_normalize_holds_one_row_block_of_scratch():
    n_words, dim = 40000, 32
    assert n_words >= 4 * BLOCK
    words = [w(f"w{i}") for i in range(n_words)]
    params = init_params(vocab_of(words, (ARG, SUBJ)), dim, np.random.default_rng(27))
    payload = sum(t.nbytes for t in (params.V, params.U, params.M, params.Minv))
    out, kept, peak = traced(lambda: normalize(params))
    # the whole-table float64 temporaries held about 2x the payload
    assert peak - kept < 0.5 * payload, (peak - kept) / payload
    assert out.V.shape == (n_words, dim)
