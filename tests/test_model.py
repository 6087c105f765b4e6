import gc
import io
import math
import weakref

import numpy as np
import pytest

from dcsvec.errors import (
    BadMagic,
    DimensionMismatch,
    TruncatedFile,
    UnknownField,
    UnknownWord,
    ZeroNorm,
)
import dcsvec.model as model_mod
from dcsvec.model import (
    ModelParams,
    compose_query,
    init_params,
    load_model,
    nearest_answers,
    normalize,
    path_matrix,
    path_score,
    save_model,
)
from dcsvec.trees import ARG, COMP, SUBJ, DcsTree, Edge, Word, unknown_word
from dcsvec.vocab import Vocabulary


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


def make_params(rng, dim=4, n_words=6, dtype=np.float64, scale=0.5):
    words = tuple(w(f"w{i}") for i in range(n_words))
    fields = (ARG, SUBJ, COMP, "of")
    return ModelParams(
        dim,
        words,
        fields,
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
    fi = params.field_index
    expected = params.M[fi[SUBJ]] @ params.Minv[fi[ARG]]
    assert np.allclose(A, expected, atol=1e-12)


def test_path_matrix_two_hops_manual():
    params = make_params(np.random.default_rng(5), dim=3)
    hops = ((ARG, SUBJ), (COMP, "of"))
    A = path_matrix(params, hops)
    fi = params.field_index
    manual = np.eye(3)
    for name in (("M", ARG), ("Minv", SUBJ), ("M", COMP), ("Minv", "of")):
        table = params.M if name[0] == "M" else params.Minv
        manual = manual @ table[fi[name[1]]]
    assert np.allclose(A, manual, atol=1e-12)
    with pytest.raises(UnknownField):
        path_matrix(params, (("nope", ARG),))
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
    fi = params.field_index
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
        4, words, (ARG, SUBJ, COMP, "of"),
        rng.standard_normal((2, 4)), rng.standard_normal((2, 4)),
        np.eye(4) + rng.standard_normal((4, 4, 4)) * 0.3,
        np.eye(4) + rng.standard_normal((4, 4, 4)) * 0.3,
    )
    q = compose_query(params, fight_war_tree())
    fi = params.field_index
    expected = (
        params.V[params.word_index[w("war")]].astype(np.float64)
        @ params.M[fi[ARG]]
        @ params.Minv[fi[COMP]]
        + params.V[params.word_index[w("fight", "V")]]
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
            4, all_words, (ARG, SUBJ, COMP, "in", "on", "of"),
            rng.standard_normal((len(all_words), 4)) * 0.4,
            rng.standard_normal((len(all_words), 4)) * 0.4,
            np.eye(4) + rng.standard_normal((6, 4, 4)) * 0.4,
            np.eye(4) + rng.standard_normal((6, 4, 4)) * 0.4,
        )
        fi = params.field_index

        def contribution(node):
            vec = params.V[params.word_index[tree.words[node]]].astype(np.float64)
            cur = node
            while (e := tree.parent_edge(cur)) is not None:
                vec = vec @ params.M[fi[e.child_field]] @ params.Minv[fi[e.parent_field]]
                vec = vec / len(tree.child_edges(e.parent))
                cur = e.parent
            return vec

        expected = sum(contribution(i) for i in range(tree.n_nodes))
        got = compose_query(params, tree)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_compose_oov_fallback_and_strict():
    vocab = make_vocab()
    params = init_params(vocab, 4, np.random.default_rng(14))
    tree = DcsTree((w("unseen"), w("w1")), 0, (Edge(0, 1, ARG, ARG),))
    with pytest.raises(UnknownWord):
        compose_query(params, tree, strict=True)
    q = compose_query(params, tree, strict=False)
    manual_root = params.V[params.word_index[unknown_word("N")]].astype(np.float64)
    fi = params.field_index
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
        2, words, (ARG,),
        np.zeros((3, 2)), np.array([[9.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        np.eye(2)[None], np.eye(2)[None],
    )
    ranked = nearest_answers(params, np.array([1.0, 0.0]), 5, pos_filter="N")
    assert [word.render() for word, _ in ranked] == ["b/N", "a/N"]


def nearest_answers_oracle(params, query, k, pos_filter=None):
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
    scores = params.U[candidates].astype(np.float64) @ np.asarray(query, dtype=np.float64)
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
        dim, words, (ARG,), rng.standard_normal((n_words, dim)).astype(dtype), U.astype(dtype),
        (np.eye(dim) + rng.standard_normal((dim, dim)) * 0.5)[None].astype(dtype),
        (np.eye(dim) + rng.standard_normal((dim, dim)) * 0.5)[None].astype(dtype),
    )


def gaussian_params(rng, n_tags, dtype, dim=5, n_words=60):
    base = make_params(rng, dim=dim, n_words=n_words, dtype=dtype)
    base.U[7] = np.nan
    words = tuple(w(f"w{i}", "NVJPRX"[rng.integers(n_tags)]) for i in range(n_words))
    return ModelParams(dim, words, base.fields, base.V, base.U, base.M, base.Minv)


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
                for pos in [None, *sorted({word.pos for word in params.words}), "Z"]:
                    n = sum(pos in (None, word.pos) for word in params.words)
                    for k in sorted({1, max(1, n // 2), max(1, n), n + 3}):
                        got = nearest_answers(params, query, k, pos_filter=pos)
                        want = nearest_answers_oracle(params, query, k, pos_filter=pos)
                        assert [word for word, _ in got] == [word for word, _ in want]
                        for (_, a), (_, b) in zip(got, want):
                            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12 * (1 + abs(b))
                        if pos == "Z":
                            assert got == []
                        if k >= n and nan_word.pos in (None, pos):
                            assert got[-1][0] == nan_word
                        full = nearest_answers_oracle(params, query, k + 1, pos_filter=pos)
                        ties_at_k += len(full) > k and full[k - 1][1] == full[k][1]
    if make is tie_params:
        assert ties_at_k > 50, ties_at_k  # exact ties straddle the k-th rank


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
        pos = (None, "N", "V", "J", "Z")[i % 5]
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
    assert np.array_equal(index.table, params.U[index.rows].astype(np.float64), equal_nan=True)
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


def test_save_rejects_mismatched_vocab():
    vocab = make_vocab(n_words=4)
    other = make_vocab(n_words=5)
    params = init_params(vocab, 4, np.random.default_rng(23))
    with pytest.raises(DimensionMismatch):
        save_model(params, other, io.BytesIO())
