import collections
import dataclasses
import importlib
import io
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from scipy import stats

from dcsvec.errors import InvalidConfig, NonFiniteGradient
from dcsvec.model import ModelParams, identity_maps, init_params, save_model
from dcsvec.train import (
    MODES,
    TrainConfig,
    expected_steps_per_epoch,
    loss_and_gradients,
    make_noise,
    regularizer_grads,
    regularizer_penalties,
    step,
    train,
)
from dcsvec.trees import ARG, COMP, SUBJ, DcsTree, Edge, Word
from dcsvec.vocab import Vocabulary, build_vocab, sample_paths
from helpers import (
    dense_gradient,
    enumerate_paths,
    exact_path_sums,
    gradient_dict,
    id_example,
    nce_loss,
    random_orthogonal,
    random_tree,
    updated_maps,
)


def w(lemma, pos="N"):
    return Word(lemma, pos)


FIELDS = (ARG, SUBJ, COMP, "of", "in", "on", "to", "at")


def make_vocab(n_words=8):
    words = tuple(w(f"w{i}") for i in range(n_words))
    return Vocabulary(
        words, FIELDS, {word: 1.0 for word in words}, {f: 1.0 for f in FIELDS}
    )


def make_params(rng, dim=5, n_words=8, dtype=np.float64):
    return ModelParams(
        dim,
        make_vocab(n_words),
        (rng.standard_normal((n_words, dim)) * 0.4).astype(dtype),
        (rng.standard_normal((n_words, dim)) * 0.4).astype(dtype),
        (np.eye(dim) + rng.standard_normal((len(FIELDS), dim, dim)) * 0.3).astype(dtype),
        (np.eye(dim) + rng.standard_normal((len(FIELDS), dim, dim)) * 0.3).astype(dtype),
    )


VOCAB = make_vocab()


def sample(l=2, *noises):
    """The w0 -> w1 path over the first l of two hops, and noises given as
    (i, fields, word) by name; rows of make_vocab() and make_params()."""
    return id_example(VOCAB, w("w0"), w("w1"), ((ARG, SUBJ), (COMP, "of"))[:l], *noises)


def test_make_noise_single_hop_always_index_two():
    vocab = make_vocab()
    rng = np.random.default_rng(0)
    block = make_noise([sample(l=1)[0]] * 200, vocab, rng)
    assert len(block) == 200
    for (noise,) in block:
        assert noise.i == 2
        assert len(noise.fields) == 1


@pytest.mark.slow
def test_make_noise_index_uniform_for_two_hops():
    vocab = make_vocab()
    rng = np.random.default_rng(1)
    n = 10**6
    counts = {2: 0, 3: 0, 4: 0}
    path, _ = sample(l=2)
    for _ in range(10):  # blocks of 10^5, so the noises of one block are held at a time
        for (noise,) in make_noise([path] * (n // 10), vocab, rng):
            counts[noise.i] += 1
            assert len(noise.fields) == 4 - noise.i + 1
    for i in (2, 3, 4):
        assert abs(counts[i] / n - 1 / 3) < 0.005


def test_noise_fields_follow_field_unigram():
    words = (w("w0"), w("w1"))
    counts = {ARG: 4.0, SUBJ: 2.0, COMP: 1.0, "of": 1.0}
    vocab = Vocabulary(words, tuple(counts), {word: 1.0 for word in words}, counts)
    rng = np.random.default_rng(2)
    drawn = {f: 0 for f in counts}
    n = 200000
    path, _ = sample(l=1)
    for (noise,) in make_noise([path] * n, vocab, rng):
        drawn[vocab.fields[noise.fields[0]]] += 1
    observed = np.array([drawn[f] for f in counts])
    expected = np.array([counts[f] for f in counts], dtype=float)
    expected = expected / expected.sum() * n
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.01


def test_make_noise_k_copies():
    vocab = make_vocab()
    rng = np.random.default_rng(3)
    paths = [sample(l=2)[0], sample(l=1)[0], sample(l=2)[0]]
    block = make_noise(paths, vocab, rng, k=5)
    assert [len(noises) for noises in block] == [5, 5, 5]
    for path, noises in zip(paths, block):
        assert all(2 <= n.i <= 2 * len(path.hops) for n in noises)
        assert all(len(n.fields) == 2 * len(path.hops) - n.i + 1 for n in noises)


def name_make_noise(paths, vocab, rng, k=1):
    """Slow-path oracle: the block draw written per noise with names, the
    way the name-based make_noise drew; gives (i, field names, word) per
    noise, a list per path.  It makes make_noise's three array draws:
    every replacement index, then every field's uniform, then every word's."""

    def draw(names, counts, u):
        cum = np.cumsum([counts.get(name, 0.0) for name in names])
        return names[int(np.searchsorted(cum, u * cum[-1], side="right"))]

    his = [2 * len(path.hops) for path in paths for _ in range(k)]
    indices = [int(i) for i in rng.integers(2, np.array(his) + 1)]
    field_u = iter(rng.random(sum(hi - i + 1 for hi, i in zip(his, indices))).tolist())
    word_u = iter(rng.random(len(his)).tolist())
    out = []
    for hi, i in zip(his, indices):
        fields = tuple(draw(vocab.fields, vocab.field_counts, next(field_u)) for _ in range(hi - i + 1))
        out.append((i, fields, draw(vocab.words, vocab.word_counts, next(word_u))))
    return [out[j : j + k] for j in range(0, len(out), k)]


@pytest.mark.parametrize("k", [1, 3])
def test_make_noise_draws_what_the_name_oracle_draws(k):
    rng = np.random.default_rng(40 + k)
    trees = [random_tree(rng, int(rng.integers(2, 7)), 12) for _ in range(30)]
    vocab = build_vocab(trees, 2, 1)  # uneven counts and zero-mass placeholder rows
    fast, slow = np.random.default_rng(k), np.random.default_rng(k)
    drawn = 0
    for first in range(0, len(trees), 7):  # blocks of 7 trees, the last one shorter
        paths = [path for tree in trees[first : first + 7] for path in sample_paths(tree, vocab, rng)]
        got = [
            [(n.i, tuple(vocab.fields[f] for f in n.fields), vocab.words[n.word]) for n in noises]
            for noises in make_noise(paths, vocab, fast, k)
        ]
        assert got == name_make_noise(paths, vocab, slow, k)
        drawn += sum(map(len, got))
    assert drawn > 300
    assert fast.random() == slow.random()  # the same RNG calls, in the same order


def test_nce_loss_at_zero_scores():
    params = make_params(np.random.default_rng(4))
    params.V[0] = 0.0
    pos, noises = sample(1, (2, (SUBJ,), w("w2")))
    assert abs(nce_loss(params, pos, noises) - 2 * math.log(2)) < 1e-12


def test_nce_loss_saturates_to_zero():
    params = make_params(np.random.default_rng(5))
    params.M[:] = np.eye(5)
    params.Minv[:] = np.eye(5)
    params.V[0] = 40.0
    params.U[1] = 40.0
    params.U[2] = -40.0
    pos, noises = sample(1, (2, (ARG,), w("w2")))
    assert nce_loss(params, pos, noises) < 1e-6


def test_nce_loss_matches_scalar_reimplementation():
    params = make_params(np.random.default_rng(6), dim=5)
    pos, [noise] = sample(2, (3, ("in", "on"), w("w2")))

    def matvec(vec, mat):
        return [sum(vec[i] * float(mat[i, j]) for i in range(5)) for j in range(5)]

    fi = params.vocab.field_index
    vec = [float(x) for x in params.V[0]]
    # positive slots: M[ARG], Minv[SUBJ], M[COMP], Minv[of]
    for mat in (params.M[fi[ARG]], params.Minv[fi[SUBJ]], params.M[fi[COMP]], params.Minv[fi["of"]]):
        vec = matvec(vec, mat)
    s_pos = sum(vec[i] * float(params.U[1][i]) for i in range(5))
    # noise replaces slots 3 and 4 (1-based): M["in"], Minv["on"]; parity kept
    nvec = [float(x) for x in params.V[0]]
    for mat in (params.M[fi[ARG]], params.Minv[fi[SUBJ]], params.M[fi["in"]], params.Minv[fi["on"]]):
        nvec = matvec(nvec, mat)
    s_neg = sum(nvec[i] * float(params.U[2][i]) for i in range(5))
    expected = -math.log(1 / (1 + math.exp(-s_pos))) - math.log(1 / (1 + math.exp(s_neg)))
    assert abs(nce_loss(params, pos, [noise]) - expected) < 1e-12


def test_step_manual_gradient_arithmetic():
    # l=1, no regularizer, no clipping: hand-derived update formulas
    rng = np.random.default_rng(7)
    params = make_params(rng, dim=5)
    before = params.copy()
    pos, [noise] = sample(1, (2, (COMP,), w("w2")))
    with pytest.warns(UserWarning):  # deliberately large matrix lr
        cfg = TrainConfig(
            dim=5, lr_vec=0.05, lr_mat=0.01, gamma=0.0, kappa=0.0,
            clip_norm_vec=1e9, clip_norm_mat=1e9, lr_schedule="constant",
        )
    loss, maps = step(params, pos, [noise], cfg, 0)

    fi = params.vocab.field_index
    assert maps == [("M", fi[ARG]), ("Minv", fi[SUBJ]), ("Minv", fi[COMP])]
    v, uy, uz = before.V[0], before.U[1], before.U[2]
    A, B, Bn = before.M[fi[ARG]], before.Minv[fi[SUBJ]], before.Minv[fi[COMP]]
    s_pos = v @ A @ B @ uy
    s_neg = v @ A @ Bn @ uz
    g_pos = 1 / (1 + math.exp(-s_pos)) - 1
    g_neg = 1 / (1 + math.exp(-s_neg))
    assert abs(loss - (math.log(1 + math.exp(-s_pos)) + math.log(1 + math.exp(s_neg)))) < 1e-12

    exp_v = v - 0.05 * (g_pos * (A @ B @ uy) + g_neg * (A @ Bn @ uz))
    exp_uy = uy - 0.05 * (g_pos * (v @ A @ B))
    exp_uz = uz - 0.05 * (g_neg * (v @ A @ Bn))
    exp_A = A - 0.01 * (g_pos * np.outer(v, B @ uy) + g_neg * np.outer(v, Bn @ uz))
    exp_B = B - 0.01 * (g_pos * np.outer(v @ A, uy))
    exp_Bn = Bn - 0.01 * (g_neg * np.outer(v @ A, uz))
    assert np.allclose(params.V[0], exp_v, atol=1e-10)
    assert np.allclose(params.U[1], exp_uy, atol=1e-10)
    assert np.allclose(params.U[2], exp_uz, atol=1e-10)
    assert np.allclose(params.M[fi[ARG]], exp_A, atol=1e-10)
    assert np.allclose(params.Minv[fi[SUBJ]], exp_B, atol=1e-10)
    assert np.allclose(params.Minv[fi[COMP]], exp_Bn, atol=1e-10)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    cfg = TrainConfig(dim=8, gamma=0.001, kappa=0.0001)
    h = 1e-5
    for trial in range(6):
        params = make_params(rng, dim=8)
        l = int(rng.integers(1, 3))
        field_pool = list(FIELDS)
        rng.shuffle(field_pool)
        hops = tuple((field_pool[2 * t], field_pool[2 * t + 1]) for t in range(l))
        i = int(rng.integers(2, 2 * l + 1))
        noise = (i, tuple(field_pool[4 : 4 + (2 * l - i + 1)]), w("w2"))
        pos, [noise] = id_example(params.vocab, w("w0"), w("w1"), hops, noise)
        grads = gradient_dict(loss_and_gradients(params, pos, [noise], cfg))

        for (kind, idx), g in grads.items():
            analytic = dense_gradient(g)  # a map's factors as their dense product
            table = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}[kind]
            base = table[idx].copy()

            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                mi = it.multi_index
                table[idx][mi] = base[mi] + h
                up = nce_loss(params, pos, [noise])
                table[idx][mi] = base[mi] - h
                down = nce_loss(params, pos, [noise])
                table[idx][mi] = base[mi]
                fd[mi] = (up - down) / (2 * h)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-4, f"trial {trial} {kind}[{idx}]: rel error {rel}"


def test_step_sparse_update_footprint():
    rng = np.random.default_rng(9)
    params = make_params(rng, dim=6, dtype=np.float32)
    before = params.copy()
    vocab = make_vocab()
    pos, _ = id_example(vocab, w("w3"), w("w4"), ((ARG, SUBJ), (COMP, "of")))
    (noises,) = make_noise([pos], vocab, np.random.default_rng(1), k=1)
    cfg = TrainConfig(dim=6, lr_schedule="constant")
    step(params, pos, noises, cfg, 0)

    changed_vectors = sum(
        not np.array_equal(before.V[i], params.V[i]) for i in range(len(params.words))
    ) + sum(not np.array_equal(before.U[i], params.U[i]) for i in range(len(params.words)))
    changed_mats = sum(
        not np.array_equal(before.M[i], params.M[i]) for i in range(len(FIELDS))
    ) + sum(not np.array_equal(before.Minv[i], params.Minv[i]) for i in range(len(FIELDS)))
    assert changed_vectors <= 3
    assert changed_mats <= 3
    # and everything else is bit-identical, checked row by row above


def test_step_zero_learning_rates_keep_params():
    rng = np.random.default_rng(10)
    params = make_params(rng, dtype=np.float32)
    before = params.copy()
    cfg = TrainConfig(dim=5, lr_vec=0.0, lr_mat=0.0, lr_schedule="constant")
    loss, _ = step(params, *sample(1, (2, (ARG,), w("w2"))), cfg, 0)
    assert math.isfinite(loss) and loss > 0
    assert np.array_equal(before.V, params.V)
    assert np.array_equal(before.U, params.U)
    assert np.array_equal(before.M, params.M)
    assert np.array_equal(before.Minv, params.Minv)


def test_gradient_clipping_bounds_applied_norms():
    rng = np.random.default_rng(11)
    params = make_params(rng)
    params.V[0] *= 50  # force large gradients
    params.U[1] *= 50
    with pytest.warns(UserWarning):  # deliberately large matrix lr
        cfg = TrainConfig(dim=5, lr_vec=1.0, lr_mat=1.0, gamma=0.0, kappa=0.0,
                          clip_norm_vec=0.01, clip_norm_mat=0.005, lr_schedule="constant")
    before = params.copy()
    step(params, *sample(1, (2, (COMP,), w("w2"))), cfg, 0)
    for table_b, table_a, bound in (
        (before.V, params.V, 0.01),
        (before.U, params.U, 0.01),
        (before.M, params.M, 0.005),
        (before.Minv, params.Minv, 0.005),
    ):
        deltas = np.linalg.norm(
            (table_a - table_b).reshape(len(table_a), -1), axis=1
        )
        assert np.all(deltas <= bound + 1e-12)


def test_regularizer_zero_at_orthogonal_inverse_pair():
    rng = np.random.default_rng(12)
    Q = random_orthogonal(rng, 6)
    gpen, kpen = regularizer_penalties(Q, Q.T, 0.001, 0.0001)
    assert gpen < 1e-25 and kpen < 1e-25
    gM, gMinv = regularizer_grads(Q, Q.T, 0.001, 0.0001)
    assert np.linalg.norm(gM) < 1e-12 and np.linalg.norm(gMinv) < 1e-12


def test_regularizer_hand_computed_penalties():
    M = np.diag([2.0, 1.0])
    Minv = np.eye(2)
    gamma, kappa = 0.001, 0.0001
    # Minv M = diag(2, 1), trace 3, scaled identity 1.5 I:
    #   || diag(0.5, -0.5) ||_F^2 = 0.5
    # M^T M = diag(4, 1), trace 5, scaled identity 2.5 I:
    #   || diag(1.5, -1.5) ||_F^2 = 4.5
    gpen, kpen = regularizer_penalties(M, Minv, gamma, kappa)
    assert abs(gpen - gamma * 0.5) < 1e-15
    assert abs(kpen - kappa * 4.5) < 1e-15


def test_regularizer_grads_match_finite_differences():
    rng = np.random.default_rng(13)
    gamma, kappa = 0.003, 0.0007
    h = 1e-6
    for _ in range(5):
        M = np.eye(4) + rng.standard_normal((4, 4)) * 0.4
        Minv = np.eye(4) + rng.standard_normal((4, 4)) * 0.4
        gM, gMinv = regularizer_grads(M, Minv, gamma, kappa)

        def total(Mx, Mix):
            a, b = regularizer_penalties(Mx, Mix, gamma, kappa)
            return a + b

        for grad, which in ((gM, "M"), (gMinv, "Minv")):
            fd = np.zeros((4, 4))
            for r in range(4):
                for c in range(4):
                    dm = np.zeros((4, 4))
                    dm[r, c] = h
                    if which == "M":
                        fd[r, c] = (total(M + dm, Minv) - total(M - dm, Minv)) / (2 * h)
                    else:
                        fd[r, c] = (total(M, Minv + dm) - total(M, Minv - dm)) / (2 * h)
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(fd)
            assert rel <= 1e-5


def _per_key_regularizer_grads(M, Minv, gamma, kappa):
    # reference regularizer: both outputs, all five products and np.eye
    # temporaries on every call, with the accumulation order (0 + a) + b
    d = M.shape[0]
    M = np.asarray(M, dtype=np.float64)
    Minv = np.asarray(Minv, dtype=np.float64)
    gM = np.zeros((d, d))
    gMinv = np.zeros((d, d))
    if gamma != 0.0:
        B = Minv @ M
        E = B - (np.trace(B) / d) * np.eye(d)
        gM += 2.0 * gamma * (Minv.T @ E)
        gMinv += 2.0 * gamma * (E @ M.T)
    if kappa != 0.0:
        F = M.T @ M
        F = F - (np.trace(F) / d) * np.eye(d)
        gM += 4.0 * kappa * (M @ F)
    return gM, gMinv


FID = {f: i for i, f in enumerate(FIELDS)}

# (positive hops, noise (i, fields, word), the kinds each listed field must be updated as)
FUSION_CASES = [
    # M[SUBJ] and Minv[ARG] on the path, boundary noise map Minv[COMP]
    (((SUBJ, ARG), (COMP, "of")), (2, (COMP, "in", "on"), w("w2")),
     {SUBJ: {"M"}, ARG: {"Minv"}, COMP: {"Minv"}}),
    # M[COMP] only on the path; noise map M["to"] also M-only
    (((SUBJ, ARG), (COMP, "of")), (3, ("to", "in"), w("w2")),
     {ARG: {"Minv"}, COMP: {"M"}, "to": {"M"}}),
    # one field touched as both M and Minv
    (((ARG, ARG),), (2, (COMP,), w("w3")), {ARG: {"M", "Minv"}, COMP: {"Minv"}}),
    # the noise map is the positive-path map Minv[SUBJ]
    (((ARG, SUBJ),), (2, (SUBJ,), w("w3")), {ARG: {"M"}, SUBJ: {"Minv"}}),
    # noise map M[ARG] meets Minv[ARG] of the positive path
    (((SUBJ, ARG), (COMP, "of")), (3, (ARG, "of"), w("w4")),
     {ARG: {"M", "Minv"}, COMP: {"M"}}),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("gamma, kappa", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.003), (0.01, 0.003)])
@pytest.mark.parametrize("case", range(len(FUSION_CASES)))
def test_fused_regularizer_matches_per_key_oracle(case, gamma, kappa, dtype):
    """The case's step updates the maps it lists, and for each of their
    fields `regularizer_grads` gives, for every pair of maps
    `regularize_maps` can ask for, the per-key oracle's gradients bitwise
    and None for a map not asked for."""
    hops, noise, expected_kinds = FUSION_CASES[case]
    params = make_params(np.random.default_rng(20 + case), dim=7, dtype=dtype)
    pos, noises = id_example(params.vocab, w("w0"), w("w1"), hops, noise)
    maps = updated_maps(pos, noises, "full")
    assert maps == {(FID[f], kind == "Minv") for f, kinds in expected_kinds.items() for kind in kinds}
    _, _, grads, _ = loss_and_gradients(params, pos, noises, TrainConfig(dim=7))
    assert {(fid, kind == "Minv") for kind, fid in grads} == maps
    for fid in sorted({fid for fid, _ in maps}):
        want = _per_key_regularizer_grads(params.M[fid], params.Minv[fid], gamma, kappa)
        for need in ((True, False), (False, True), (True, True)):
            got = regularizer_grads(
                params.M[fid], params.Minv[fid], gamma, kappa, need_M=need[0], need_Minv=need[1]
            )
            for g, expected, asked in zip(got, want, need):
                if asked:
                    assert g.dtype == np.float64 and np.array_equal(g, expected), (fid, need)
                else:
                    assert g is None


def test_regularizer_grads_skips_outputs_not_asked_for():
    rng = np.random.default_rng(23)
    M = np.eye(5) + rng.standard_normal((5, 5)) * 0.3
    Minv = np.eye(5) + rng.standard_normal((5, 5)) * 0.3
    gM, gMinv = regularizer_grads(M, Minv, 0.01, 0.003)
    only_M = regularizer_grads(M, Minv, 0.01, 0.003, need_Minv=False)
    only_Minv = regularizer_grads(M, Minv, 0.01, 0.003, need_M=False)
    assert only_M[1] is None and np.array_equal(only_M[0], gM)
    assert only_Minv[0] is None and np.array_equal(only_Minv[1], gMinv)
    assert regularizer_grads(M, Minv, 0.01, 0.003, need_M=False, need_Minv=False) == (None, None)


def toy_corpus():
    eat = w("eat", "V")
    trees = []
    for food in ("bread", "soup", "rice"):
        for person in ("farmer", "doctor"):
            trees.append(
                DcsTree(
                    (w(person), eat, w(food)),
                    1,
                    (Edge(1, 0, SUBJ, ARG), Edge(1, 2, COMP, ARG)),
                )
            )
    return trees


def test_train_zero_epochs_returns_init():
    trees = toy_corpus()
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=6, epochs=0, seed=5)
    params, stats = train(trees, vocab, cfg)
    reference = init_params(
        vocab, 6, np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0])
    )
    assert np.array_equal(params.V, reference.V)
    assert np.array_equal(params.M, reference.M)
    assert stats.total_steps == 0


def test_train_is_bitwise_deterministic():
    trees = toy_corpus()
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=6, epochs=2, seed=9, workers=1)
    p1, s1 = train(trees, vocab, cfg)
    p2, s2 = train(trees, vocab, cfg)
    assert np.array_equal(p1.V, p2.V)
    assert np.array_equal(p1.U, p2.U)
    assert np.array_equal(p1.M, p2.M)
    assert np.array_equal(p1.Minv, p2.Minv)
    assert s1.total_steps == s2.total_steps


def test_train_no_matrix_keeps_identity():
    trees = toy_corpus()
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=6, epochs=2, seed=3, mode="no_matrix")
    params, _ = train(trees, vocab, cfg)
    eye = np.eye(6, dtype=np.float32)
    for i in range(vocab.n_fields):
        assert np.array_equal(params.M[i], eye)
        assert np.array_equal(params.Minv[i], eye)


def test_train_no_inverse_equals_gamma_zero():
    trees = toy_corpus()
    vocab = build_vocab(trees, 1, 1)
    a, _ = train(trees, vocab, TrainConfig(dim=6, epochs=1, seed=4, mode="no_inverse", gamma=0.9))
    b, _ = train(trees, vocab, TrainConfig(dim=6, epochs=1, seed=4, mode="full", gamma=0.0))
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.Minv, b.Minv)
    assert np.array_equal(a.V, b.V)


def test_train_loss_decreases_monotonically_on_toy_corpus():
    trees = toy_corpus() * 30
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=8, epochs=3, seed=10)
    _, stats = train(trees, vocab, cfg)
    losses = [e.mean_loss for e in stats.epochs]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


@pytest.mark.parametrize("mode", MODES)
def test_any_worker_count_writes_the_one_thread_model(mode):
    # training runs on one thread, so workers is accepted and ignored
    rng = np.random.default_rng(38)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(40)]
    vocab = build_vocab(trees, 1, 1)

    def model_bytes(workers):
        cfg = TrainConfig(dim=6, epochs=2, seed=12, workers=workers, mode=mode)
        params, _ = train(trees, vocab, cfg)
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        return buf.getvalue()

    one = model_bytes(1)
    assert model_bytes(2) == one
    assert model_bytes(4) == one


def test_non_finite_gradient_aborts_with_diagnostics(monkeypatch):
    rng = np.random.default_rng(14)
    params = make_params(rng)
    params.V[0] = np.inf

    cfg = TrainConfig(dim=5, lr_schedule="constant")
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteGradient) as err:
        step(params, *sample(1, (2, (ARG,), w("w2"))), cfg, 41)
    assert "step 41" in str(err.value)
    # a vector gradient is checked before it is applied, also with no map to follow
    before = params.copy()
    for bad in (math.inf, math.nan):
        g = np.ones(5)
        g[3] = bad
        with pytest.raises(NonFiniteGradient, match=r"^step 3: gradient for u\[1\] has norm (inf|nan)$"):
            step_on(monkeypatch, params, cfg, 3, {("u", 1): g}, {}, [])
        assert np.array_equal(params.U, before.U)


def test_config_warns_on_large_matrix_lr():
    with pytest.warns(UserWarning):
        TrainConfig(lr_mat=0.001)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(noise_per_example=0)


@pytest.mark.parametrize("gamma, kappa", [(1e308, 0.0), (0.0, 5e307), (math.nan, 0.0), (0.0, math.inf)])
def test_config_rejects_regularizer_weights_whose_gradient_weight_overflows(gamma, kappa):
    # regularizer_grads scales by 2 gamma and 4 kappa
    with pytest.raises(InvalidConfig, match="regularizer weights"):
        TrainConfig(gamma=gamma, kappa=kappa)
    TrainConfig(gamma=8e307, kappa=4e307)


@pytest.mark.parametrize("total_steps", [-5, 0])
def test_config_rejects_total_steps_below_one(total_steps):
    # -5 made the linear "decay" raise the LR tenfold; 0 made it constant
    with pytest.raises(InvalidConfig, match="total_steps"):
        TrainConfig(total_steps=total_steps)


def test_config_accepts_total_steps_none_or_positive():
    lr_scale = importlib.import_module("dcsvec.train")._lr_scale
    assert TrainConfig().total_steps is None
    cfg = TrainConfig(lr_vec=0.1, total_steps=1)
    assert [lr_scale(cfg, i) for i in (0, 1, 5)] == [1.0, 1.0 - 0.9, 1.0 - 0.9]
    assert [lr_at(0.1, cfg, i) for i in (0, 1, 5)] == [0.1, 0.1 * (1.0 - 0.9), 0.1 * (1.0 - 0.9)]


def test_a_direct_step_without_total_steps_runs_at_the_initial_rates():
    """`train()` fills in ``total_steps`` for the linear decay; a direct
    `step` call whose config leaves it None steps at the initial learning
    rates at any step index, as the constant schedule does."""
    rng = np.random.default_rng(15)
    params = make_params(rng, dim=6)
    pos, noises = sample(2, (3, ("in", "on"), w("w2")))
    linear = TrainConfig(dim=6)
    assert linear.lr_schedule == "linear" and linear.total_steps is None
    want = params.copy()
    step(want, pos, noises, dataclasses.replace(linear, lr_schedule="constant"), 0)
    for index in (0, 10**6):
        got = params.copy()
        step(got, pos, noises, linear, index)
        for name in ("V", "U", "M", "Minv"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (index, name)
    decayed = params.copy()
    step(decayed, pos, noises, dataclasses.replace(linear, total_steps=10), 10**6)
    assert not np.array_equal(decayed.V, want.V)


def test_expected_steps_are_the_exact_path_mass_rounded_once(monkeypatch):
    """`expected_steps_per_epoch` is the exact sum of the path weights,
    rounded to float once; `train()` decays over the ceiling of epochs
    times that float."""
    rng = np.random.default_rng(1)
    trees = [random_tree(rng, int(rng.integers(15, 34))) for _ in range(6)]
    exact = sum(sum(exact_path_sums(tree)[0]) for tree in trees)
    # rounding each path's, node's or tree's mass before summing drifts
    # from the exact total on this corpus
    assert sum(p.weight for tree in trees for p in enumerate_paths(tree)) != float(exact)
    assert expected_steps_per_epoch(trees + [DcsTree((w("alone"),), 0, ())]) == float(exact)
    train_mod = importlib.import_module("dcsvec.train")
    lr_scale, decays_over = train_mod._lr_scale, set()
    monkeypatch.setattr(train_mod, "_lr_scale", lambda cfg, i: decays_over.add(cfg.total_steps) or lr_scale(cfg, i))
    train(trees, build_vocab(trees, 1, 1), TrainConfig(dim=4, epochs=2, seed=3))
    assert decays_over == {math.ceil(2 * float(exact))}


def test_stats_log_line_format():
    trees = toy_corpus()
    vocab = build_vocab(trees, 1, 1)
    lines = []
    train(trees, vocab, TrainConfig(dim=4, epochs=2, seed=1), log=lines.append)
    assert len(lines) == 2
    for line in lines:
        epoch, steps, loss, speed = line.split("\t")
        int(epoch), int(steps), float(loss), float(speed)


# --- the dense oracle: one step in every mode ------------------------------
#
# `dense_loss_and_gradients` is the one independent implementation of
# `loss_and_gradients` here, and `oracle_step` the one of `step`; every
# bitwise step test goes through them.  The oracle builds each map
# gradient as a sum of g * outer(row, column) terms and also returns those
# terms, per map key a list of (slot j, row, g * column) in the order it
# adds them.  `map_factors` gathers the terms into the (row, column) pairs
# `loss_and_gradients` returns, and `oracle_step` applies the pairs by the
# factored rule.


def dense_loss_and_gradients(params, pos, noises, config):
    """Slow-path oracle of `loss_and_gradients` in every mode: each map read
    from the table at every product (a float32 map is cast inside each
    product), dense np.outer map gradients and a fresh array per
    accumulation.  `no_matrix` scores the path with no map slots, so each
    noise replaces only the end word; gamma and kappa are not read.
    Returns (loss, gradients, map terms)."""
    train_module = importlib.import_module("dcsvec.train")
    sigmoid, softplus = train_module._sigmoid, train_module.softplus

    def slot_mat(fid, inv):
        return params.Minv[fid] if inv else params.M[fid]

    xi, yi = pos.start, pos.end
    grads = {}

    def add(key, value):
        if key in grads:
            grads[key] = grads[key] + value
        else:
            grads[key] = value

    slots = [] if config.mode == "no_matrix" else [
        slot for near, far in pos.hops for slot in ((near, False), (far, True))
    ]
    two_l = len(slots)
    v = params.V[xi].astype(np.float64)
    u = params.U[yi].astype(np.float64)
    rows = [v]
    for fid, inv in slots:
        rows.append(rows[-1] @ slot_mat(fid, inv))
    cols = [None] * (two_l + 1)
    cols[two_l] = u
    for j in range(two_l - 1, -1, -1):
        cols[j] = slot_mat(*slots[j]) @ cols[j + 1]

    s_pos = float(rows[two_l] @ u)
    g_pos = sigmoid(s_pos) - 1.0
    loss = softplus(-s_pos)
    add(("v", xi), g_pos * cols[0])
    add(("u", yi), g_pos * rows[two_l])

    noise_data = []
    for noise in noises:
        ri = min(noise.i - 1, two_l)
        nslots = [
            (noise.fields[j - ri], slots[j][1]) if j >= ri else slots[j] for j in range(two_l)
        ]
        zi = noise.word
        ncols = [None] * (two_l + 1)
        ncols[two_l] = params.U[zi].astype(np.float64)
        for j in range(two_l - 1, -1, -1):
            ncols[j] = slot_mat(*nslots[j]) @ ncols[j + 1]
        s_neg = float(rows[ri] @ ncols[ri])
        g_neg = sigmoid(s_neg)
        loss += softplus(s_neg)
        add(("v", xi), g_neg * ncols[0])
        nr = rows[ri]
        for j in range(ri, two_l):
            nr = nr @ slot_mat(*nslots[j])
        add(("u", zi), g_neg * nr)
        noise_data.append((ri, nslots, ncols, g_neg))

    terms = {}
    if not slots:
        return loss, grads, terms

    selected = sorted({j for ri, _, _, _ in noise_data for j in (ri - 1, ri)})
    for j in selected:
        fid, inv = slots[j]
        key = ("Minv" if inv else "M", fid)
        g = g_pos * np.outer(rows[j], cols[j + 1])
        terms.setdefault(key, []).append((j, rows[j], g_pos * cols[j + 1]))
        for ri, _, ncols, g_neg in noise_data:
            if j < ri:
                g = g + g_neg * np.outer(rows[j], ncols[j + 1])
                terms[key].append((j, rows[j], g_neg * ncols[j + 1]))
        add(key, g)
    for ri, nslots, ncols, g_neg in noise_data:
        fid, inv = nslots[ri]
        key = ("Minv" if inv else "M", fid)
        add(key, g_neg * np.outer(rows[ri], ncols[ri + 1]))
        terms.setdefault(key, []).append((ri, rows[ri], g_neg * ncols[ri + 1]))
    return loss, grads, terms


def map_factors(terms):
    """Per map key, one (row, column) pair per slot, in the order the slots
    first appear; a slot's column is the sum of its terms' columns, added
    in term order."""
    out = {}
    for key, key_terms in terms.items():
        by_slot = {}
        for j, row, column in key_terms:
            by_slot[j] = (row, by_slot[j][1] + column) if j in by_slot else (row, column)
        out[key] = list(by_slot.values())
    return out


def lr_at(initial, config, step_index):
    """The learning rate of step ``step_index``: linear decay to 10% of
    ``initial`` over ``config.total_steps``; ``initial`` itself under the
    constant schedule or while ``total_steps`` is None."""
    if config.lr_schedule == "constant" or config.total_steps is None:
        return initial
    return initial * (1.0 - 0.9 * min(step_index / config.total_steps, 1.0))


UNIT_ROUNDOFF = 2.0**-53


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of n
    successive float64 roundings."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def product_bound(key_terms):
    """Entrywise bound on |dense oracle - dense product of the factors| for
    a map with T rank-one terms.  Each entry is a sum of T exact terms
    row_a * g * column_b.  The oracle rounds a term twice (the outer
    product, then g) and the sum T - 1 times; the factors round g * column
    once, the column sum T - 1 times, row_a times the column once, and the
    sum over at most T pairs T - 1 times.  So each side is within
    gamma(2T + 1) times sum |row_a| |g column_b| of the exact entry, and
    the difference within twice that (gamma(2T + 2) also covers rounding
    in the magnitude itself)."""
    n = 2 * len(key_terms) + 2
    return 2 * gamma(n) * sum(np.abs(r)[:, None] * np.abs(c)[None, :] for _, r, c in key_terms)


def factored_norm_oracle(pairs):
    """The clip norm from the factors: sqrt((r.r)(c.c)) for one pair; for
    several, rows R and columns C, sqrt of the sum of (R R^T) * (C C^T)."""
    if len(pairs) == 1:
        ((r, c),) = pairs
        return math.sqrt(float(r @ r) * float(c @ c))
    R = np.stack([r for r, _ in pairs])
    C = np.stack([c for _, c in pairs])
    return math.sqrt(max(float(((R @ R.T) * (C @ C.T)).sum()), 0.0))


def apply_factors_oracle(table, idx, pairs, lr, clip):
    """The factored map update: s = lr * min(1, clip / norm) with the norm
    from the factors, then table[idx] -= (s r) ⊗ c for each pair."""
    norm = factored_norm_oracle(pairs)
    s = lr * (clip / norm) if norm > clip else lr
    for r, c in pairs:
        table[idx] -= (s * r)[:, None] * c[None, :]


def map_keys(grads):
    return [key for key in grads if key[0] in ("M", "Minv")]


def oracle_step(params, pos, noises, config, step_index):
    """Slow-path oracle of `step`: the dense oracle's gradients, each vector
    clipped by np.linalg.norm and written back as float64 arithmetic cast
    to the table's dtype, each map applied from the oracle's factors.
    Returns the loss and the map keys."""
    loss, grads, terms = dense_loss_and_gradients(params, pos, noises, config)
    factors = map_factors(terms)
    lr_v = lr_at(config.lr_vec, config, step_index)
    lr_m = lr_at(config.lr_mat, config, step_index)
    for (kind, idx), g in grads.items():
        table = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}[kind]
        if kind in ("M", "Minv"):
            apply_factors_oracle(table, idx, factors[kind, idx], lr_m, config.clip_norm_mat)
            continue
        norm = float(np.linalg.norm(g))
        if norm > config.clip_norm_vec:
            g = g * (config.clip_norm_vec / norm)
        table[idx] = (table[idx].astype(np.float64) - lr_v * g).astype(table.dtype)
    return loss, map_keys(grads)


def random_example(rng, vocab, k):
    l = int(rng.integers(1, 4))
    hops = tuple(
        (FIELDS[int(rng.integers(len(FIELDS)))], FIELDS[int(rng.integers(len(FIELDS)))])
        for _ in range(l)
    )
    start, end = (w(f"w{int(i)}") for i in rng.integers(0, 8, size=2))
    pos, _ = id_example(vocab, start, end, hops)
    (noises,) = make_noise([pos], vocab, rng, k=k)
    # one noise word equal to the end word, so its u gradient accumulates
    noises[0] = dataclasses.replace(noises[0], word=pos.end)
    return pos, noises


def boundary_noise_on_the_path(pos, noises):
    """The first noise's boundary map made the positive path's map at
    that slot: same field, same parity."""
    ri = noises[0].i - 1
    near_or_far = pos.hops[ri // 2][ri % 2]
    first = dataclasses.replace(noises[0], fields=(near_or_far,) + noises[0].fields[1:])
    return [first] + noises[1:]


def field_twice_on_the_path(pos, noises):
    """The path's last hop made a copy of its first, so a field's maps
    appear twice on the path (and in any noise keeping those slots)."""
    return dataclasses.replace(pos, hops=pos.hops[:-1] + pos.hops[:1]), noises


def rank_two_examples(vocab):
    """Examples whose map gradients need two factor pairs, and one whose
    boundary noise map joins the pair of its slot."""
    return [
        # ARG's M and SUBJ's Minv each at two updated slots
        id_example(vocab, w("w0"), w("w1"), ((ARG, SUBJ), (ARG, SUBJ)),
                   (2, (COMP, "in", "on"), w("w2")), (4, ("of",), w("w3"))),
        # the boundary noise map Minv[COMP] of the noise at slot 3 is the
        # positive path's map at slot 1, which the other noise updates
        id_example(vocab, w("w0"), w("w1"), ((ARG, COMP), (SUBJ, ARG)),
                   (2, ("in", "on", "to"), w("w2")), (4, (COMP,), w("w4"))),
        # the boundary noise map Minv[SUBJ] is slot 1's own map: one pair
        id_example(vocab, w("w0"), w("w1"), ((ARG, SUBJ),), (2, (SUBJ,), w("w2"))),
    ]


def assert_same_factors(got, want, key):
    assert len(got) == len(want), key
    for got_pair, want_pair in zip(got, want):
        for a, b in zip(got_pair, want_pair):
            assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b), key


def assert_same_gradients(got, want):
    """Two `loss_and_gradients` results are bitwise equal: the loss, the
    keys and their order, every vector gradient and every map factor."""
    assert got[0] == want[0]
    got_grads, want_grads = gradient_dict(got), gradient_dict(want)
    assert list(got_grads) == list(want_grads)
    for key, g in want_grads.items():
        if isinstance(g, list):
            assert_same_factors(got_grads[key], g, key)
        else:
            assert got_grads[key].dtype == g.dtype
            assert np.array_equal(got_grads[key], g), key


def assert_matches_dense_oracle(got, want):
    """``got`` is a `loss_and_gradients` result, ``want`` the dense
    oracle's (loss, gradients, map terms).  Bitwise: the loss, the keys and their
    order, the vector gradients, and each map's factors against the
    oracle's terms gathered by `map_factors`.  Each map's dense product of
    factors lies within `product_bound` of the oracle's dense gradient."""
    loss, grads = got[0], gradient_dict(got)
    want_loss, want, terms = want
    assert loss == want_loss
    assert list(grads) == list(want)
    factors = map_factors(terms)
    assert sorted(factors) == sorted(map_keys(want))
    for key, g in want.items():
        if key in factors:
            assert_same_factors(grads[key], factors[key], key)
            assert np.all(np.abs(dense_gradient(grads[key]) - g) <= product_bound(terms[key])), key
        else:
            assert grads[key].dtype == g.dtype
            assert np.array_equal(grads[key], g), key


# a field as both maps, and twice on the path: (positive hops, noise)
BOTH_MAPS_CASES = [
    (((ARG, ARG), (ARG, ARG)), (3, (ARG, ARG), w("w1"))),
    (((SUBJ, ARG), (SUBJ, ARG)), (2, (SUBJ, ARG, SUBJ), w("w2"))),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mode", MODES)
def test_every_mode_matches_its_oracle_bitwise(mode, k, dtype):
    """`loss_and_gradients` against the dense oracle, by
    `assert_matches_dense_oracle`: random examples of 1-3 hops with k
    noises, some with a field twice on the path or the first noise's
    boundary map on it, at dims 2-12 with scores from small to saturating;
    then, at every dim, the two cases of a field as both maps and
    `rank_two_examples`."""
    rng = np.random.default_rng(30 + k)
    vocab = make_vocab()
    cfg = TrainConfig(dim=6, gamma=0.02, kappa=0.005, mode=mode)
    cases = []
    twice = 0
    for trial in range(150):
        pos, noises = random_example(rng, vocab, k)
        if trial % 4 == 1 and len(pos.hops) >= 2:
            pos, noises = field_twice_on_the_path(pos, noises)
            twice += 1
        if trial % 4 == 2:
            noises = boundary_noise_on_the_path(pos, noises)
        cases.append((int(rng.integers(2, 13)), pos, noises))
    fixed = [id_example(vocab, w("w0"), w("w1"), hops, noise) for hops, noise in BOTH_MAPS_CASES]
    cases += [(dim, pos, noises) for dim in range(2, 13) for pos, noises in fixed + rank_two_examples(vocab)]
    hop_counts, ranks = set(), collections.Counter()
    for trial, (dim, pos, noises) in enumerate(cases):
        params = make_params(rng, dim=dim, dtype=dtype)
        params.V *= 1 + 3 * (trial % 3)  # scores from small to saturating
        got = loss_and_gradients(params, pos, noises, cfg)
        assert_matches_dense_oracle(got, dense_loss_and_gradients(params, pos, noises, cfg))
        hop_counts.add(len(pos.hops))
        ranks.update(len(pairs) for pairs in got[2].values())
    assert hop_counts == {1, 2, 3} and twice >= 10
    if mode == "no_matrix":
        assert not ranks  # no map key
    else:
        assert ranks[1] > len(cases) and ranks[2] >= 10


def loop_edge_example(vocab, k):
    """An edge case of `step`'s clip-and-apply pass, and its map slots in
    `full`.  k = 1: slot 1's map Minv[SUBJ] and the boundary map Minv[COMP]
    share the forward row rows[1], whose r.r the step computes once.
    k = 3: M[ARG] sits at slots 0 and 2 and Minv[SUBJ] at 1 and 3, so both
    take the k-pair norm."""
    if k == 1:
        example = id_example(vocab, w("w0"), w("w1"), ((ARG, SUBJ),), (2, (COMP,), w("w2")))
        return example, {("M", FID[ARG]): [0], ("Minv", FID[SUBJ]): [1], ("Minv", FID[COMP]): [1]}
    example = id_example(
        vocab, w("w0"), w("w1"), ((ARG, SUBJ), (ARG, SUBJ)),
        (2, (COMP, "in", "on"), w("w2")), (3, ("of", "to"), w("w3")), (4, ("at",), w("w1")),
    )
    slots = {("M", FID[ARG]): [0, 2], ("Minv", FID[SUBJ]): [1, 3], ("Minv", FID[COMP]): [1],
             ("M", FID["of"]): [2], ("Minv", FID["at"]): [3]}
    return example, slots


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", MODES)
def test_step_updates_in_place_like_the_oracle(mode, dtype):
    """`step` against `oracle_step` with k = 1 and k = 3 noises, every table
    bitwise equal after every step.  Large scores and a large map rate, so
    gradients are clipped and the maps' bits move; some examples have a
    field twice on the path or the first noise's boundary map on it, and
    the last ones are `loop_edge_example`'s; each example runs twice in a
    row, so the second step reads the rows the first just wrote."""
    with pytest.warns(UserWarning):  # a matrix lr large enough to move the maps' bits
        cfg = TrainConfig(dim=6, lr_mat=0.05, gamma=0.02, kappa=0.005, mode=mode, total_steps=120)
    for k in (1, 3):
        rng = np.random.default_rng(50 + k)
        vocab = make_vocab()
        params = make_params(rng, dim=6, dtype=dtype)
        params.V *= 4  # large scores, so some gradients are clipped
        before = params.copy()
        expected = params.copy()
        hop_counts = set()
        index = twice = clipped = 0
        (edge_pos, edge_noises), edge_slots = loop_edge_example(vocab, k)
        for trial in range(63):
            pos, noises = random_example(rng, vocab, k)
            if trial % 3 == 0 and len(pos.hops) >= 2:
                pos, noises = field_twice_on_the_path(pos, noises)
                twice += 1
            if trial % 2:
                noises = boundary_noise_on_the_path(pos, noises)
            if trial >= 60:
                pos, noises = edge_pos, edge_noises
                maps = loss_and_gradients(params, pos, noises, cfg)[2]
                slots = {key: [j for j, _ in pairs] for key, pairs in maps.items()}
                assert slots == ({} if mode == "no_matrix" else edge_slots)
            hop_counts.add(len(pos.hops))
            _, grads, _ = dense_loss_and_gradients(expected, pos, noises, cfg)
            clipped += any(
                np.linalg.norm(g) > (cfg.clip_norm_vec if kind in ("v", "u") else cfg.clip_norm_mat)
                for (kind, _), g in grads.items()
            )
            for _ in range(2):
                assert step(params, pos, noises, cfg, index) == oracle_step(expected, pos, noises, cfg, index)
                for name in ("V", "U", "M", "Minv"):
                    assert getattr(params, name).dtype == dtype
                    assert np.array_equal(getattr(params, name), getattr(expected, name)), (k, index, name)
                index += 1
        assert hop_counts == {1, 2, 3} and twice >= 10 and clipped >= 10
        assert not np.array_equal(params.U, before.U)
        assert np.array_equal(params.M, before.M) == (mode == "no_matrix")


def test_training_bytes_match_the_oracle_step_in_every_mode(monkeypatch):
    """`train()` with `step` swapped for `oracle_step` writes the same model
    in every mode, and the step sees float64 tables."""
    rng = np.random.default_rng(34)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(60)]
    vocab = build_vocab(trees, 1, 1)
    train_module = importlib.import_module("dcsvec.train")
    dtypes = set()

    def recording_oracle_step(params, pos, noises, config, step_index):
        dtypes.update(getattr(params, name).dtype for name in ("V", "U", "M", "Minv"))
        return oracle_step(params, pos, noises, config, step_index)

    def model_bytes(mode):
        cfg = TrainConfig(dim=8, epochs=2, seed=7, gamma=0.02, kappa=0.005, mode=mode)
        params, stats = train(trees, vocab, cfg)
        assert params.M.dtype == np.float32 and stats.total_steps >= 300
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        return buf.getvalue()

    fast = {mode: model_bytes(mode) for mode in MODES}
    monkeypatch.setattr(train_module, "step", recording_oracle_step)
    for mode in MODES:
        assert model_bytes(mode) == fast[mode], mode
    assert dtypes == {np.dtype(np.float64)}  # train() steps on float64 tables
    assert len(set(fast.values())) == 3


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", MODES)
def test_every_step_runs_without_the_regularizer(mode, k):
    """A step's loss, gradient keys and values, and the tables it writes,
    are bitwise the same whatever gamma and kappa are, and in no_inverse
    the same as in full: only `regularize_maps` reads them."""
    rng = np.random.default_rng(35 + k)
    vocab = make_vocab()
    params = make_params(rng, dim=6)
    plain = TrainConfig(dim=6, gamma=0.0, kappa=0.0, mode=mode, total_steps=20)
    others = [
        dataclasses.replace(plain, gamma=0.5),
        dataclasses.replace(plain, kappa=0.3),
        dataclasses.replace(plain, gamma=0.02, kappa=0.005),
    ]
    if mode == "no_inverse":
        others.append(dataclasses.replace(plain, mode="full"))
    for index in range(20):
        pos, noises = random_example(rng, vocab, k)
        want = loss_and_gradients(params, pos, noises, plain)
        stepped = params.copy()
        step(stepped, pos, noises, plain, index)
        for cfg in others:
            assert_same_gradients(loss_and_gradients(params, pos, noises, cfg), want)
            got = params.copy()
            assert step(got, pos, noises, cfg, index) == (want[0], list(want[2]))
            for name in ("V", "U", "M", "Minv"):
                assert np.array_equal(getattr(got, name), getattr(stepped, name)), (cfg, name)
        params = stepped


def test_no_inverse_is_read_by_a_direct_call():
    rng = np.random.default_rng(35)
    vocab = make_vocab()
    params = make_params(rng, dim=6)
    no_inverse = TrainConfig(dim=6, mode="no_inverse", gamma=0.5)
    full_without_gamma = TrainConfig(dim=6, mode="full", gamma=0.0)
    for _ in range(20):
        pos, noises = random_example(rng, vocab, 2)
        got = loss_and_gradients(params, pos, noises, no_inverse)
        assert_same_gradients(got, loss_and_gradients(params, pos, noises, full_without_gamma))


def block_rule_oracle_model(trees, vocab, cfg, block_trees):
    """Slow-path oracle of `train()` with the block regularizer written out.

    Each step is `oracle_step`, and the maps it updates are the map keys
    it returns.  After the last step of each block of ``block_trees``
    trees, each field those steps touched, in ascending row, gets one
    per-key regularizer call on its maps as they stand (gamma 0 in
    no_inverse); each touched map's output is clipped like a step's and
    subtracted at n times the map rate of the block's last step, n the
    number of the block's steps that touched the map.
    Returns the model bytes, the step count and the largest n."""
    init_seq, walk_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(vocab, cfg.dim, np.random.default_rng(init_seq))
    if cfg.mode == "no_matrix":
        identity_maps(params)
    for name in ("V", "U", "M", "Minv"):
        setattr(params, name, getattr(params, name).astype(np.float64))
    sampler_rng, noise_rng = (np.random.default_rng(s) for s in walk_seq.spawn(2))
    gamma = 0.0 if cfg.mode == "no_inverse" else cfg.gamma
    index = most = 0
    for _ in range(cfg.epochs):
        for first in range(0, len(trees), block_trees):
            paths = [p for tree in trees[first : first + block_trees] for p in sample_paths(tree, vocab, sampler_rng)]
            counts = collections.Counter()
            for pos, noises in zip(paths, make_noise(paths, vocab, noise_rng, cfg.noise_per_example)):
                _, maps = oracle_step(params, pos, noises, cfg, index)
                counts.update(maps)
                index += 1
            lr = lr_at(cfg.lr_mat, cfg, index - 1)
            for fid in sorted({fid for _, fid in counts}):
                gM, gMinv = _per_key_regularizer_grads(params.M[fid], params.Minv[fid], gamma, cfg.kappa)
                for kind, g, table in (("M", gM, params.M), ("Minv", gMinv, params.Minv)):
                    n = counts[kind, fid]
                    if n:
                        norm = float(np.linalg.norm(g))
                        if norm > cfg.clip_norm_mat:
                            g = g * (cfg.clip_norm_mat / norm)
                        table[fid] = table[fid] - (n * lr) * g
            most = max([most, *counts.values()])
    for name in ("V", "U", "M", "Minv"):
        setattr(params, name, getattr(params, name).astype(np.float32))
    buf = io.BytesIO()
    save_model(params, vocab, buf)
    return buf.getvalue(), index, most


def test_training_bytes_match_the_block_rule_oracle_in_every_mode(monkeypatch):
    rng = np.random.default_rng(39)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(60)]
    vocab = build_vocab(trees, 1, 1)
    train_module = importlib.import_module("dcsvec.train")
    monkeypatch.setattr(train_module, "NOISE_BLOCK_TREES", 7)  # 8 blocks of 7 trees, then one of 4
    models = set()
    for mode in MODES:
        cfg = TrainConfig(
            dim=8, epochs=2, seed=10, gamma=0.02, kappa=0.005, mode=mode, total_steps=700
        )
        params, stats = train(trees, vocab, cfg)
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        want, steps, most = block_rule_oracle_model(trees, vocab, cfg, 7)
        assert stats.total_steps == steps >= 300
        assert buf.getvalue() == want, mode
        assert most >= (0 if mode == "no_matrix" else 3)  # blocks weight a map by its step count
        models.add(want)
    # full and no_inverse differ only in the gamma of the block regularizer
    assert len(models) == 3


@pytest.mark.parametrize("mode", MODES)
def test_regularizer_runs_after_each_block_with_the_modes_gamma(monkeypatch, mode):
    """At most one regularizer call per field, all after the block's last
    step; gamma is 0 in no_inverse, and no_matrix never regularizes."""
    train_module = importlib.import_module("dcsvec.train")
    real_step, real_noise, real_reg = train_module.step, train_module.make_noise, train_module.regularizer_grads
    events, block_sizes = [], []

    def recording_step(params, pos, noises, config, step_index):
        events.append(("step", step_index))
        return real_step(params, pos, noises, config, step_index)

    def recording_noise(samples, vocab, rng, k=1):
        block_sizes.append(len(samples))
        return real_noise(samples, vocab, rng, k)

    def recording_reg(M, Minv, gamma, kappa, **flags):
        if mode == "no_matrix":
            raise AssertionError("no_matrix regularizes no map")
        events.append(("reg", gamma, kappa))
        return real_reg(M, Minv, gamma, kappa, **flags)

    monkeypatch.setattr(train_module, "step", recording_step)
    monkeypatch.setattr(train_module, "make_noise", recording_noise)
    monkeypatch.setattr(train_module, "regularizer_grads", recording_reg)
    monkeypatch.setattr(train_module, "NOISE_BLOCK_TREES", 5)
    rng = np.random.default_rng(37)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(23)]
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=6, epochs=2, seed=9, gamma=0.02, kappa=0.005, mode=mode)
    _, stats = train(trees, vocab, cfg)
    assert len(block_sizes) == 10
    ends = set(np.cumsum(block_sizes) - 1)
    regs = [event for event in events if event[0] == "reg"]
    if mode == "no_matrix":
        assert not regs and len(events) == stats.total_steps
        return
    assert set(regs) == {("reg", 0.0 if mode == "no_inverse" else cfg.gamma, cfg.kappa)}
    last_step, after_end = None, []
    for event in events:
        if event[0] == "step":
            last_step = event[1]
            after_end.append(0)
        else:
            assert last_step in ends
            after_end[-1] += 1
    per_block = [after_end[end] for end in sorted(ends)]
    assert all(1 <= n <= vocab.n_fields for n in per_block)
    assert sum(per_block) == len(regs)


def test_regularize_maps_applies_each_counted_map_at_its_count():
    train_module = importlib.import_module("dcsvec.train")
    rng = np.random.default_rng(24)
    params = make_params(rng, dim=6)
    params.M[FID[ARG]] *= 3  # a regularizer gradient past the clip norm
    before = params.copy()
    cfg = TrainConfig(dim=6, gamma=0.02, kappa=0.005, total_steps=100)
    # ARG counted as M only, SUBJ as both maps, COMP as Minv only
    counts = {("M", FID[ARG]): 3, ("Minv", FID[SUBJ]): 1, ("M", FID[SUBJ]): 2, ("Minv", FID[COMP]): 2}
    train_module.regularize_maps(params, counts, cfg, 40)
    lr = lr_at(cfg.lr_mat, cfg, 40)
    clipped = 0
    for (kind, fid), n in counts.items():
        inv = kind == "Minv"
        gM, gMinv = regularizer_grads(before.M[fid], before.Minv[fid], cfg.gamma, cfg.kappa)
        g = gMinv if inv else gM
        norm = float(np.linalg.norm(g))
        if norm > cfg.clip_norm_mat:
            g = g * (cfg.clip_norm_mat / norm)
            clipped += 1
        table, old = (params.Minv, before.Minv) if inv else (params.M, before.M)
        assert np.array_equal(table[fid], old[fid] - (n * lr) * g)
    assert clipped >= 1
    assert np.array_equal(params.Minv[FID[ARG]], before.Minv[FID[ARG]])
    assert np.array_equal(params.M[FID[COMP]], before.M[FID[COMP]])
    for fid in set(range(len(FIELDS))) - {FID[ARG], FID[SUBJ], FID[COMP]}:
        assert np.array_equal(params.M[fid], before.M[fid])
        assert np.array_equal(params.Minv[fid], before.Minv[fid])
    params.M[FID[COMP]] = np.inf
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
        NonFiniteGradient, match="regularizer after step 7: gradient for M"
    ):
        train_module.regularize_maps(params, {("M", FID[COMP]): 1}, cfg, 7)


def test_import_dcsvec_train_gives_the_module():
    import dcsvec.train as module

    assert isinstance(module, types.ModuleType)
    assert callable(module.train)


# --- the sampler as train() drives it ------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_train_samples_each_listed_tree_once_per_epoch_in_chunk_order(monkeypatch, workers):
    train_module = importlib.import_module("dcsvec.train")
    real_sample = train_module.sample_paths
    calls = []

    def recording_sample(tree, vocab, rng):
        out = real_sample(tree, vocab, rng)
        calls.append((id(rng), tree, out))
        return out

    monkeypatch.setattr(train_module, "sample_paths", recording_sample)
    trees = toy_corpus() * 4  # every tree object is listed four times
    vocab = build_vocab(trees, 1, 1)
    epochs = 3
    _, stats = train(trees, vocab, TrainConfig(dim=6, epochs=epochs, seed=2, workers=workers))

    assert len(calls) == epochs * len(trees)
    assert sum(len(out) for *_, out in calls) == stats.total_steps
    # one sampler walks the whole corpus, in order, every epoch, whatever
    # `workers` says: the corpus is one chunk
    assert len({rng_id for rng_id, *_ in calls}) == 1
    assert [tree for _, tree, _ in calls] == trees * epochs


def test_train_draws_noise_once_per_block_of_trees(monkeypatch):
    train_module = importlib.import_module("dcsvec.train")
    real_noise = train_module.make_noise
    blocks = []

    def recording_noise(samples, vocab, rng, k=1):
        blocks.append(len(samples))
        return real_noise(samples, vocab, rng, k)

    real_step = train_module.step
    losses = []

    def recording_step(*args):
        loss, maps = real_step(*args)
        losses.append(loss)
        return loss, maps

    monkeypatch.setattr(train_module, "make_noise", recording_noise)
    monkeypatch.setattr(train_module, "step", recording_step)
    monkeypatch.setattr(train_module, "NOISE_BLOCK_TREES", 5)
    trees = toy_corpus() * 2  # 12 trees: blocks of 5, 5 and 2 per epoch
    vocab = build_vocab(trees, 1, 1)
    _, stats = train(trees, vocab, TrainConfig(dim=4, epochs=2, seed=3))
    per_tree = len(sample_paths(trees[0], vocab, np.random.default_rng(0)))  # every tree is a 3-chain
    assert blocks == [5 * per_tree, 5 * per_tree, 2 * per_tree] * 2
    assert sum(blocks) == stats.total_steps == len(losses)
    # each epoch's stats cover that epoch's steps, across its blocks
    half = len(losses) // 2
    assert [e.steps for e in stats.epochs] == [half, 2 * half]
    means = [sum(losses[:half]) / half, sum(losses[half:]) / half]
    assert [e.mean_loss for e in stats.epochs] == pytest.approx(means, rel=1e-12)


# --- map gradients as factors: norms, clipping, order, memory -------------


def step_on(monkeypatch, params, cfg, step_index, vectors, maps, rows):
    """`step` applying the given gradients: `loss_and_gradients` answers
    with them, so the clip-and-apply pass runs on chosen factors."""
    train_module = importlib.import_module("dcsvec.train")
    with monkeypatch.context() as patch:
        patch.setattr(train_module, "loss_and_gradients", lambda *args: (0.0, vectors, maps, rows))
        return step(params, None, [], cfg, step_index)


def factor_params(d, table):
    """A one-field model of dim d whose M[0] is ``table`` (float64)."""
    params = make_params(np.random.default_rng(0), dim=d, n_words=2)
    params.M = table[None].copy()
    return params


def test_factored_norm_matches_the_dense_norm():
    """The clip norm that `step` takes from the factors (stated by
    `factored_norm_oracle`, which `oracle_step` applies and `step` matches
    bitwise) against np.linalg.norm of the factors' dense product.  Both
    squares lie within gamma(n) * S of the exact ||G||^2, where S is
    ||G||^2 of the factors' absolute values: the factored sum rounds each
    entry of R R^T and C C^T (d products each), their product and the k^2
    sum; the dense route rounds each entry's k-term sum and the d^2-term
    sum of squares."""
    rng = np.random.default_rng(71)
    vocab = make_vocab()
    cfg = TrainConfig(dim=6)
    examples = [random_example(rng, vocab, int(rng.integers(1, 4))) for _ in range(150)]
    examples += [field_twice_on_the_path(*ex) for ex in examples[:60] if len(ex[0].hops) >= 2]
    examples += rank_two_examples(vocab)
    ranks = collections.Counter()
    for pos, noises in examples:
        dim = int(rng.integers(2, 30))
        params = make_params(rng, dim=dim)
        for key, pairs in gradient_dict(loss_and_gradients(params, pos, noises, cfg)).items():
            if key[0] not in ("M", "Minv"):
                continue
            k = len(pairs)
            ranks[k] += 1
            got = factored_norm_oracle(pairs)
            want = float(np.linalg.norm(dense_gradient(pairs)))
            S = np.linalg.norm(dense_gradient([(np.abs(r), np.abs(c)) for r, c in pairs])) ** 2
            assert abs(got**2 - want**2) <= gamma(dim * dim + 2 * dim + k * k + 3 * k + 8) * S, (key, k)
            if k == 1:
                ((r, c),) = pairs
                assert got == math.sqrt(float(r @ r) * float(c @ c))
    assert ranks[1] > 300 and ranks[2] >= 10


@pytest.mark.parametrize("rank", [1, 2])
def test_factored_update_below_at_and_above_the_clip(rank, monkeypatch):
    """`step` applies a map's factors at lr * min(1, clip / norm)."""
    d = 6
    r = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    c = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    rows = [r, np.array([0.0, 0.0, 4.0, 0.0, 0.0, 3.0])]
    pairs = [(0, c)] if rank == 1 else [(0, c), (1, c)]
    norm = 5.0 * math.sqrt(rank)  # exact for rank 1; the second pair is orthogonal to the first
    lr = 0.5

    def config(clip):
        with pytest.warns(UserWarning):  # a matrix lr far above the warning level
            return TrainConfig(dim=d, lr_mat=lr, clip_norm_mat=clip, lr_schedule="constant")

    for clip, s in ((2 * norm, lr), (norm, lr), (norm / 4, lr * ((norm / 4) / norm))):
        params = factor_params(d, np.zeros((d, d)))
        assert step_on(monkeypatch, params, config(clip), 0, {}, {("M", 0): pairs}, rows) == (0.0, [("M", 0)])
        want = np.zeros((d, d))
        for j, pc in pairs:
            want -= (s * rows[j])[:, None] * pc[None, :]
        assert np.array_equal(params.M[0], want), clip
        assert abs(np.linalg.norm(params.M[0]) - lr * min(norm, clip)) <= 1e-15 * norm
    # random factors: the applied update has norm lr * min(norm, clip)
    rng = np.random.default_rng(72)
    for _ in range(50):
        rows = [rng.standard_normal(d) for _ in range(rank)]
        pairs = [(j, rng.standard_normal(d)) for j in range(rank)]
        norm = float(np.linalg.norm(dense_gradient([(rows[j], pc) for j, pc in pairs])))
        for clip in (norm / 3, norm * 3):
            before = rng.standard_normal((d, d))
            params = factor_params(d, before)
            step_on(monkeypatch, params, config(clip), 0, {}, {("M", 0): pairs}, rows)
            assert abs(np.linalg.norm(before - params.M[0]) - lr * min(norm, clip)) <= 1e-12 * norm


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("side", ["row", "column"])
def test_a_non_finite_factor_is_a_non_finite_gradient(bad, rank, side, monkeypatch):
    rng = np.random.default_rng(73)
    params = make_params(rng, dim=5)
    before = params.copy()
    rows = [rng.standard_normal(5) for _ in range(rank)]
    pairs = [(j, rng.standard_normal(5)) for j in range(rank)]
    (rows[-1] if side == "row" else pairs[-1][1])[2] = bad
    cfg = TrainConfig(dim=5, lr_mat=0.0001, clip_norm_mat=0.1)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
        NonFiniteGradient, match=r"^step 3: gradient for Minv\[2\] has norm (inf|nan)$"
    ):
        step_on(monkeypatch, params, cfg, 3, {}, {("Minv", 2): pairs}, rows)
    assert np.array_equal(params.Minv, before.Minv)  # nothing is applied


def test_step_returns_the_map_keys_it_applies(monkeypatch):
    """`step` returns the map keys of `loss_and_gradients`, in order, and
    applies them in that order: with key p's gradient made non-finite, the
    step raises after updating exactly the keys before p."""
    rng = np.random.default_rng(74)
    vocab = make_vocab()
    train_module = importlib.import_module("dcsvec.train")
    real = train_module.loss_and_gradients
    for mode in MODES:
        cfg = TrainConfig(dim=6, mode=mode, lr_schedule="constant")
        for _ in range(30):
            params = make_params(rng, dim=6)
            pos, noises = random_example(rng, vocab, int(rng.integers(1, 4)))
            keys = list(real(params, pos, noises, cfg)[2])
            before = params.copy()
            _, maps = step(params, pos, noises, cfg, 0)
            assert maps == keys
            assert {(fid, kind == "Minv") for kind, fid in maps} == updated_maps(pos, noises, mode)
            assert changed_maps(before, params) == set(maps)
            for p, key in enumerate(keys):
                result = real(before, pos, noises, cfg)
                result[2][key][0][1][0] = math.nan
                got = before.copy()
                with pytest.raises(NonFiniteGradient, match=rf"gradient for {key[0]}\[{key[1]}\]"):
                    step_on(monkeypatch, got, cfg, 0, *result[1:])
                assert changed_maps(before, got) == set(keys[:p]), (mode, p)


def changed_maps(before, after):
    return {
        (name, fid)
        for name in ("M", "Minv")
        for fid in range(len(before.M))
        if not np.array_equal(getattr(after, name)[fid], getattr(before, name)[fid])
    }


def test_train_runs_loss_and_gradients_once_per_step(monkeypatch):
    """One forward/backward per step: `step` calls `loss_and_gradients`
    once and `train()` no more."""
    train_module = importlib.import_module("dcsvec.train")
    real = train_module.loss_and_gradients
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(train_module, "loss_and_gradients", counting)
    trees = toy_corpus() * 3
    _, stats = train(trees, build_vocab(trees, 1, 1), TrainConfig(dim=6, epochs=2, seed=4))
    assert len(calls) == stats.total_steps > 0


def test_one_dim_250_step_allocates_about_one_map():
    """A dim-250 step holds one d x d product at a time: its traced peak
    stays below 1.5 d^2 float64s (dense gradients took about 4 d^2)."""
    d = 250
    rng = np.random.default_rng(75)
    params = make_params(rng, dim=d)
    cfg = TrainConfig(dim=d, lr_schedule="constant")
    pos, noises = sample(2, (3, ("in", "on"), w("w2")))
    step(params, pos, noises, cfg, 0)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        _, maps = step(params, pos, noises, cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == 3
    assert peak < 1.5 * d * d * 8, peak / (d * d * 8)


def test_step_timing_script_runs_at_a_tiny_size(tmp_path, capsys):
    """`tests/step_timing.py` at a tiny size: one line per dim, and the JSON
    block with a step count, CPU times, dot calls and the model's SHA-256."""
    step_timing = importlib.import_module("step_timing")
    out = tmp_path / "timing.json"
    assert step_timing.main(["--sentences", "40", "--dims", "3", "4", "--repeats", "2", "--json", str(out)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["dim 3", "dim 4"]
    block = json.loads(out.read_text(encoding="utf-8"))
    assert [row["dim"] for row in block["dims"]] == [3, 4]
    for row in block["dims"]:
        assert row["steps"] > 0 and row["step_us"] > 0 and row["train_us_per_step"] >= row["step_us"]
        assert row["dot_calls_per_step"] > 5 and len(row["sha256"]) == 64
    assert importlib.import_module("dcsvec.train").step is step  # the wrappers are gone
