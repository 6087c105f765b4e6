import dataclasses
import importlib
import io
import itertools
import math
import types

import numpy as np
import pytest
from scipy import stats

from dcsvec.errors import InvalidConfig
from dcsvec.model import ModelParams, init_params, save_model
from dcsvec.train import (
    MODES,
    TrainConfig,
    loss_and_gradients,
    make_noise,
    regularizer_grads,
    regularizer_penalties,
    step,
    train,
)
from dcsvec.trees import ARG, COMP, SUBJ, DcsTree, Edge, Word
from dcsvec.vocab import Vocabulary, build_vocab, sample_paths
from helpers import id_example, nce_loss, random_orthogonal, random_tree


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
    loss = step(params, pos, [noise], cfg, 0)

    fi = params.vocab.field_index
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
        loss, grads = loss_and_gradients(params, pos, [noise], cfg)

        for (kind, idx), analytic in grads.items():
            table = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}[kind]
            base = table[idx].copy()

            def objective():
                value = nce_loss(params, pos, [noise])
                if kind in ("M", "Minv"):
                    gpen, kpen = regularizer_penalties(
                        params.M[idx], params.Minv[idx], cfg.gamma, cfg.kappa
                    )
                    value += gpen + (kpen if kind == "M" else 0.0)
                return value

            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                mi = it.multi_index
                table[idx][mi] = base[mi] + h
                up = objective()
                table[idx][mi] = base[mi] - h
                down = objective()
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
    loss = step(params, *sample(1, (2, (ARG,), w("w2"))), cfg, 0)
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


def per_key_loss_and_gradients(params, pos, noises, config):
    """Slow-path oracle: the data gradients of loss_and_gradients, then one
    full regularizer call per touched map key."""
    unregularized = dataclasses.replace(config, gamma=0.0, kappa=0.0)
    loss, grads = loss_and_gradients(params, pos, noises, unregularized)
    if config.gamma != 0.0 or config.kappa != 0.0:
        for kind, fid in [key for key in grads if key[0] in ("M", "Minv")]:
            gM, gMinv = _per_key_regularizer_grads(
                params.M[fid], params.Minv[fid], config.gamma, config.kappa
            )
            grads[(kind, fid)] = grads[(kind, fid)] + (gM if kind == "M" else gMinv)
    return loss, grads


def touched_kinds(grads):
    kinds = {}
    for kind, fid in grads:
        if kind in ("M", "Minv"):
            kinds.setdefault(fid, set()).add(kind)
    return kinds


FID = {f: i for i, f in enumerate(FIELDS)}

# (positive hops, noise (i, fields, word), the kinds each listed field must be touched as)
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
    hops, noise, expected_kinds = FUSION_CASES[case]
    params = make_params(np.random.default_rng(20 + case), dim=7, dtype=dtype)
    second = (2, tuple(FIELDS[: 2 * len(hops) - 1]), w("w5"))
    for extra in ((), (second,)):
        pos, noises = id_example(params.vocab, w("w0"), w("w1"), hops, noise, *extra)
        cfg = TrainConfig(dim=7, gamma=gamma, kappa=kappa)
        loss, grads = loss_and_gradients(params, pos, noises, cfg)
        want_loss, want = per_key_loss_and_gradients(params, pos, noises, cfg)
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for key in want:
            assert grads[key].dtype == want[key].dtype
            assert np.array_equal(grads[key], want[key]), key
    kinds = touched_kinds(loss_and_gradients(params, pos, noises[:1], cfg)[1])
    for f, expected in expected_kinds.items():
        assert kinds[FID[f]] == expected


def test_fused_regularizer_training_bytes_match_per_key_oracle(monkeypatch):
    rng = np.random.default_rng(21)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(60)]
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=8, epochs=2, seed=6, workers=1, gamma=0.02, kappa=0.005)
    train_module = importlib.import_module("dcsvec.train")

    def model_bytes():
        params, stats = train(trees, vocab, cfg)
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        return buf.getvalue(), stats.total_steps

    fused, steps = model_bytes()
    monkeypatch.setattr(train_module, "loss_and_gradients", per_key_loss_and_gradients)
    per_key, oracle_steps = model_bytes()
    assert steps == oracle_steps and steps >= 300
    assert fused == per_key


def test_regularizer_runs_once_per_touched_field(monkeypatch):
    train_module = importlib.import_module("dcsvec.train")
    real = train_module.regularizer_grads
    calls = []

    def counting(M, Minv, gamma, kappa, **flags):
        out = real(M, Minv, gamma, kappa, **flags)
        calls.append((flags["need_M"], flags["need_Minv"], out))
        return out

    monkeypatch.setattr(train_module, "regularizer_grads", counting)
    rng = np.random.default_rng(22)
    vocab = make_vocab()
    params = make_params(rng, dim=6)
    seen = set()
    for _ in range(60):
        l = int(rng.integers(1, 3))
        hops = tuple(
            (FIELDS[int(rng.integers(3))], FIELDS[int(rng.integers(3))]) for _ in range(l)
        )
        pos, _ = id_example(vocab, w("w0"), w("w1"), hops)
        (noises,) = make_noise([pos], vocab, rng, k=int(rng.integers(1, 3)))
        calls.clear()
        _, grads = loss_and_gradients(params, pos, noises, TrainConfig(dim=6))
        kinds = touched_kinds(grads)
        assert len(calls) == len(kinds)
        assert sorted((m, i) for m, i, _ in calls) == sorted(
            ("M" in k, "Minv" in k) for k in kinds.values()
        )
        for need_M, need_Minv, (gM, gMinv) in calls:
            assert (gM is not None) == need_M and (gMinv is not None) == need_Minv
            seen.add((need_M, need_Minv))
    assert seen == {(True, False), (False, True), (True, True)}

    calls.clear()
    pos, noises = sample(2, (2, (ARG, SUBJ, COMP), w("w2")))
    loss_and_gradients(params, pos, noises, TrainConfig(dim=6, gamma=0.0, kappa=0.0))
    loss_and_gradients(params, pos, noises, TrainConfig(dim=6, mode="no_matrix"))
    assert calls == []


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


def test_non_finite_gradient_aborts_with_diagnostics():
    rng = np.random.default_rng(14)
    params = make_params(rng)
    params.V[0] = np.inf
    from dcsvec.errors import NonFiniteGradient

    cfg = TrainConfig(dim=5, lr_schedule="constant")
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteGradient) as err:
        step(params, *sample(1, (2, (ARG,), w("w2"))), cfg, 41)
    assert "step 41" in str(err.value)


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


@pytest.mark.parametrize("total_steps", [-5, 0])
def test_config_rejects_total_steps_below_one(total_steps):
    # -5 made the linear "decay" raise the LR tenfold; 0 made it constant
    with pytest.raises(InvalidConfig, match="total_steps"):
        TrainConfig(total_steps=total_steps)


def test_config_accepts_total_steps_none_or_positive():
    lr_at = importlib.import_module("dcsvec.train")._lr_at
    assert TrainConfig().total_steps is None
    cfg = TrainConfig(lr_vec=0.1, total_steps=1)
    assert [lr_at(0.1, cfg, i) for i in (0, 1, 5)] == [0.1, 0.1 * (1.0 - 0.9), 0.1 * (1.0 - 0.9)]


def test_stats_log_line_format():
    trees = toy_corpus()
    vocab = build_vocab(trees, 1, 1)
    lines = []
    train(trees, vocab, TrainConfig(dim=4, epochs=2, seed=1), log=lines.append)
    assert len(lines) == 2
    for line in lines:
        epoch, steps, loss, speed = line.split("\t")
        int(epoch), int(steps), float(loss), float(speed)


# --- one step for every mode ----------------------------------------------


def separate_no_matrix_loss_and_gradients(params, pos, noises, config):
    """Slow-path oracle: the additive model's own forward/backward,
    s+ = v.u and s- = v.u_z, with no map touched."""
    train_module = importlib.import_module("dcsvec.train")
    sigmoid, softplus = train_module._sigmoid, train_module.softplus
    grads = {}

    def add(key, value):
        grads[key] = grads[key] + value if key in grads else value

    xi, yi = pos.start, pos.end
    v = params.V[xi].astype(np.float64)
    u = params.U[yi].astype(np.float64)
    s_pos = float(v @ u)
    g_pos = sigmoid(s_pos) - 1.0
    loss = softplus(-s_pos)
    add(("v", xi), g_pos * u)
    add(("u", yi), g_pos * v)
    for noise in noises:
        zi = noise.word
        uz = params.U[zi].astype(np.float64)
        s_neg = float(v @ uz)
        g_neg = sigmoid(s_neg)
        loss += softplus(s_neg)
        add(("v", xi), g_neg * uz)
        add(("u", zi), g_neg * v)
    return loss, grads


def mode_oracle_loss_and_gradients(params, pos, noises, config):
    """Slow-path oracle of all three modes: no_matrix through its separate
    forward/backward, no_inverse as full with gamma set to 0."""
    if config.mode == "no_matrix":
        return separate_no_matrix_loss_and_gradients(params, pos, noises, config)
    if config.mode == "no_inverse":
        config = dataclasses.replace(config, mode="full", gamma=0.0)
    return per_key_loss_and_gradients(params, pos, noises, config)


def oracle_step(params, pos, noises, config, step_index):
    """Slow-path oracle of `step`: the mode oracle's gradients, each
    clipped and written back as float64 arithmetic cast to the table."""
    lr_at = importlib.import_module("dcsvec.train")._lr_at
    loss, grads = mode_oracle_loss_and_gradients(params, pos, noises, config)
    lr_v = lr_at(config.lr_vec, config, step_index)
    lr_m = lr_at(config.lr_mat, config, step_index)
    for (kind, idx), g in grads.items():
        is_vec = kind in ("v", "u")
        clip = config.clip_norm_vec if is_vec else config.clip_norm_mat
        norm = float(np.linalg.norm(g))
        if norm > clip:
            g = g * (clip / norm)
        table = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}[kind]
        lr = lr_v if is_vec else lr_m
        table[idx] = (table[idx].astype(np.float64) - lr * g).astype(table.dtype)
    return loss


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mode", ["full", "no_matrix", "no_inverse"])
def test_every_mode_matches_its_oracle_bitwise(mode, k, dtype):
    rng = np.random.default_rng(30 + k)
    vocab = make_vocab()
    params = make_params(rng, dim=6, dtype=dtype)
    cfg = TrainConfig(dim=6, gamma=0.02, kappa=0.005, mode=mode)
    hop_counts = set()
    for _ in range(40):
        pos, noises = random_example(rng, vocab, k)
        hop_counts.add(len(pos.hops))
        loss, grads = loss_and_gradients(params, pos, noises, cfg)
        want_loss, want = mode_oracle_loss_and_gradients(params, pos, noises, cfg)
        assert loss == want_loss
        assert list(grads) == list(want)
        for key in want:
            assert grads[key].dtype == want[key].dtype
            assert np.array_equal(grads[key], want[key]), key
        if mode == "no_matrix":
            assert all(kind in ("v", "u") for kind, _ in grads)
    assert hop_counts == {1, 2, 3}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["full", "no_matrix", "no_inverse"])
def test_step_updates_in_place_like_the_oracle(mode, dtype):
    rng = np.random.default_rng(33)
    vocab = make_vocab()
    params = make_params(rng, dim=6, dtype=dtype)
    params.V *= 4  # large scores, so some gradients are clipped
    before = params.copy()
    expected = params.copy()
    cfg = TrainConfig(dim=6, gamma=0.02, kappa=0.005, mode=mode, total_steps=60)
    for index in range(60):
        pos, noises = random_example(rng, vocab, int(rng.integers(1, 4)))
        assert step(params, pos, noises, cfg, index) == oracle_step(
            expected, pos, noises, cfg, index
        )
    for name in ("V", "U", "M", "Minv"):
        assert getattr(params, name).dtype == dtype
        assert np.array_equal(getattr(params, name), getattr(expected, name)), name
    assert not np.array_equal(params.U, before.U)
    assert np.array_equal(params.M, before.M) == (mode == "no_matrix")


def test_training_bytes_match_the_mode_oracle_in_every_mode(monkeypatch):
    rng = np.random.default_rng(34)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(60)]
    vocab = build_vocab(trees, 1, 1)
    train_module = importlib.import_module("dcsvec.train")

    def model_bytes(mode):
        cfg = TrainConfig(dim=8, epochs=2, seed=7, workers=1, gamma=0.02, kappa=0.005, mode=mode)
        params, stats = train(trees, vocab, cfg)
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        return buf.getvalue(), stats.total_steps

    modes = ("full", "no_matrix", "no_inverse")
    fast = {mode: model_bytes(mode) for mode in modes}
    monkeypatch.setattr(train_module, "step", oracle_step)
    slow = {mode: model_bytes(mode) for mode in modes}
    for mode in modes:
        assert fast[mode][1] == slow[mode][1] and fast[mode][1] >= 300
        assert fast[mode][0] == slow[mode][0], mode
    assert len({fast[mode][0] for mode in modes}) == 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", MODES)
def test_lazy_regularization_schedule(monkeypatch, mode, workers):
    """Steps whose index is a multiple of REG_EVERY get REG_EVERY x gamma
    and kappa, every other step gets 0, and nothing else in the config
    changes; the indices run 0, 1, 2, ... whatever `workers` says."""
    rng = np.random.default_rng(36)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(30)]
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(
        dim=6, epochs=2, seed=8, workers=workers, gamma=0.02, kappa=0.005, mode=mode,
        total_steps=500,
    )
    train_module = importlib.import_module("dcsvec.train")
    real_step = train_module.step
    calls = []

    def recording_step(params, pos, noises, config, step_index):
        calls.append((step_index, config))
        return real_step(params, pos, noises, config, step_index)

    monkeypatch.setattr(train_module, "step", recording_step)
    _, stats = train(trees, vocab, cfg)
    every = train_module.REG_EVERY
    assert every > 1
    assert [index for index, _ in calls] == list(range(stats.total_steps))
    for index, config in calls:
        scale = every if index % every == 0 else 0
        assert (config.gamma, config.kappa) == (cfg.gamma * scale, cfg.kappa * scale), index
        assert dataclasses.replace(config, gamma=cfg.gamma, kappa=cfg.kappa) == cfg
    assert {config.gamma for _, config in calls} == {0.0, cfg.gamma * every}


def test_reg_every_one_trains_the_every_step_model(monkeypatch):
    rng = np.random.default_rng(37)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(60)]
    vocab = build_vocab(trees, 1, 1)
    cfg = TrainConfig(dim=8, epochs=2, seed=9, workers=1, gamma=0.02, kappa=0.005)
    train_module = importlib.import_module("dcsvec.train")
    real_step = train_module.step

    def model_bytes():
        params, _ = train(trees, vocab, cfg)
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        return buf.getvalue()

    def callers_config_step(params, pos, noises, config, step_index):
        own = dataclasses.replace(config, gamma=cfg.gamma, kappa=cfg.kappa)
        return real_step(params, pos, noises, own, step_index)

    lazy = model_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(train_module, "REG_EVERY", 1)
        every_step = model_bytes()
    monkeypatch.setattr(train_module, "step", callers_config_step)
    assert model_bytes() == every_step
    assert lazy != every_step


def test_no_inverse_is_read_by_a_direct_call():
    rng = np.random.default_rng(35)
    vocab = make_vocab()
    params = make_params(rng, dim=6)
    no_inverse = TrainConfig(dim=6, mode="no_inverse", gamma=0.5)
    full_without_gamma = TrainConfig(dim=6, mode="full", gamma=0.0)
    for _ in range(20):
        pos, noises = random_example(rng, vocab, 2)
        got = loss_and_gradients(params, pos, noises, no_inverse)
        want = loss_and_gradients(params, pos, noises, full_without_gamma)
        assert got[0] == want[0]
        assert list(got[1]) == list(want[1])
        for key in want[1]:
            assert np.array_equal(got[1][key], want[1][key]), key


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


# --- maps read from the tables, float32 or float64 -----------------------


def uncached_regularizer_grads(M, Minv, gamma, kappa, *, need_M=True, need_Minv=True):
    """Slow-path oracle: `regularizer_grads` casting its own inputs, with
    np.trace and a .flat diagonal."""

    def trace_centered(B):
        d = B.shape[0]
        B.flat[:: d + 1] -= np.trace(B) / d
        return B

    d = M.shape[0]
    M = np.asarray(M, dtype=np.float64)
    Minv = np.asarray(Minv, dtype=np.float64)
    gM = gMinv = None
    if gamma != 0.0:
        E = trace_centered(Minv @ M)
        if need_M:
            gM = Minv.T @ E
            gM *= 2.0 * gamma
        if need_Minv:
            gMinv = E @ M.T
            gMinv *= 2.0 * gamma
    if kappa != 0.0 and need_M:
        term = M @ trace_centered(M.T @ M)
        term *= 4.0 * kappa
        if gM is None:
            gM = term
        else:
            gM += term
    if need_M and gM is None:
        gM = np.zeros((d, d))
    if need_Minv and gMinv is None:
        gMinv = np.zeros((d, d))
    return gM, gMinv


def uncached_loss_and_gradients(params, pos, noises, config):
    """Slow-path oracle: `loss_and_gradients` reading each map from the
    table at every product (a float32 map is cast inside each product),
    with np.outer and a fresh array per accumulation."""
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
    gamma = 0.0 if config.mode == "no_inverse" else config.gamma
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

    if not slots:
        return loss, grads

    selected = sorted({j for ri, _, _, _ in noise_data for j in (ri - 1, ri)})
    for j in selected:
        fid, inv = slots[j]
        g = g_pos * np.outer(rows[j], cols[j + 1])
        for ri, _, ncols, g_neg in noise_data:
            if j < ri:
                g = g + g_neg * np.outer(rows[j], ncols[j + 1])
        add(("Minv" if inv else "M", fid), g)
    for ri, nslots, ncols, g_neg in noise_data:
        fid, inv = nslots[ri]
        add(("Minv" if inv else "M", fid), g_neg * np.outer(rows[ri], ncols[ri + 1]))

    if gamma != 0.0 or config.kappa != 0.0:
        touched = {}
        for kind, fid in grads:
            if kind in ("M", "Minv"):
                touched.setdefault(fid, set()).add(kind)
        for fid, kinds in touched.items():
            reg = uncached_regularizer_grads(
                params.M[fid], params.Minv[fid], gamma, config.kappa,
                need_M="M" in kinds, need_Minv="Minv" in kinds,
            )
            for kind, g in zip(("M", "Minv"), reg):
                if g is not None:
                    grads[(kind, fid)] = grads[(kind, fid)] + g
    return loss, grads


def uncached_step(params, pos, noises, config, step_index):
    """Slow-path oracle of `step` on the uncached gradients, with np.linalg.norm."""
    lr_at = importlib.import_module("dcsvec.train")._lr_at
    loss, grads = uncached_loss_and_gradients(params, pos, noises, config)
    lr_v = lr_at(config.lr_vec, config, step_index)
    lr_m = lr_at(config.lr_mat, config, step_index)
    tables = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}
    for (kind, idx), g in grads.items():
        is_vec = kind in ("v", "u")
        clip = config.clip_norm_vec if is_vec else config.clip_norm_mat
        norm = float(np.linalg.norm(g))
        if norm > clip:
            g = g * (clip / norm)
        tables[kind][idx] -= (lr_v if is_vec else lr_m) * g
    return loss


def boundary_noise_on_the_path(pos, noises):
    """The first noise's boundary map made the positive path's map at
    that slot: same field, same parity."""
    ri = noises[0].i - 1
    near_or_far = pos.hops[ri // 2][ri % 2]
    first = dataclasses.replace(noises[0], fields=(near_or_far,) + noises[0].fields[1:])
    return [first] + noises[1:]


def assert_same_gradients(got, want):
    assert got[0] == want[0]
    assert list(got[1]) == list(want[1])
    for key, g in want[1].items():
        assert got[1][key].dtype == g.dtype
        assert np.array_equal(got[1][key], g), key


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mode", MODES)
def test_cast_once_step_matches_the_uncached_oracle(mode, k, dtype):
    rng = np.random.default_rng(50 + k)
    vocab = make_vocab()
    params = make_params(rng, dim=6, dtype=dtype)
    params.V *= 4  # large scores, so some gradients are clipped
    expected = params.copy()
    with pytest.warns(UserWarning):  # a matrix lr large enough to move the maps' bits
        cfg = TrainConfig(dim=6, lr_mat=0.05, gamma=0.02, kappa=0.005, mode=mode, total_steps=90)
    index = 0
    for trial in range(30):
        pos, noises = random_example(rng, vocab, k)
        if trial % 2:
            noises = boundary_noise_on_the_path(pos, noises)
        # the same example twice in a row: the second step writes the
        # fields the first just wrote, and must read them as written
        for _ in range(1 + (trial % 3 == 0)):
            assert_same_gradients(
                loss_and_gradients(params, pos, noises, cfg),
                uncached_loss_and_gradients(expected, pos, noises, cfg),
            )
            assert step(params, pos, noises, cfg, index) == uncached_step(
                expected, pos, noises, cfg, index
            )
            index += 1
    assert index == 40
    for name in ("V", "U", "M", "Minv"):
        assert getattr(params, name).dtype == dtype
        assert np.array_equal(getattr(params, name), getattr(expected, name)), name


def test_cast_once_handles_a_field_used_as_both_maps_and_twice_on_a_path():
    rng = np.random.default_rng(56)
    vocab = make_vocab()
    cfg = TrainConfig(dim=7, gamma=0.02, kappa=0.005)
    for dtype in (np.float32, np.float64):
        params = make_params(rng, dim=7, dtype=dtype)
        for hops, noise in (
            (((ARG, ARG), (ARG, ARG)), (3, (ARG, ARG), w("w1"))),
            (((SUBJ, ARG), (SUBJ, ARG)), (2, (SUBJ, ARG, SUBJ), w("w2"))),
        ):
            pos, noises = id_example(vocab, w("w0"), w("w1"), hops, noise)
            assert_same_gradients(
                loss_and_gradients(params, pos, noises, cfg),
                uncached_loss_and_gradients(params, pos, noises, cfg),
            )


# --- float64 working tables and one apply pass ---------------------------


def map_cache_loss_and_gradients(params, pos, noises, config):
    """Slow-path oracle: `loss_and_gradients` as it was with float32
    working tables: each map the NCE term uses cast to float64 once into a
    per-step cache, and every contribution added through `accumulate`."""
    train_module = importlib.import_module("dcsvec.train")
    sigmoid, softplus = train_module._sigmoid, train_module.softplus

    def accumulate(grads, key, g):
        if key in grads:
            grads[key] += g
        else:
            grads[key] = g

    xi, yi = pos.start, pos.end
    slots = [] if config.mode == "no_matrix" else [
        slot for near, far in pos.hops for slot in ((near, False), (far, True))
    ]
    two_l = len(slots)
    noise_slots = []
    for noise in noises:
        ri = min(noise.i - 1, two_l)
        redrawn = [(f, inv) for f, (_, inv) in zip(noise.fields, slots[ri:])]
        noise_slots.append((ri, slots[:ri] + redrawn))
    maps = {}
    for fid, inv in itertools.chain(slots, *(nslots for _, nslots in noise_slots)):
        if (fid, inv) not in maps:
            maps[fid, inv] = (params.Minv if inv else params.M)[fid].astype(np.float64, copy=False)
    mats = [maps[slot] for slot in slots]
    v = params.V[xi].astype(np.float64)
    u = params.U[yi].astype(np.float64)
    rows = [v]
    for m in mats:
        rows.append(rows[-1].dot(m))
    cols = [u] * (two_l + 1)
    for j in range(two_l - 1, -1, -1):
        cols[j] = mats[j].dot(cols[j + 1])

    s_pos = float(rows[two_l].dot(u))
    g_pos = sigmoid(s_pos) - 1.0
    loss = softplus(-s_pos)
    gv = g_pos * cols[0]
    grads = {("v", xi): gv, ("u", yi): g_pos * rows[two_l]}

    noise_data = []
    for noise, (ri, nslots) in zip(noises, noise_slots):
        nmats = [maps[slot] for slot in nslots]
        ncols = [params.U[noise.word].astype(np.float64)] * (two_l + 1)
        for j in range(two_l - 1, -1, -1):
            ncols[j] = nmats[j].dot(ncols[j + 1])
        s_neg = float(rows[ri].dot(ncols[ri]))
        g_neg = sigmoid(s_neg)
        loss += softplus(s_neg)
        gv += g_neg * ncols[0]
        nr = rows[ri]
        for m in nmats[ri:]:
            nr = nr.dot(m)
        accumulate(grads, ("u", noise.word), g_neg * nr)
        noise_data.append((ri, nslots, ncols, g_neg))

    if not slots:
        return loss, grads

    selected = sorted({j for ri, _, _, _ in noise_data for j in (ri - 1, ri)})
    for j in selected:
        fid, inv = slots[j]
        g = g_pos * (rows[j][:, None] * cols[j + 1])
        for ri, _, ncols, g_neg in noise_data:
            if j < ri:
                g += g_neg * (rows[j][:, None] * ncols[j + 1])
        accumulate(grads, ("Minv" if inv else "M", fid), g)
    for ri, nslots, ncols, g_neg in noise_data:
        fid, inv = nslots[ri]
        accumulate(grads, ("Minv" if inv else "M", fid), g_neg * (rows[ri][:, None] * ncols[ri + 1]))

    gamma = 0.0 if config.mode == "no_inverse" else config.gamma
    if gamma != 0.0 or config.kappa != 0.0:
        for fid, kinds in touched_kinds(grads).items():
            reg = regularizer_grads(
                params.M[fid], params.Minv[fid], gamma, config.kappa,
                need_M="M" in kinds, need_Minv="Minv" in kinds,
            )
            for kind, g in zip(("M", "Minv"), reg):
                if g is not None:
                    grads[(kind, fid)] += g
    return loss, grads


def map_cache_step(params, pos, noises, config, step_index):
    """Slow-path oracle of `step` as it was: a per-step table dict, the
    kind's rate and clip picked by name, and `table[idx] -= lr * g`."""
    lr_at = importlib.import_module("dcsvec.train")._lr_at
    loss, grads = map_cache_loss_and_gradients(params, pos, noises, config)
    lr_v = lr_at(config.lr_vec, config, step_index)
    lr_m = lr_at(config.lr_mat, config, step_index)
    tables = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}
    for (kind, idx), g in grads.items():
        is_vec = kind in ("v", "u")
        clip = config.clip_norm_vec if is_vec else config.clip_norm_mat
        flat = g.ravel()
        norm = math.sqrt(flat.dot(flat))
        if norm > clip:
            g = g * (clip / norm)
        tables[kind][idx] -= (lr_v if is_vec else lr_m) * g
    return loss


def field_twice_on_the_path(pos, noises):
    """The path's last hop made a copy of its first, so a field's maps
    appear twice on the path (and in any noise keeping those slots)."""
    return dataclasses.replace(pos, hops=pos.hops[:-1] + pos.hops[:1]), noises


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mode", MODES)
def test_step_on_float64_tables_matches_the_map_cache_step_bitwise(mode, k):
    rng = np.random.default_rng(60 + k)
    vocab = make_vocab()
    params = make_params(rng, dim=6, dtype=np.float64)
    params.V *= 4  # large scores, so some gradients are clipped
    expected = params.copy()
    with pytest.warns(UserWarning):  # a matrix lr large enough to move the maps' bits
        cfg = TrainConfig(dim=6, lr_mat=0.05, gamma=0.02, kappa=0.005, mode=mode, total_steps=80)
    twice = clipped = 0
    for index in range(80):
        pos, noises = random_example(rng, vocab, k)
        if index % 3 == 0 and len(pos.hops) >= 2:
            pos, noises = field_twice_on_the_path(pos, noises)
            twice += 1
        if index % 2:
            noises = boundary_noise_on_the_path(pos, noises)
        got_loss, got = loss_and_gradients(params, pos, noises, cfg)
        clipped += any(
            np.linalg.norm(g) > (cfg.clip_norm_vec if kind in ("v", "u") else cfg.clip_norm_mat)
            for (kind, _), g in got.items()
        )
        assert_same_gradients((got_loss, got), map_cache_loss_and_gradients(expected, pos, noises, cfg))
        assert step(params, pos, noises, cfg, index) == map_cache_step(expected, pos, noises, cfg, index)
    assert twice >= 10 and clipped >= 10
    for name in ("V", "U", "M", "Minv"):
        assert getattr(params, name).dtype == np.float64
        assert np.array_equal(getattr(params, name), getattr(expected, name)), name


@pytest.mark.parametrize("mode", MODES)
def test_train_writes_the_map_cache_step_model_on_float64_tables(monkeypatch, mode):
    rng = np.random.default_rng(61)
    trees = [random_tree(rng, int(rng.integers(2, 6)), 10) for _ in range(60)]
    vocab = build_vocab(trees, 1, 1)
    train_module = importlib.import_module("dcsvec.train")
    cfg = TrainConfig(dim=8, epochs=2, seed=7, workers=1, gamma=0.02, kappa=0.005, mode=mode)
    dtypes = set()

    def recording_map_cache_step(params, pos, noises, config, step_index):
        dtypes.add(params.M.dtype)
        return map_cache_step(params, pos, noises, config, step_index)

    def model_bytes():
        params, stats = train(trees, vocab, cfg)
        assert params.M.dtype == np.float32 and stats.total_steps >= 300
        buf = io.BytesIO()
        save_model(params, vocab, buf)
        return buf.getvalue()

    fast = model_bytes()
    monkeypatch.setattr(train_module, "step", recording_map_cache_step)
    assert model_bytes() == fast
    assert dtypes == {np.dtype(np.float64)}  # train() steps on float64 tables


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
        losses.append(real_step(*args))
        return losses[-1]

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
