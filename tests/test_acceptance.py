"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them).  The end-to-end criteria train on
the bundled synthetic fact world, where gold answers are known by
construction.
"""

import io
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import worldgen
from dcsvec.evaluate import (
    eval_completion,
    load_completion_dataset,
    load_relation_instances,
    relation_features,
    spearman,
)
from dcsvec.logic import denotation_of_tree, path_denotation
from dcsvec.model import (
    ModelParams,
    compose_query,
    init_params,
    nearest_answers,
    normalize,
    save_model,
)
from dcsvec.train import (
    TrainConfig,
    loss_and_gradients,
    regularizer_grads,
    regularizer_penalties,
    step,
    train,
)
from dcsvec.trees import Word, enumerate_paths
from dcsvec.ud import convert_sentence, parse_conllu_file
from dcsvec.vocab import Vocabulary, build_vocab
from dcsvec.cli import parse_tree_literal
from helpers import (
    brute_force_denotation,
    id_example,
    nce_loss,
    random_db_for_tree,
    random_tree,
    sample_path_counts,
)
from test_evaluate import SPEARMAN_FIXTURES


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# ----------------------------------------------------------------- 1 ---


@pytest.mark.slow
def test_criterion_1_sampler_expectation():
    with criterion(1, "sampler Monte-Carlo expectation matches exact path weights"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        epochs = 100000
        total = outside = 0
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(2, 11)))
            counts = sample_path_counts(tree, rng, epochs)
            for path in enumerate_paths(tree):
                p_hat = counts[path.start, path.end] / epochs
                se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / epochs)
                total += 1
                if abs(p_hat - path.weight) > 3.0 * se:
                    outside += 1
        elapsed = time.perf_counter() - t0
        assert outside / total <= 0.01, f"{outside}/{total} paths outside 3 SE"
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------- 2 ---


def test_criterion_2_logic_oracle():
    with criterion(2, "bottom-up evaluation equals brute force; paths stay non-empty"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        nonempty = 0
        for _ in range(100):
            tree = random_tree(rng, int(rng.integers(2, 7)))
            db = random_db_for_tree(rng, tree, max_tuples_per_word=5)
            assert sum(len(d) for d in db.entries.values()) <= 50
            got = denotation_of_tree(tree, db)
            assert got == brute_force_denotation(tree, db)
            if got:
                nonempty += 1
                for path in enumerate_paths(tree):
                    assert path_denotation(path, tree, db), (
                        f"empty chain {path.start}->{path.end} under non-empty denotation"
                    )
        elapsed = time.perf_counter() - t0
        assert nonempty >= 20, f"only {nonempty} non-empty cases; raise generator density"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------- 3 ---

GRAD_FIELDS = ("ARG", "SUBJ", "COMP", "of", "in", "on", "to", "at")


def _vocab(n_words):
    words = tuple(Word(f"w{i}", "N") for i in range(n_words))
    return Vocabulary(words, GRAD_FIELDS, dict.fromkeys(words, 1.0), dict.fromkeys(GRAD_FIELDS, 1.0))


def _random_instance(rng, dim):
    params = ModelParams(
        dim,
        _vocab(6),
        rng.standard_normal((6, dim)) * 0.4,
        rng.standard_normal((6, dim)) * 0.4,
        np.eye(dim) + rng.standard_normal((len(GRAD_FIELDS), dim, dim)) * 0.3,
        np.eye(dim) + rng.standard_normal((len(GRAD_FIELDS), dim, dim)) * 0.3,
    )
    l = int(rng.integers(1, 3))
    pool = list(GRAD_FIELDS)
    rng.shuffle(pool)
    hops = tuple((pool[2 * t], pool[2 * t + 1]) for t in range(l))
    i = int(rng.integers(2, 2 * l + 1))
    noise = (i, tuple(pool[4 : 4 + (2 * l - i + 1)]), Word("w2", "N"))
    pos, [noise] = id_example(params.vocab, Word("w0", "N"), Word("w1", "N"), hops, noise)
    return params, pos, noise


def test_criterion_3_gradient_check():
    with criterion(3, "analytic gradients match central finite differences"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        cfg = TrainConfig(dim=8, gamma=0.001, kappa=0.0001)
        h = 1e-4
        for trial in range(50):
            params, pos, noise = _random_instance(rng, 8)
            _, grads = loss_and_gradients(params, pos, [noise], cfg)
            tables = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}
            for (kind, idx), analytic in grads.items():
                table = tables[kind]
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
                    fd[mi] = (up - down) / (2.0 * h)
                rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-4, f"trial {trial}, {kind}[{idx}]: rel error {rel:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


# ----------------------------------------------------------------- 4 ---


def test_criterion_4_linearity():
    with criterion(4, "map application is additive over query-vector sums"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            d = int(rng.integers(2, 33))
            M = rng.standard_normal((d, d))
            v1 = rng.standard_normal(d)
            v2 = rng.standard_normal(d)
            left = (v1 + v2) @ M
            right = v1 @ M + v2 @ M
            denom = max(np.linalg.norm(left), np.linalg.norm(right), 1e-300)
            assert np.linalg.norm(left - right) / denom <= 1e-10


# ----------------------------------------------------------------- 5 ---


def test_criterion_5_regularizer_convergence():
    with criterion(5, "inverse-consistency penalty drives Minv M to a scaled identity"):
        d = 16
        vocab = Vocabulary(
            (Word("w0", "N"),), ("ARG",), {Word("w0", "N"): 1.0}, {"ARG": 1.0}
        )
        params = init_params(vocab, d, np.random.default_rng(505), dtype=np.float64)
        M = params.M[0].copy()
        Minv = params.Minv[0].copy()
        gamma, lr = 0.001, 5.0
        for _ in range(10000):
            gM, gMinv = regularizer_grads(M, Minv, gamma, 0.0)
            M -= lr * gM
            Minv -= lr * gMinv
        B = Minv @ M
        residual = np.linalg.norm(B - (np.trace(B) / d) * np.eye(d))
        assert residual < 1e-3, f"residual {residual:.2e}"


# ----------------------------------------------------------------- 6 ---


def test_criterion_6_sparse_update_footprint():
    with criterion(6, "one step touches at most 3 vectors and 3 maps"):
        rng = np.random.default_rng(606)
        params = ModelParams(
            25,
            _vocab(12),
            (rng.standard_normal((12, 25)) * 0.2).astype(np.float32),
            (rng.standard_normal((12, 25)) * 0.2).astype(np.float32),
            (np.eye(25) + rng.standard_normal((8, 25, 25)) * 0.2).astype(np.float32),
            (np.eye(25) + rng.standard_normal((8, 25, 25)) * 0.2).astype(np.float32),
        )
        before = params.copy()
        pos, noises = id_example(
            params.vocab, Word("w0", "N"), Word("w1", "N"), (("ARG", "SUBJ"), ("COMP", "of")),
            (3, ("in", "on"), Word("w2", "N")),
        )
        step(params, pos, noises, TrainConfig(dim=25, lr_schedule="constant"), 0)
        changed_vec = [
            (name, i)
            for name, a, b in (("V", before.V, params.V), ("U", before.U, params.U))
            for i in range(len(params.words))
            if not np.array_equal(a[i], b[i])
        ]
        changed_mat = [
            (name, i)
            for name, a, b in (("M", before.M, params.M), ("Minv", before.Minv, params.Minv))
            for i in range(len(GRAD_FIELDS))
            if not np.array_equal(a[i], b[i])
        ]
        assert len(changed_vec) <= 3, changed_vec
        assert len(changed_mat) <= 3, changed_mat


# ----------------------------------------------------------------- 7/8 -

E2E_SEED = 814
E2E_CONFIG = TrainConfig(dim=25, epochs=5, seed=E2E_SEED, workers=1)


def prepare_world(root, seed):
    """The 20,000-sentence worldgen corpus of `seed`, converted, and its
    vocabulary: (sentence count, trees, vocab)."""
    corpus = root / "corpus.conllu"
    n_sentences = worldgen.generate_corpus(corpus, 20000, seed=seed)
    trees = [
        conv.tree
        for sent in parse_conllu_file(corpus)
        if (conv := convert_sentence(sent)) is not None
    ]
    return n_sentences, trees, build_vocab(trees, word_min=5, prep_min=20)


def evaluation_sets(root, seed):
    """The world's completion items and relation instances for `seed`."""
    comp_path = root / "completion.jsonl"
    worldgen.write_completion_items(comp_path, 100, seed=seed + 1)
    rel_path = root / "relations.jsonl"
    worldgen.write_relation_instances(rel_path, 400, seed=seed + 2)
    return load_completion_dataset(comp_path), load_relation_instances(rel_path)


def held_out_hit_rate(params):
    """Share of held-out composed queries whose gold filler is in the
    top 5 nouns of a normalized model."""
    queries = worldgen.held_out_queries()
    hits = 0
    for literal, _, gold in queries:
        q = compose_query(params, parse_tree_literal(literal), strict=False)
        top = {word.lemma for word, _ in nearest_answers(params, q, 5, pos_filter="N")}
        hits += bool(top & gold)
    return hits / len(queries)


@pytest.fixture(scope="module")
def synthetic_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    timings = {}
    t0 = time.perf_counter()
    n_sentences, trees, vocab = prepare_world(root, E2E_SEED)
    timings["prepare"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    full_params, full_stats = train(trees, vocab, E2E_CONFIG)
    timings["train_full"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    nomat_params, _ = train(trees, vocab, replace(E2E_CONFIG, mode="no_matrix"))
    timings["train_no_matrix"] = time.perf_counter() - t0

    return {
        "root": root,
        "n_sentences": n_sentences,
        "trees": trees,
        "vocab": vocab,
        "full": full_params,
        "full_stats": full_stats,
        "no_matrix": nomat_params,
        "timings": timings,
    }


def direction_probe_accuracy(params, instances):
    feats = np.stack([relation_features(params, inst) for inst in instances])
    labels = np.array([inst.label == "agent-first" for inst in instances])
    train_f, train_l = feats[0::2], labels[0::2]
    test_f, test_l = feats[1::2], labels[1::2]
    centroids = {}
    for value in (True, False):
        c = train_f[train_l == value].mean(axis=0)
        centroids[value] = c / np.linalg.norm(c)
    predictions = np.array(
        [float(f @ centroids[True]) > float(f @ centroids[False]) for f in test_f]
    )
    return float((predictions == test_l).mean())


@pytest.mark.slow
def test_criterion_7_end_to_end_synthetic_world(synthetic_world):
    with criterion(7, "synthetic world: retrieval, completion, direction ablation"):
        t0 = time.perf_counter()
        world = synthetic_world
        full = normalize(world["full"])
        nomat = normalize(world["no_matrix"])

        # training behaved: the epoch-average loss came down from epoch 1
        # (strict monotonicity is a toy-scale property checked in
        # test_train; at this scale the curve saturates after epoch 2)
        losses = [e.mean_loss for e in world["full_stats"].epochs]
        assert losses[-1] < losses[0], losses

        # (a) held-out composed queries: gold filler in top-5 for >= 80%
        hit_rate = held_out_hit_rate(full)
        assert hit_rate >= 0.80, f"retrieval hit rate {hit_rate:.2f}"

        # (b) synthetic sentence completion: accuracy >= 60% against 20% chance
        items, instances = evaluation_sets(world["root"], E2E_SEED)
        result = eval_completion(full, items)
        assert result.skipped == 0
        assert result.accuracy >= 0.60, f"completion accuracy {result.accuracy:.2f}"

        # (c) direction probe: full model separates agent/theme, the
        # no-matrix ablation cannot
        acc_full = direction_probe_accuracy(full, instances)
        acc_nomat = direction_probe_accuracy(nomat, instances)
        assert acc_full >= 0.80, f"full-model probe accuracy {acc_full:.2f}"
        assert acc_nomat <= 0.60, f"no-matrix probe accuracy {acc_nomat:.2f}"

        total_time = sum(world["timings"].values()) + (time.perf_counter() - t0)
        assert total_time <= 900.0, f"end-to-end took {total_time:.0f}s"


@pytest.mark.slow
def test_criterion_8_training_determinism(synthetic_world):
    with criterion(8, "same seed and workers=1 give bitwise-identical model files"):
        world = synthetic_world
        again, _ = train(world["trees"], world["vocab"], E2E_CONFIG)
        first = io.BytesIO()
        second = io.BytesIO()
        save_model(world["full"], world["vocab"], first)
        save_model(again, world["vocab"], second)
        assert first.getvalue() == second.getvalue()


# ----------------------------------------------------------------- 9 ---


def test_criterion_9_spearman_oracle():
    with criterion(9, "rank correlation matches ten hand-computed fixtures exactly"):
        assert len(SPEARMAN_FIXTURES) == 10
        for xs, ys, expected in SPEARMAN_FIXTURES:
            assert spearman(xs, ys) == expected
