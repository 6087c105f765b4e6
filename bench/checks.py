"""Correctness checks.  Each raises ``CheckFailed`` with a reason when the
program's output is wrong; none of them runs inside a timed region."""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    pass


def topk_reference(U64: np.ndarray, candidates: np.ndarray, Q: np.ndarray, k: int):
    """Brute-force top-k for each column of ``Q`` (dim x batch): indices
    into the vocabulary and their scores, by descending score with ties
    broken by ascending vocabulary index."""
    scores = U64[candidates] @ Q
    out = []
    for col in scores.T:
        order = np.lexsort((candidates, -col))[:k]
        out.append((candidates[order], col[order]))
    return out


def check_topk(U64, words, pos_of, records, k: int, batch: int = 256) -> int:
    """``records`` are (query vector, pos filter, returned [(Word, score)]).

    The returned list must be the reference list.  Where two reference
    scores lie within rounding of each other, either order is accepted:
    then the word at each rank must carry the reference score of that
    rank.  Returns the number of queries checked.
    """
    index_of = {w: i for i, w in enumerate(words)}
    groups: dict = {}
    for rec in records:
        groups.setdefault(rec[1], []).append(rec)
    for pos, recs in groups.items():
        candidates = np.arange(len(words)) if pos is None else np.flatnonzero(pos_of == pos)
        for lo in range(0, len(recs), batch):
            chunk = recs[lo : lo + batch]
            Q = np.stack([np.asarray(q, dtype=np.float64) for q, _, _ in chunk], axis=1)
            refs = topk_reference(U64, candidates, Q, k)
            for (q, _, got), (ref_idx, ref_scores) in zip(chunk, refs):
                _compare_topk(U64, q, pos, index_of, got, ref_idx, ref_scores, words)
    return len(records)


def _compare_topk(U64, q, pos, index_of, got, ref_idx, ref_scores, words):
    got_idx = [index_of.get(w, -1) for w, _ in got]
    if got_idx == [int(i) for i in ref_idx]:
        return
    where = f"query with pos filter {pos!r}"
    if len(got_idx) != len(ref_idx) or len(set(got_idx)) != len(got_idx) or -1 in got_idx:
        raise CheckFailed(f"{where}: top-k {[w.render() for w, _ in got]} is not a list of "
                          f"{len(ref_idx)} distinct vocabulary words")
    q = np.asarray(q, dtype=np.float64)
    for rank, (i, ref) in enumerate(zip(got_idx, ref_scores)):
        true = float(U64[i] @ q)
        if (pos is not None and words[i].pos != pos) or abs(true - ref) > 1e-9 * (1.0 + abs(ref)):
            raise CheckFailed(
                f"{where}: rank {rank + 1} is {words[i].render()} (score {true!r}), reference "
                f"is {words[int(ref_idx[rank])].render()} (score {float(ref)!r})"
            )


def check_vocab_mass(word_counts: dict, expected_steps: float) -> None:
    """Every path ends at one word, so the word counts sum to the expected
    number of sampled paths per epoch."""
    total = math.fsum(word_counts.values())
    if not abs(total - expected_steps) <= 1e-9 * max(1.0, abs(expected_steps)):
        raise CheckFailed(f"sum of word counts {total!r} != expected steps per epoch {expected_steps!r}")


def check_tree_sizes(trees, content_counts) -> None:
    """Every generated sentence converts to one node per content word."""
    if len(trees) != len(content_counts):
        raise CheckFailed(f"{len(trees)} trees from {len(content_counts)} sentences")
    for i, (tree, n) in enumerate(zip(trees, content_counts)):
        if tree is None or tree.n_nodes != n:
            got = None if tree is None else tree.n_nodes
            raise CheckFailed(f"sentence {i}: {n} content words became a tree of {got} nodes")


def check_finite(label: str, values) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    if bad or not len(values):
        raise CheckFailed(f"{label}: {len(bad)} non-finite of {len(values)} values")


def check_same(label: str, values) -> None:
    """Repeated passes over the same inputs and seed must agree exactly."""
    if len(set(values)) != 1:
        raise CheckFailed(f"{label} differs between passes with the same seed: {sorted(set(values))}")


def check_unit_blocks(features: np.ndarray, dim: int) -> None:
    features = np.asarray(features)
    if features.shape != (4 * dim,):
        raise CheckFailed(f"relation features: shape {features.shape}, want ({4 * dim},)")
    norms = np.linalg.norm(features.reshape(4, dim), axis=1)
    if not np.allclose(norms, 1.0, atol=1e-9):
        raise CheckFailed(f"relation features: block norms {norms} (want four unit blocks)")


def check_cosine(value: float) -> None:
    if not (math.isfinite(value) and -1.0 - 1e-9 <= value <= 1.0 + 1e-9):
        raise CheckFailed(f"phrase similarity {value!r} is not a cosine")
