"""Evaluation surfaces: phrase similarity with rank correlation,
relation-classification feature extraction, and sentence completion.
A completion item is converted, and each start's path walked, once per
sharing class of its blank; the scores are those of one choice at a time.

Out-of-vocabulary items fall back to the per-POS placeholder by default;
pass strict=True to raise instead.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConversionFailure, LengthMismatch, ZeroNorm, opened, parse_lines, text_lines
from .model import ModelParams, compose_query, path_row
from .train import softplus
from .trees import ARG, COMP, SUBJ, DcsTree, Edge, Word, lca, tree_path
from .ud import UdSentence, UdToken, convert_sentence, finish_sentence, node_word, sharing_class

# construction -> (POS tag of each token, root token, edges): VO hangs the
# object off the verb with (COMP, ARG); AN/NN modify the head noun with
# (ARG, ARG); SVO adds a (SUBJ, ARG) child; ANVAN is SVO with (ARG, ARG)
# modifiers
PHRASES = {
    "AN": ("JN", 1, (Edge(1, 0, ARG, ARG),)),
    "NN": ("NN", 1, (Edge(1, 0, ARG, ARG),)),
    "VO": ("VN", 0, (Edge(0, 1, COMP, ARG),)),
    "SVO": ("NVN", 1, (Edge(1, 0, SUBJ, ARG), Edge(1, 2, COMP, ARG))),
    "ANVAN": (  # a0 n1 v2 a3 n4
        "JNVJN", 2, (Edge(2, 1, SUBJ, ARG), Edge(2, 4, COMP, ARG), Edge(1, 0, ARG, ARG), Edge(4, 3, ARG, ARG))
    ),
}

_COARSE_TO_UPOS = {"N": "NOUN", "V": "VERB", "J": "ADJ", "P": "PRON", "R": "ADV", "X": "X"}


@dataclass(frozen=True)
class PhrasePair:
    left: DcsTree
    right: DcsTree
    gold: float
    construction: str


def phrase_tree(construction: str, tokens: Sequence[str]) -> DcsTree:
    """Micro tree for a phrase, shaped by its row of ``PHRASES``; a token
    without ``/POS`` takes the row's tag."""
    if construction not in PHRASES:
        raise ValueError(f"unknown construction {construction!r}")
    tags, root, edges = PHRASES[construction]
    if len(tokens) != len(tags):
        raise ValueError(f"{construction} needs {len(tags)} tokens, got {len(tokens)}")
    words = tuple(Word.parse(t) if "/" in t else Word(t, pos) for t, pos in zip(tokens, tags))
    return DcsTree(words, root, edges)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNorm("cosine of a zero vector")
    return float((a @ b) / (na * nb))


def phrase_similarity(params: ModelParams, pair: PhrasePair, strict: bool = False) -> float:
    return cosine(
        compose_query(params, pair.left, strict=strict),
        compose_query(params, pair.right, strict=strict),
    )


def _phrase_pair(line: str) -> PhrasePair:
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError(f"expected 4 columns, got {len(parts)}")
    construction, left, right, score = parts
    pair = PhrasePair(
        phrase_tree(construction, left.split()),
        phrase_tree(construction, right.split()),
        float(score),
        construction,
    )
    if not math.isfinite(pair.gold):
        raise ValueError(f"gold score must be finite, got {score!r}")
    return pair


def load_phrase_dataset(path) -> list[PhrasePair]:
    """TSV rows: construction<TAB>phrase1<TAB>phrase2<TAB>gold score."""
    return list(parse_lines(text_lines(path), _phrase_pair))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    values = np.asarray(values, dtype=np.float64)
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average-rank tie handling; NaN (with a
    warning) when either side holds a NaN, which has no rank, or has zero
    rank variance."""
    if len(xs) != len(ys) or len(xs) == 0:
        raise LengthMismatch(f"got lengths {len(xs)} and {len(ys)}")
    if np.isnan(xs).any() or np.isnan(ys).any():
        warnings.warn("a NaN value has no rank; correlation undefined", stacklevel=2)
        return float("nan")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    num = float(np.sum(dx * dy))
    den_sq = float(np.sum(dx * dx)) * float(np.sum(dy * dy))
    if den_sq == 0.0:
        warnings.warn("rank variance is zero; correlation undefined", stacklevel=2)
        return float("nan")
    return num / math.sqrt(den_sq)


def eval_phrase_dataset(params: ModelParams, path, strict: bool = False) -> dict[str, float]:
    """Spearman rho per construction tag present in the file."""
    pairs = load_phrase_dataset(path)
    by_tag: dict[str, tuple[list[float], list[float]]] = {}
    for pair in pairs:
        golds, sims = by_tag.setdefault(pair.construction, ([], []))
        golds.append(pair.gold)
        sims.append(phrase_similarity(params, pair, strict=strict))
    return {tag: spearman(golds, sims) for tag, (golds, sims) in sorted(by_tag.items())}


@dataclass(frozen=True)
class RelationInstance:
    tree: DcsTree
    e1: int
    e2: int
    label: str

    def __post_init__(self):
        if self.e1 == self.e2:
            raise ValueError("marked nodes must differ")


def relation_features(
    params: ModelParams, inst: RelationInstance, strict: bool = False
) -> np.ndarray:
    """Four unit-normalized query vectors, concatenated: the subtrees
    rooted at each marked node, then the common-ancestor subtree
    re-rooted at each marked node."""
    top = lca(inst.tree, inst.e1, inst.e2)
    blocks = [
        compose_query(params, inst.tree, strict, at=at, within=within)
        for at, within in ((inst.e1, inst.e1), (inst.e2, inst.e2), (inst.e1, top), (inst.e2, top))
    ]
    out = []
    for block in blocks:
        norm = float(np.linalg.norm(block))
        if norm == 0.0:
            raise ZeroNorm("feature block has zero norm")
        out.append(block / norm)
    return np.concatenate(out)


def export_features(
    params: ModelParams, instances: Iterable[RelationInstance], sink, strict: bool = False
) -> int:
    """One line per instance: label, then 1-based index:value pairs in
    ascending order with zeros omitted."""
    count = 0
    with opened(sink, "w", encoding="utf-8") as fh:
        for inst in instances:
            feats = relation_features(params, inst, strict=strict)
            pairs = " ".join(
                f"{i + 1}:{value:.6f}" for i, value in enumerate(feats) if value != 0.0
            )
            fh.write(f"{inst.label} {pairs}\n")
            count += 1
    return count


@dataclass(frozen=True)
class CompletionItem:
    sentence: UdSentence
    blank_id: int  # token id of the blank
    choices: tuple[Word, ...]
    answer_index: int

    def __post_init__(self):
        if len(self.choices) != 5:
            raise ValueError("completion items carry exactly 5 choices")
        if not 0 <= self.answer_index < 5:
            raise ValueError("answer index out of range")
        if all(t.id != self.blank_id for t in self.sentence.tokens):
            raise ValueError("blank token id not present in the sentence")


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]``, which must be a JSON integer: a float (``2.5``,
    ``2.0``, ``Infinity``), a bool or a string is a ValueError, not
    truncated or parsed."""
    value = obj[key]
    if type(value) is not int:  # bool is an int subclass, and not allowed
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _sentence_from_json(tokens: list) -> UdSentence:
    """A JSON token list, held to the CoNLL-U head checks."""
    return finish_sentence([
        UdToken(
            id=_json_int(t, "id"),
            form=str(t.get("form", "_")),
            lemma=str(t.get("lemma", t.get("form", "_"))),
            upos=str(t.get("upos", "X")),
            head=_json_int(t, "head"),
            deprel=str(t.get("deprel", "dep")).lower(),
        )
        for t in tokens
    ])


def _completion_item(line: str) -> CompletionItem:
    obj = json.loads(line)
    return CompletionItem(
        sentence=_sentence_from_json(obj["tokens"]),
        blank_id=_json_int(obj, "blank"),
        choices=tuple(Word.parse(c) for c in obj["choices"]),
        answer_index=_json_int(obj, "answer"),
    )


def load_completion_dataset(path) -> list[CompletionItem]:
    """JSON lines: {"tokens": [...], "blank": token id, "choices":
    ["lemma/POS" x5], "answer": 0..4}."""
    return list(parse_lines(text_lines(path), _completion_item))


def _fill_blank(item: CompletionItem, candidate: Word) -> UdSentence:
    lemma, upos = candidate.lemma, _COARSE_TO_UPOS[candidate.pos]
    return UdSentence(tuple(
        replace(t, form=lemma, lemma=lemma, upos=upos) if t.id == item.blank_id else t
        for t in item.sentence.tokens
    ))


def completion_score(
    params: ModelParams, item: CompletionItem, candidate: Word, weighted: bool = True, strict: bool = False
) -> float:
    """Fill the blank, convert, and pool log sigmoid path scores over the
    n - 1 paths ending at the blank node, in ascending start order:
    weighted mean by path weight, or a plain sum with ``weighted=False``."""
    return completion_scores(params, item, (candidate,), weighted, strict)[0]


def completion_scores(
    params: ModelParams, item: CompletionItem, candidates: Sequence[Word], weighted: bool = True, strict: bool = False
) -> list[float]:
    """``completion_score`` of each candidate, bitwise.  A candidate changes
    only the blank's word, so the item is converted, and each start's path
    and row ``v·M·Minv…`` (``model.path_row``) built, once per sharing class
    of the blank (``ud.sharing_class``); a candidate costs a dot per start."""
    at = next(i for i, t in enumerate(item.sentence.tokens) if t.id == item.blank_id)
    walks: dict[tuple, list] = {}  # sharing class -> (weight, row) per start, ascending
    scores = []
    for candidate in candidates:
        filled = _fill_blank(item, candidate)
        blank = filled.tokens[at]
        rows = walks.get(sharing_class(blank))
        if rows is None:
            rows = walks[sharing_class(blank)] = _blank_rows(params, filled, blank, strict)
        u = params.U[params.vocab.word_id(node_word(blank), strict)].astype(np.float64)
        total = weight_sum = 0.0
        for weight, row in rows:
            logp = -softplus(-float(row @ u))
            total += weight * logp if weighted else logp
            weight_sum += weight
        scores.append(total / weight_sum if weighted else total)
    return scores


def _blank_rows(params: ModelParams, filled: UdSentence, blank: UdToken, strict: bool) -> list:
    conv = convert_sentence(filled)
    if conv is None:
        raise ConversionFailure("sentence does not convert with this candidate")
    node = conv.node_of_token(blank.id)
    if node is None:
        raise ConversionFailure("blank token was absorbed during conversion")
    tree = conv.tree
    rows = []
    for start in range(tree.n_nodes):
        if start == node:
            continue
        path = tree_path(tree, start, node)
        rows.append((path.weight, path_row(params, tree.words[start], path.hops, strict)))
        if len(rows) == 1:  # look the blank's word up where path_score would, after the first row
            params.vocab.word_id(tree.words[node], strict)
    return rows


@dataclass
class CompletionResult:
    correct: int
    scored: int
    skipped: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.scored if self.scored else float("nan")


def eval_completion(
    params: ModelParams,
    items: Iterable[CompletionItem],
    weighted: bool = True,
    strict: bool = False,
) -> CompletionResult:
    """Accuracy of argmax completion scoring; ties count as incorrect,
    items that fail conversion are skipped and counted.  NaN scores rank
    last: the answer wins only with a number above every other number."""
    correct = scored = skipped = 0
    for item in items:
        try:
            scores = completion_scores(params, item, item.choices, weighted, strict)
        except ConversionFailure:
            skipped += 1
            continue
        best = max((s for s in scores if not math.isnan(s)), default=math.nan)
        winners = [i for i, s in enumerate(scores) if s == best]
        if len(winners) > 1:
            warnings.warn("tied completion scores count as incorrect", stacklevel=2)
        scored += 1
        if len(winners) == 1 and winners[0] == item.answer_index:
            correct += 1
    return CompletionResult(correct, scored, skipped)


def _relation_instance(line: str) -> RelationInstance | None:
    obj = json.loads(line)
    conv = convert_sentence(_sentence_from_json(obj["tokens"]))
    if conv is None:
        return None
    e1 = conv.node_of_token(_json_int(obj, "e1"))
    e2 = conv.node_of_token(_json_int(obj, "e2"))
    if e1 is None or e2 is None:
        return None
    return RelationInstance(conv.tree, e1, e2, str(obj["label"]))


def load_relation_instances(path) -> list[RelationInstance]:
    """JSON lines: {"tokens": [...], "e1": token id, "e2": token id,
    "label": str}; instances whose marked tokens do not survive
    conversion are dropped."""
    return [inst for inst in parse_lines(text_lines(path), _relation_instance) if inst is not None]
