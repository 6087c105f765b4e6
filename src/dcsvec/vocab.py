"""Vocabulary with rare-item thresholds, unigram noise tables, and the
random-walk path sampler.

Word counts are expected path-endpoint frequencies (the exact sum of
weights of enumerated paths ending at the word), field counts are
weighted edge-traversal frequencies; both are accumulated in exact
rational arithmetic so threshold tests are sharp.  Words under the word
threshold collapse to one placeholder per POS, prepositions under the
preposition threshold collapse to one placeholder field; ARG/SUBJ/COMP
are never collapsed.

``Vocabulary.word_id``/``field_id`` are the one name-to-row index and
hold the placeholder rule; training examples carry their row ids.

The sampler starts one walk per directed edge and always continues at
internal nodes, choosing uniformly among the non-entry edges, emitting
every prefix; the expected emission count of a path then equals its
weight exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import BadMagic, EmptyCorpus, InputError, InvalidConfig, MissingPlaceholder, UnknownField, UnknownWord, parse_lines, text_lines
from .trees import (
    CORE_FIELDS,
    POS_TAGS,
    UNKNOWN_FIELD,
    DcsTree,
    FieldId,
    Word,
    check_field_name,
    exact_path_weight,
    hop_fields,
    path_nodes,
    unknown_word,
)

VOCAB_MAGIC = "VDCS-VOCAB 1"


@dataclass(slots=True)
class PathSample:
    """One sampled training path as vocabulary row ids: start and end
    word rows, and a (near, far) field row pair per hop.  Not frozen: a
    frozen dataclass takes about 0.4 us more to build, once per path."""

    start: int
    end: int
    hops: tuple[tuple[int, int], ...]


@dataclass(eq=False)
class Vocabulary:
    words: tuple[Word, ...]
    fields: tuple[FieldId, ...]
    word_counts: dict[Word, float]
    field_counts: dict[FieldId, float]
    word_index: dict = field(init=False, repr=False)
    field_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.field_index = {f: i for i, f in enumerate(self.fields)}
        if len(self.word_index) != len(self.words) or len(self.field_index) != len(self.fields):
            raise ValueError("duplicate vocabulary entries")

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def word_id(self, w: Word, strict: bool = True) -> int:
        """Row of ``w``; unless ``strict``, unknown words take their POS
        placeholder's, and a missing placeholder is a MissingPlaceholder."""
        idx = self.word_index.get(w)
        if idx is None and strict:
            raise UnknownWord(f"{w.render()} not in vocabulary")
        if idx is None:
            idx = self.word_index.get(unknown_word(w.pos))
        if idx is None:
            placeholder = unknown_word(w.pos).render()
            raise MissingPlaceholder(f"{w.render()} not in vocabulary, nor is its placeholder {placeholder}")
        return idx

    def field_id(self, f: FieldId, strict: bool = True) -> int:
        """Row of ``f``; unless ``strict``, unknown fields take the
        placeholder's, and a missing placeholder is a MissingPlaceholder."""
        idx = self.field_index.get(f)
        if idx is None and strict:
            raise UnknownField(f"field {f} has no learned maps")
        if idx is None:
            idx = self.field_index.get(UNKNOWN_FIELD)
        if idx is None:
            raise MissingPlaceholder(f"field {f} has no learned maps, nor has its placeholder {UNKNOWN_FIELD}")
        return idx

    # cumulative unigram counts, built on the first draw: querying never draws
    @cached_property
    def _word_cum(self) -> np.ndarray:
        return _running_sums("word", [self.word_counts.get(w, 0.0) for w in self.words])

    @cached_property
    def _field_cum(self) -> np.ndarray:
        return _running_sums("field", [self.field_counts.get(f, 0.0) for f in self.fields])

    def draw_words(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` word rows drawn from the word unigram, with one ``rng.random`` call."""
        return _draw(self._word_cum, rng, n)

    def draw_fields(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` field rows drawn from the field unigram, with one ``rng.random`` call."""
        return _draw(self._field_cum, rng, n)


def _running_sums(kind: str, counts: list[float]) -> np.ndarray:
    """Running sums of ``counts``; each count is finite, and so must the total be."""
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        cum = np.cumsum(counts, dtype=np.float64)
    if cum.size and not math.isfinite(cum[-1]):
        raise InputError(f"{kind} counts sum to {cum[-1]}, past the largest float")
    return cum


def _draw(cum: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    total = cum[-1] if cum.size else 0.0
    if total <= 0.0:
        raise EmptyCorpus("unigram table has no mass")
    # u * total < total for every u < 1, so no draw lands past the last row
    return np.searchsorted(cum, rng.random(n) * total, side="right")


def build_vocab(
    trees: Iterable[DcsTree], word_min: float = 1000.0, prep_min: float = 10000.0
) -> Vocabulary:
    """Count path endpoints and traversed fields exactly, then apply the
    rare-word / rare-preposition thresholds."""
    if not (word_min >= 1 and prep_min >= 1):
        raise InvalidConfig(f"thresholds must be >= 1, got word_min={word_min} prep_min={prep_min}")
    word_acc: dict[Word, Fraction] = {}
    field_acc: dict[FieldId, Fraction] = {}
    saw_tree = False
    for tree in trees:
        saw_tree = True
        n = tree.n_nodes
        if n < 2:
            continue
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                nodes = path_nodes(tree, a, b)
                w = exact_path_weight(tree, nodes)
                end_word = tree.words[b]
                word_acc[end_word] = word_acc.get(end_word, Fraction(0)) + w
                for u, v in zip(nodes, nodes[1:]):
                    near, far = hop_fields(tree, u, v)
                    field_acc[near] = field_acc.get(near, Fraction(0)) + w
                    field_acc[far] = field_acc.get(far, Fraction(0)) + w
    if not saw_tree or not word_acc:
        raise EmptyCorpus("no multi-node trees in the corpus")

    words: dict[Word, Fraction] = {unknown_word(pos): Fraction(0) for pos in POS_TAGS}
    for w, c in word_acc.items():
        if c >= word_min and w.lemma != unknown_word(w.pos).lemma:
            words[w] = words.get(w, Fraction(0)) + c
        else:
            unk = unknown_word(w.pos)
            words[unk] += c

    fields: dict[FieldId, Fraction] = {f: Fraction(0) for f in CORE_FIELDS}
    fields[UNKNOWN_FIELD] = Fraction(0)
    for f, c in field_acc.items():
        if f in CORE_FIELDS or (f != UNKNOWN_FIELD and c >= prep_min):
            fields[f] = fields.get(f, Fraction(0)) + c
        else:
            fields[UNKNOWN_FIELD] += c

    word_order = sorted(words, key=lambda w: (-words[w], w.lemma, w.pos))
    prep_order = sorted(
        (f for f in fields if f not in CORE_FIELDS and f != UNKNOWN_FIELD),
        key=lambda f: (-fields[f], f),
    )
    field_order = list(CORE_FIELDS) + prep_order + [UNKNOWN_FIELD]
    return Vocabulary(
        words=tuple(word_order),
        fields=tuple(field_order),
        word_counts={w: float(c) for w, c in words.items()},
        field_counts={f: float(c) for f, c in fields.items()},
    )


def entry_lines(vocab: Vocabulary) -> Iterator[tuple[str, str]]:
    """(kind, ``name<TAB>count``) for each word ("W"), then each field ("F"):
    the entry writer of vocabulary files and model headers."""
    for w in vocab.words:
        yield "W", f"{w.render()}\t{vocab.word_counts.get(w, 0.0)!r}"
    for f in vocab.fields:
        yield "F", f"{f}\t{vocab.field_counts.get(f, 0.0)!r}"


def read_entry(counts: dict, kind: str, entry: str) -> None:
    """Add a ``name<TAB>count`` entry of ``kind`` ("W" or "F") to ``counts``,
    or raise ValueError: the entry reader of vocabulary files and model
    headers.  Names parse as words or tree-line field labels, counts are
    finite and >= 0, and no name repeats."""
    parts = entry.split("\t")
    if len(parts) != 2:
        raise ValueError(f"expected {kind} entry<TAB>count, got {entry!r}")
    name, text = parts
    count = float(text)
    if not 0 <= count < math.inf:
        raise ValueError(f"count must be finite and >= 0, got {text!r}")
    key = Word.parse(name) if kind == "W" else check_field_name(name)
    if key in counts[kind]:
        raise ValueError(f"repeated {kind} entry {name!r}: listed twice")
    counts[kind][key] = count


def entries_vocabulary(counts: dict) -> Vocabulary:
    """The vocabulary of the entries read into ``counts``, in order; rejects
    here, not at the first draw, counts whose total overflows."""
    word_counts, field_counts = counts["W"], counts["F"]
    _running_sums("word", list(word_counts.values()))
    _running_sums("field", list(field_counts.values()))
    return Vocabulary(tuple(word_counts), tuple(field_counts), word_counts, field_counts)


def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VOCAB_MAGIC + "\n")
        fh.writelines(f"{kind}\t{entry}\n" for kind, entry in entry_lines(vocab))


def load_vocab(path) -> Vocabulary:
    counts: dict[str, dict] = {"W": {}, "F": {}}

    def add_line(line: str) -> None:
        kind, _, entry = line.partition("\t")
        if kind not in counts:
            raise ValueError("expected W/F<TAB>entry<TAB>count")
        read_entry(counts, kind, entry)

    lines = text_lines(path)
    first = next(lines, "").rstrip("\n")
    if first != VOCAB_MAGIC:
        raise BadMagic(f"expected {VOCAB_MAGIC!r}, got {first!r}")
    for _ in parse_lines(lines, add_line, first=2):
        pass
    return entries_vocabulary(counts)


def _walk_layout(tree: DcsTree):
    """Padded adjacency for the vectorized walk kernel: row i holds the
    sorted neighbours of node i, padded with -1."""
    rows = [tree.neighbors(i) for i in range(tree.n_nodes)]
    width = max(map(len, rows))
    deg = np.array([len(r) for r in rows], dtype=np.int64)
    adj = np.array([r + (-1,) * (width - len(r)) for r in rows], dtype=np.int64)
    starts = [(e.parent, e.child) for e in tree.edges] + [
        (e.child, e.parent) for e in tree.edges
    ]
    return deg, adj, np.array(starts, dtype=np.int64)


def _walk_trajectories(
    tree: DcsTree, epochs: int, rng: np.random.Generator
) -> np.ndarray:
    """Node trajectories for ``epochs`` full sampling passes.

    Row layout: one row per (epoch, directed start edge); column 0 is the
    start node, subsequent columns the visited nodes, -1 once stopped.
    """
    n = tree.n_nodes
    deg, adj, starts = _walk_layout(tree)
    n_walks = len(starts) * epochs
    traj = np.full((n_walks, n), -1, dtype=np.int64)
    start_u = np.tile(starts[:, 0], epochs)
    start_v = np.tile(starts[:, 1], epochs)
    traj[:, 0] = start_u
    traj[:, 1] = start_v
    prev = start_u.copy()
    cur = start_v.copy()
    alive = np.arange(n_walks)
    for col in range(2, n):
        keep = deg[cur] >= 2
        alive = alive[keep]
        if alive.size == 0:
            break
        cur = cur[keep]
        prev = prev[keep]
        r = rng.integers(0, deg[cur] - 1)
        # skip the entry edge's slot: rows are sorted, so slot r lies at or
        # past it exactly when its neighbour is >= prev
        r = r + (adj[cur, r] >= prev)
        nxt = adj[cur, r]
        traj[alive, col] = nxt
        prev = cur
        cur = nxt
    return traj


def sample_paths(
    tree: DcsTree, vocab: Vocabulary, rng: np.random.Generator
) -> list[PathSample]:
    """One sampling epoch over a tree, as row ids.  The tree's words and
    edge fields are mapped once, placeholders included; substitution never
    changes the path structure.  An entry missing along with its
    placeholder is an input error."""
    if tree.n_nodes < 2:
        return []
    traj = _walk_trajectories(tree, 1, rng)
    word_rows = [vocab.word_id(w, strict=False) for w in tree.words]
    hop_rows = {}  # (near node, far node) -> (near field row, far field row)
    for e in tree.edges:
        pf, cf = (vocab.field_id(f, strict=False) for f in (e.parent_field, e.child_field))
        hop_rows[e.parent, e.child] = (pf, cf)
        hop_rows[e.child, e.parent] = (cf, pf)
    out: list[PathSample] = []
    for row in traj.tolist():
        start = node = row[0]
        hops: list[tuple[int, int]] = []
        for nxt in row[1:]:
            if nxt < 0:
                break
            hops.append(hop_rows[node, nxt])
            out.append(PathSample(word_rows[start], word_rows[nxt], tuple(hops)))
            node = nxt
    return out


def path_sample_to_line(sample: PathSample, vocab: Vocabulary) -> str:
    """Debug dump format: ``start_word<TAB>end_word<TAB>near:far,near:far,...``"""
    f = vocab.fields
    hops = ",".join(f"{f[near]}:{f[far]}" for near, far in sample.hops)
    return f"{vocab.words[sample.start].render()}\t{vocab.words[sample.end].render()}\t{hops}"


def dump_path_samples(samples: Iterable[PathSample], vocab: Vocabulary, fh) -> int:
    count = 0
    for sample in samples:
        fh.write(path_sample_to_line(sample, vocab) + "\n")
        count += 1
    return count
