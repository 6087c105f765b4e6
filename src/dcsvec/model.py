"""Learned parameters and everything computed from them.

Each vocabulary word owns a query vector (row of V) and an answer vector
(row of U); each field owns a square map M and a separately learned
inverse map Minv.  The row-vector convention is used throughout: maps
apply on the right, so a path from x to y scores as

    v_x @ M[near_1] @ Minv[far_1] @ ... @ M[near_l] @ Minv[far_l] @ u_y

and tree composition is

    q(x) = v_x + (1/n) * sum_i q(y_i) @ M[child_field_i] @ Minv[parent_field_i]

Storage defaults to float32; score and composition arithmetic promotes
to float64.

``normalize`` returns parameters whose tables are read-only.  Queries
against such a model reuse one memoized ``AnswerIndex`` (a float64 copy of
U with rows grouped by POS); a writeable model, raw or in training, gets a
fresh index on every query, so an in-place edit is never missed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    InvalidConfig,
    TruncatedFile,
    UnknownField,
    UnknownWord,
    ZeroNorm,
)
from .trees import UNKNOWN_FIELD, DcsTree, FieldId, Word, unknown_word
from .vocab import Vocabulary

MODEL_MAGIC = "VECDCS 1"

Hop = tuple[FieldId, FieldId]


@dataclass(eq=False)
class ModelParams:
    dim: int
    words: tuple[Word, ...]
    fields: tuple[FieldId, ...]
    V: np.ndarray  # (n_words, dim) query vectors
    U: np.ndarray  # (n_words, dim) answer vectors
    M: np.ndarray  # (n_fields, dim, dim) field maps
    Minv: np.ndarray  # (n_fields, dim, dim) learned inverse maps
    word_index: dict = field(init=False, repr=False)
    field_index: dict = field(init=False, repr=False)
    # (U, AnswerIndex) once a query has run against a read-only U
    _answers: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.field_index = {f: i for i, f in enumerate(self.fields)}
        n, m, d = len(self.words), len(self.fields), self.dim
        if self.V.shape != (n, d) or self.U.shape != (n, d):
            raise DimensionMismatch("vector table shape does not match vocabulary")
        if self.M.shape != (m, d, d) or self.Minv.shape != (m, d, d):
            raise DimensionMismatch("matrix table shape does not match field list")

    def word_id(self, w: Word, strict: bool = True) -> int:
        idx = self.word_index.get(w)
        if idx is None and not strict:
            idx = self.word_index.get(unknown_word(w.pos))
        if idx is None:
            raise UnknownWord(f"{w.render()} not in vocabulary")
        return idx

    def field_id(self, f: FieldId, strict: bool = True) -> int:
        idx = self.field_index.get(f)
        if idx is None and not strict:
            idx = self.field_index.get(UNKNOWN_FIELD)
        if idx is None:
            raise UnknownField(f"field {f} has no learned maps")
        return idx

    def copy(self) -> "ModelParams":
        """Writeable copies of the tables, without the memoized index."""
        return ModelParams(
            self.dim, self.words, self.fields,
            self.V.copy(), self.U.copy(), self.M.copy(), self.Minv.copy(),
        )


def init_params(
    vocab: Vocabulary,
    dim: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> ModelParams:
    """Vectors are i.i.d. Gaussian with variance 1/dim; each field map is
    (I + G)/2 with G Gaussian of the same variance, and the learned
    inverse starts as the transpose."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    n, m = vocab.n_words, vocab.n_fields
    scale = dim ** -0.5
    V = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    U = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    G = rng.standard_normal((m, dim, dim)) * scale
    M = ((np.eye(dim) + G) / 2.0).astype(dtype)
    Minv = np.transpose(M, (0, 2, 1)).copy()
    return ModelParams(dim, vocab.words, vocab.fields, V, U, M, Minv)


def identity_maps(params: ModelParams) -> None:
    """Pin every field map (and inverse) to the identity, in place."""
    eye = np.eye(params.dim, dtype=params.M.dtype)
    params.M[:] = eye
    params.Minv[:] = eye


def path_matrix(params: ModelParams, hops: Sequence[Hop], strict: bool = True) -> np.ndarray:
    """Product over hops, from the start side: M[near] @ Minv[far]."""
    if not hops:
        raise ValueError("need at least one hop")
    A = np.eye(params.dim, dtype=np.float64)
    for near, far in hops:
        A = A @ params.M[params.field_id(near, strict)]
        A = A @ params.Minv[params.field_id(far, strict)]
    return A


def path_score(
    params: ModelParams,
    start: Word,
    hops: Sequence[Hop],
    end: Word,
    strict: bool = True,
) -> float:
    r = params.V[params.word_id(start, strict)].astype(np.float64)
    for near, far in hops:
        r = r @ params.M[params.field_id(near, strict)]
        r = r @ params.Minv[params.field_id(far, strict)]
    return float(r @ params.U[params.word_id(end, strict)].astype(np.float64))


def compose_query(params: ModelParams, tree: DcsTree, strict: bool = True) -> np.ndarray:
    """Query vector of a tree: the word vector plus the averaged child
    query vectors, each mapped through M[child_field] @ Minv[parent_field].

    Every node is composed once; out-of-vocabulary words fall back to the
    per-POS placeholder row unless ``strict``.
    """
    return _compose(params, tree, tree.root, strict)


def _compose(params: ModelParams, tree: DcsTree, node: int, strict: bool) -> np.ndarray:
    # Module-level rather than a closure that calls itself: such a closure
    # is a reference cycle through ``params``, which would keep a model its
    # caller has dropped (answer index included) alive until the cyclic
    # collector runs.
    q = params.V[params.word_id(tree.words[node], strict)].astype(np.float64)
    children = tree.child_edges(node)
    if children:
        acc = np.zeros(params.dim, dtype=np.float64)
        for e in children:
            sub = _compose(params, tree, e.child, strict)
            sub = sub @ params.M[params.field_id(e.child_field, strict)]
            sub = sub @ params.Minv[params.field_id(e.parent_field, strict)]
            acc += sub
        q = q + acc / len(children)
    return q


def normalize(params: ModelParams) -> ModelParams:
    """New parameters with unit vectors and Frobenius norm sqrt(dim) maps;
    applied once after training, before evaluation.

    The returned V/U/M/Minv are read-only, so ``nearest_answers`` can keep
    its answer index on the result; ``copy()`` gives an editable model.
    """
    d = params.dim
    out = params.copy()
    for name, table in (("V", out.V), ("U", out.U)):
        norms = np.linalg.norm(table.astype(np.float64), axis=1)
        if np.any(norms == 0.0):
            row = int(np.argmin(norms))
            raise ZeroNorm(f"{name} row for {out.words[row].render()} is zero")
        table[:] = (table.astype(np.float64) / norms[:, None]).astype(table.dtype)
    target = d ** 0.5
    for name, table in (("M", out.M), ("Minv", out.Minv)):
        norms = np.linalg.norm(table.astype(np.float64).reshape(len(table), -1), axis=1)
        if np.any(norms == 0.0):
            row = int(np.argmin(norms))
            raise ZeroNorm(f"{name} for field {out.fields[row]} is zero")
        table[:] = (table.astype(np.float64) * (target / norms)[:, None, None]).astype(table.dtype)
    for table in (out.V, out.U, out.M, out.Minv):
        table.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class AnswerIndex:
    """U as float64 with rows ordered by (POS, vocabulary index): the rows
    of one tag are the contiguous range ``spans[tag]`` of ``table``, and
    ``rows`` holds the vocabulary index of each table row."""

    table: np.ndarray  # (n_words, dim) float64
    rows: np.ndarray  # (n_words,) int64
    spans: dict  # POS tag -> (start, stop)


def build_answer_index(params: ModelParams) -> AnswerIndex:
    """A fresh index of the current U; ``answer_index`` decides when one
    can be reused."""
    pos = [w.pos for w in params.words]
    tags = sorted(set(pos))  # the few distinct tags, not the words
    code = {t: i for i, t in enumerate(tags)}
    # the narrowest code type: a stable argsort of uint8/uint16 is a radix sort
    tag_of_word = np.fromiter(map(code.__getitem__, pos), np.min_scalar_type(len(tags)), len(pos))
    rows = np.argsort(tag_of_word, kind="stable")
    stops = np.cumsum(np.bincount(tag_of_word, minlength=len(tags))).tolist()
    spans = {t: (start, stop) for t, start, stop in zip(tags, [0] + stops, stops)}
    # widened block by block: no float32 copy of the whole of U next to the table
    table = np.empty(params.U.shape, dtype=np.float64)
    for start in range(0, len(rows), 2048):
        table[start : start + 2048] = params.U[rows[start : start + 2048]]
    table.flags.writeable = rows.flags.writeable = False
    return AnswerIndex(table, rows, spans)


def answer_index(params: ModelParams) -> AnswerIndex:
    """The model's answer index, memoized only while U is read-only (as
    ``normalize`` leaves it); a writeable U is indexed afresh each call."""
    if params._answers is not None and params._answers[0] is params.U:
        return params._answers[1]
    index = build_answer_index(params)
    if not params.U.flags.writeable:
        params._answers = (params.U, index)
    return index


def nearest_answers(
    params: ModelParams,
    query: np.ndarray,
    k: int,
    pos_filter: str | None = None,
) -> list[tuple[Word, float]]:
    """Top-k words by dot product with the answer vectors; ties break by
    vocabulary index, NaN scores rank last, POS filter applies before
    ranking.  Scores one slice of the answer index and sorts only the rows
    that reach the k-th score."""
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    index = answer_index(params)
    start, stop = (0, len(index.rows)) if pos_filter is None else index.spans.get(pos_filter, (0, 0))
    if start == stop:
        return []
    scores = index.table[start:stop] @ np.asarray(query, dtype=np.float64)
    rows = index.rows[start:stop]
    neg = -scores  # NaN sorts last in partition and lexsort alike
    # keep every row at or above the k-th score; all rows when k covers
    # them or the k-th score is NaN
    kth = np.partition(neg, k - 1)[k - 1] if k < len(neg) else np.nan
    keep = np.arange(len(neg)) if np.isnan(kth) else np.flatnonzero(neg <= kth)
    top = keep[np.lexsort((rows[keep], neg[keep]))[:k]]
    return [(params.words[r], s) for r, s in zip(rows[top].tolist(), scores[top].tolist())]


def _header_lines(params: ModelParams, vocab: Vocabulary) -> list[str]:
    lines = [
        MODEL_MAGIC,
        f"dim {params.dim}",
        f"words {len(params.words)}",
        f"fields {len(params.fields)}",
    ]
    lines += [f"{w.render()}\t{vocab.word_counts.get(w, 0.0)!r}" for w in params.words]
    lines += [f"{f}\t{vocab.field_counts.get(f, 0.0)!r}" for f in params.fields]
    lines.append("")
    return lines


def save_model(params: ModelParams, vocab: Vocabulary, dest) -> None:
    """Text header (tables and counts), then little-endian float32 rows:
    V, U, then per field M then Minv."""
    if params.words != vocab.words or params.fields != vocab.fields:
        raise DimensionMismatch("parameter tables do not match the vocabulary")
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "wb") if own else dest
    try:
        fh.write(("\n".join(_header_lines(params, vocab)) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(params.V, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(params.U, dtype="<f4").tobytes())
        for i in range(len(params.fields)):
            fh.write(np.ascontiguousarray(params.M[i], dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(params.Minv[i], dtype="<f4").tobytes())
    finally:
        if own:
            fh.close()


def load_model(src) -> tuple[ModelParams, Vocabulary]:
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open(src, "rb") if own else src
    try:
        blob = fh.read()
    finally:
        if own:
            fh.close()
    buf = io.BytesIO(blob)

    def text_line() -> str:
        raw = buf.readline()
        if not raw.endswith(b"\n"):
            raise TruncatedFile("header ended mid-line", offset=buf.tell())
        return raw[:-1].decode("utf-8")

    magic = text_line()
    if magic != MODEL_MAGIC:
        raise BadMagic(f"expected {MODEL_MAGIC!r}, got {magic!r}")
    try:
        dim = int(text_line().split()[1])
        n_words = int(text_line().split()[1])
        n_fields = int(text_line().split()[1])
    except (IndexError, ValueError) as exc:
        raise DimensionMismatch(f"bad header line: {exc}") from exc
    if dim < 2 or n_words < 1 or n_fields < 1:
        raise DimensionMismatch(f"implausible header: dim={dim} words={n_words} fields={n_fields}")
    words: list[Word] = []
    word_counts: dict[Word, float] = {}
    for _ in range(n_words):
        entry, _, count = text_line().partition("\t")
        try:
            w = Word.parse(entry)
            word_counts[w] = float(count)
        except ValueError as exc:
            raise DimensionMismatch(f"bad word line {entry!r}: {exc}") from exc
        words.append(w)
    fields: list[FieldId] = []
    field_counts: dict[FieldId, float] = {}
    for _ in range(n_fields):
        entry, _, count = text_line().partition("\t")
        try:
            field_counts[entry] = float(count)
        except ValueError as exc:
            raise DimensionMismatch(f"bad field line {entry!r}: {exc}") from exc
        fields.append(entry)
    if text_line() != "":
        raise DimensionMismatch("missing blank line before binary payload")

    offset = buf.tell()
    payload_len = len(blob) - offset
    expected = 4 * (2 * n_words * dim + 2 * n_fields * dim * dim)
    if payload_len < expected:
        raise TruncatedFile(
            f"expected {expected} payload bytes, found {payload_len}",
            offset=offset + payload_len,
        )
    if payload_len > expected:
        raise DimensionMismatch(
            f"trailing bytes after the payload at byte offset {offset + expected} "
            f"(file is {len(blob)} bytes)"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=offset)  # a view: no copy of the payload
    pos = 0

    def take(count: int, shape) -> np.ndarray:
        nonlocal pos
        arr = flat[pos : pos + count].reshape(shape).copy()
        pos += count
        return arr

    V = take(n_words * dim, (n_words, dim))
    U = take(n_words * dim, (n_words, dim))
    M = np.empty((n_fields, dim, dim), dtype=np.float32)
    Minv = np.empty((n_fields, dim, dim), dtype=np.float32)
    for i in range(n_fields):
        M[i] = take(dim * dim, (dim, dim))
        Minv[i] = take(dim * dim, (dim, dim))
    params = ModelParams(dim, tuple(words), tuple(fields), V, U, M, Minv)
    vocab = Vocabulary(tuple(words), tuple(fields), word_counts, field_counts)
    return params, vocab
