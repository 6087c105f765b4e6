"""Learned parameters and everything computed from them.

Each vocabulary word owns a query vector (row of V) and an answer vector
(row of U); each field owns a square map M and a separately learned
inverse map Minv.  The row-vector convention is used throughout: maps
apply on the right, so a path from x to y scores as

    v_x @ M[near_1] @ Minv[far_1] @ ... @ M[near_l] @ Minv[far_l] @ u_y

and tree composition from a node x is

    q(x) = v_x + (1/n) * sum_i q(y_i) @ M[f(y_i)] @ Minv[f(x)]

over the n neighbours y_i of x other than the one the walk came from,
each composed away from x, with f(y_i) and f(x) the fields at the two
ends of the edge; from the root, the y_i are the children.

Rows are found through the ``Vocabulary`` the parameters were built
from (``params.vocab``), which owns the name-to-row index.  Storage
defaults to float32; score and composition arithmetic promotes to float64.

``normalize`` returns parameters whose tables are read-only.  Queries
against such a model reuse one memoized ``AnswerIndex`` (a float32 copy of
U with rows grouped by POS, and the largest row norm); a writeable model,
raw or in training, gets a fresh index on every query, so an in-place edit
is never missed.  ``nearest_answers`` scans the float32 table, then rescores
in float64, from U itself, only the rows that a bound on the float32 error
leaves in reach of the top k: the result is that of a full float64 scan.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadMagic, DimensionMismatch, InputError, InvalidConfig, TruncatedFile, ZeroNorm, opened
from .trees import POS_TAGS, DcsTree, FieldId, Word, hop_fields, lca
from .vocab import Vocabulary, entries_vocabulary, entry_lines, read_entry

MODEL_MAGIC = "VECDCS 1"

Hop = tuple[FieldId, FieldId]


@dataclass(eq=False)
class ModelParams:
    dim: int
    vocab: Vocabulary  # rows of V/U are its words, rows of M/Minv its fields
    V: np.ndarray  # (n_words, dim) query vectors
    U: np.ndarray  # (n_words, dim) answer vectors
    M: np.ndarray  # (n_fields, dim, dim) field maps
    Minv: np.ndarray  # (n_fields, dim, dim) learned inverse maps
    # (U, AnswerIndex) once a query has run against a read-only U
    _answers: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n, m, d = self.vocab.n_words, self.vocab.n_fields, self.dim
        if self.V.shape != (n, d) or self.U.shape != (n, d):
            raise DimensionMismatch("vector table shape does not match vocabulary")
        if self.M.shape != (m, d, d) or self.Minv.shape != (m, d, d):
            raise DimensionMismatch("matrix table shape does not match field list")

    @property
    def words(self) -> tuple[Word, ...]:
        return self.vocab.words

    @property
    def fields(self) -> tuple[FieldId, ...]:
        return self.vocab.fields

    def copy(self) -> "ModelParams":
        """Writeable copies of the tables, without the memoized index."""
        return ModelParams(
            self.dim, self.vocab, self.V.copy(), self.U.copy(), self.M.copy(), self.Minv.copy()
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
    # each float64 draw is scaled in place, so one copy of it is held
    V = rng.standard_normal((n, dim))
    V *= scale
    V = V.astype(dtype)
    U = rng.standard_normal((n, dim))
    U *= scale
    U = U.astype(dtype)
    G = rng.standard_normal((m, dim, dim))
    G *= scale
    G += np.eye(dim)
    G /= 2.0
    M = G.astype(dtype)
    Minv = np.transpose(M, (0, 2, 1)).copy()
    return ModelParams(dim, vocab, V, U, M, Minv)


def identity_maps(params: ModelParams) -> None:
    """Pin every field map (and inverse) to the identity, in place."""
    eye = np.eye(params.dim, dtype=params.M.dtype)
    params.M[:] = eye
    params.Minv[:] = eye


def path_row(params: ModelParams, start: Word, hops: Sequence[Hop], strict: bool = True) -> np.ndarray:
    """``v_start @ M[near_1] @ Minv[far_1] @ ...`` in float64; ``path_score`` dots it with ``u_end``."""
    r = params.V[params.vocab.word_id(start, strict)].astype(np.float64)
    for near, far in hops:
        r = r @ params.M[params.vocab.field_id(near, strict)]
        r = r @ params.Minv[params.vocab.field_id(far, strict)]
    return r


def path_score(params: ModelParams, start: Word, hops: Sequence[Hop], end: Word, strict: bool = True) -> float:
    r = path_row(params, start, hops, strict)
    return float(r @ params.U[params.vocab.word_id(end, strict)].astype(np.float64))


def compose_query(
    params: ModelParams, tree: DcsTree, strict: bool = True, *, at: int | None = None, within: int | None = None
) -> np.ndarray:
    """Query vector of a tree composed from node ``at`` (default the root):
    the word vector plus the averaged query vectors of its neighbours,
    each composed away from it and mapped through M[neighbour's field] @
    Minv[own field].  ``within`` bounds the walk to the subtree rooted
    there (default the root: the whole tree), which must hold ``at``, so
    the result is that of the subtree re-rooted at ``at``.

    Every node is composed once; out-of-vocabulary words fall back to the
    per-POS placeholder row unless ``strict``.
    """
    at = tree.root if at is None else at
    within = tree.root if within is None else within
    if not (0 <= at < tree.n_nodes and 0 <= within < tree.n_nodes) or lca(tree, at, within) != within:
        raise ValueError(f"node {at} is not in the subtree of node {within}")
    above = tree.parent_edge(within)  # the one edge out of the subtree
    outside = None if above is None else above.parent
    # the walk in preorder, so each node is listed after the one it came
    # from, with its word row and the neighbours it composes (ascending);
    # no recursion, so a walk of any depth composes
    walk, stack = [], [(at, None)]
    while stack:
        node, came_from = stack.pop()
        away = [nb for nb in tree.neighbors(node) if nb != came_from and nb != outside]
        walk.append((node, params.V[params.vocab.word_id(tree.words[node], strict)].astype(np.float64), away))
        stack.extend((nb, node) for nb in reversed(away))
    composed = {}
    for node, q, away in reversed(walk):
        if away:
            acc = np.zeros(params.dim, dtype=np.float64)
            for nb in away:
                near, far = hop_fields(tree, nb, node)
                sub = composed.pop(nb) @ params.M[params.vocab.field_id(near, strict)]
                sub = sub @ params.Minv[params.vocab.field_id(far, strict)]
                acc += sub
            q = q + acc / len(away)
        composed[node] = q
    return composed[at]


_NORM_ROWS = 1024  # rows of V or U that ``normalize`` scales at a time


def normalize(params: ModelParams) -> ModelParams:
    """New parameters with unit vectors and Frobenius norm sqrt(dim) maps;
    applied once after training, before evaluation.

    The returned V/U/M/Minv are read-only, so ``nearest_answers`` can keep
    its answer index on the result; ``copy()`` gives an editable model.
    V and U are scaled ``_NORM_ROWS`` rows at a time, so the float64
    scratch is one row block; a ZeroNorm names the first zero row.
    """
    tables = []
    for name, src in (("V", params.V), ("U", params.U)):
        out = np.empty(src.shape, src.dtype)
        for start in range(0, len(src), _NORM_ROWS):
            block = src[start : start + _NORM_ROWS].astype(np.float64)
            norms = np.sqrt(np.add.reduce(block * block, axis=1))  # np.linalg.norm's sum
            if not norms.all():
                row = start + int(np.argmin(norms != 0.0))
                raise ZeroNorm(f"{name} row for {params.words[row].render()} is zero")
            block /= norms[:, None]
            out[start : start + _NORM_ROWS] = block
        tables.append(out)
    target = params.dim ** 0.5
    for name, src in (("M", params.M), ("Minv", params.Minv)):
        maps = src.astype(np.float64)
        norms = np.linalg.norm(maps.reshape(len(maps), -1), axis=1)
        if np.any(norms == 0.0):
            row = int(np.argmin(norms))
            raise ZeroNorm(f"{name} for field {params.fields[row]} is zero")
        maps *= (target / norms)[:, None, None]
        tables.append(maps.astype(src.dtype))
    for table in tables:
        table.flags.writeable = False
    return ModelParams(params.dim, params.vocab, *tables)


# unit roundoff and smallest normal number of float32
_EPS32 = 2.0 ** -24
_TINY32 = 2.0 ** -126


@dataclass(frozen=True, eq=False)
class AnswerIndex:
    """U rounded to float32 with rows ordered by (POS, vocabulary index):
    the rows of one tag are the contiguous range ``spans[tag]`` of
    ``table``, and ``rows`` holds the vocabulary index of each table row.
    ``span_norms[tag]`` is the largest 2-norm of a row of U in that tag's
    span, over the rows whose norm is finite; it bounds the error of the
    float32 scores of those rows, and the largest bounds all rows.  A row whose
    norm is not finite (a NaN, an inf, or squares that overflow) holds a
    float32 entry that is not finite, so its float32 score is not finite
    either."""

    table: np.ndarray  # (n_words, dim) float32
    rows: np.ndarray  # (n_words,) int64
    spans: dict  # POS tag -> (start, stop)
    span_norms: dict  # POS tag -> largest finite row norm of its span


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
    with np.errstate(over="ignore"):  # a float64 row past float32 range is inf: never screened
        table = np.asarray(params.U, dtype=np.float32)[rows]
    # squares summed in float64, buffered: no float64 copy of U
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", params.U, params.U, dtype=np.float64))[rows]
    norms[~np.isfinite(norms)] = 0.0
    span_norms = {t: float(norms[start:stop].max()) for t, (start, stop) in spans.items()}
    table.flags.writeable = rows.flags.writeable = False
    return AnswerIndex(table, rows, spans, span_norms)


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
    """Top-k words by dot product with the answer vectors, scored in
    float64; ties (equal scores) break by vocabulary index, NaN scores
    rank last, POS filter applies before ranking.

    One slice of the answer index is scored in float32.  Against a float64
    score of the same row the float32 score is off by at most

        tol = 2 (d+2) 2^-24 (max|u| + 2^-126) (|q| + 2^-126) + d 2^-126

    (|.| the 2-norm, max|u| over the finite-norm rows of the slice) in any
    summation order.
    It covers the rounding of q and U to float32 (the 2^-126 terms cover
    inputs that round into the subnormal range), the float32 dot product
    and the float64 score's own error.  A row of non-finite norm has a
    non-finite float32 score.  So the k-th float32 score is at
    most the k-th float64 score plus tol, and every row that can rank in
    the top k scores at least the k-th float32 score minus 2 tol.  Only
    those rows are scored in float64 and ranked.  When q, tol or a
    float32 score is not finite, or k covers the slice, every row of the
    slice is scored in float64.  Each row's float64 score is summed
    within the row, so equal answer vectors score bitwise equal and rank
    by vocabulary index wherever they sit."""
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    if pos_filter is not None and pos_filter not in POS_TAGS:
        raise InvalidConfig(f"pos must be one of {' '.join(POS_TAGS)}, got {pos_filter!r}")
    index = answer_index(params)
    start, stop = (0, len(index.rows)) if pos_filter is None else index.spans.get(pos_filter, (0, 0))
    if start == stop:
        return []
    rows = index.rows[start:stop]
    q = np.asarray(query, dtype=np.float64)
    # non-finite scores are results here (NaN ranks last), not errors
    with np.errstate(over="ignore", invalid="ignore"):
        if k < len(rows):
            d = params.dim
            max_norm = max(index.span_norms.values()) if pos_filter is None else index.span_norms[pos_filter]
            tol = (2 * (d + 2) * _EPS32 * (max_norm + _TINY32) * (np.sqrt(q @ q) + _TINY32)
                   + d * _TINY32)
            coarse = index.table[start:stop] @ q.astype(np.float32)
            if np.isfinite(tol) and np.isfinite(coarse).all():
                kth = np.partition(coarse, len(rows) - k)[len(rows) - k]
                # the screen's floor, rounded down to float32 so the scan is compared as is
                floor = np.nextafter(np.float32(kth - 2 * tol), np.float32(-np.inf))
                rows = rows[coarse >= floor]
        return _top_k(params.words, rows, _exact_scores(params.U, rows, q), k)


def _exact_scores(U: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """float64 scores of rows of U, each summed within its own row, so a
    row's score does not depend on where it sits or what is scored with it
    (a BLAS product may round a row differently by its position)."""
    block = np.asarray(U[rows], dtype=np.float64)  # indexing copies: U is not written
    block *= q
    return block.sum(axis=1)


def _top_k(words, rows: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[Word, float]]:
    """The k best (word, score) pairs of vocabulary rows ``rows``: sorts only
    the rows that reach the k-th score."""
    neg = -scores  # NaN sorts last in partition and lexsort alike
    # keep every row at or above the k-th score; all rows when k covers
    # them or the k-th score is NaN
    kth = np.partition(neg, k - 1)[k - 1] if k < len(neg) else np.nan
    keep = np.arange(len(neg)) if np.isnan(kth) else np.flatnonzero(neg <= kth)
    top = keep[np.lexsort((rows[keep], neg[keep]))[:k]]
    return [(words[r], s) for r, s in zip(rows[top].tolist(), scores[top].tolist())]


def _payload_tables(params: ModelParams) -> list:
    """V, U, then per field M then Minv: the payload's order."""
    return [params.V, params.U, *(table for pair in zip(params.M, params.Minv) for table in pair)]


def save_model(params: ModelParams, vocab: Vocabulary, dest) -> None:
    """Text header (tables and counts), then little-endian float32 rows:
    V, U, then per field M then Minv."""
    if params.words != vocab.words or params.fields != vocab.fields:
        raise DimensionMismatch("parameter tables do not match the vocabulary")
    header = [MODEL_MAGIC, f"dim {params.dim}", f"words {vocab.n_words}", f"fields {vocab.n_fields}"]
    header += [entry for _, entry in entry_lines(vocab)]
    with opened(dest, "wb") as fh:
        fh.write(("\n".join(header) + "\n\n").encode("utf-8"))
        for table in _payload_tables(params):  # from the table's own buffer, not a bytes copy
            fh.write(memoryview(np.ascontiguousarray(table, dtype="<f4")).cast("B"))


def load_model(src) -> tuple[ModelParams, Vocabulary]:
    """The parameters and ``params.vocab``, the vocabulary of the header,
    whose entries follow the vocabulary file's rules.  Every payload float
    must be finite: a NaN or an infinity is a DimensionMismatch naming its
    table and row.  ``src`` is a path or a seekable binary handle, read
    from where it stands (error offsets count from there).  The payload's
    size is checked against the header before any table is allocated; it
    is then read once, straight into writable, C-contiguous tables."""
    with opened(src, "rb") as fh:
        base = fh.tell()

        def text_line() -> str:
            raw = fh.readline()
            if not raw.endswith(b"\n"):
                raise TruncatedFile("header ended mid-line", offset=fh.tell() - base)
            try:
                return raw[:-1].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DimensionMismatch(f"header line is not UTF-8: {exc}") from exc

        magic = text_line()
        if magic != MODEL_MAGIC:
            raise BadMagic(f"expected {MODEL_MAGIC!r}, got {magic!r}")
        sizes = []
        for keyword in ("dim", "words", "fields"):
            line = text_line()
            key, _, value = line.partition(" ")
            if key != keyword or not value.isdecimal():
                raise DimensionMismatch(f"expected '{keyword} <n>' with n a whole number, got {line!r}")
            sizes.append(int(value))
        dim, n_words, n_fields = sizes
        if dim < 2 or n_words < 1 or n_fields < 1:
            raise DimensionMismatch(f"implausible header: dim={dim} words={n_words} fields={n_fields}")
        entries = [text_line() for _ in range(n_words + n_fields + 1)]
        if entries.pop() != "":
            raise DimensionMismatch("missing blank line before binary payload")
        counts: dict[str, dict] = {"W": {}, "F": {}}
        try:
            for i, entry in enumerate(entries):
                read_entry(counts, "W" if i < n_words else "F", entry)
            vocab = entries_vocabulary(counts)
        except (ValueError, InputError) as exc:
            raise DimensionMismatch(f"bad header entry: {exc}") from exc

        offset = fh.tell() - base
        size = fh.seek(0, io.SEEK_END) - base  # sized before anything is allocated
        fh.seek(base + offset)
        payload_len = size - offset
        expected = 4 * (2 * n_words * dim + 2 * n_fields * dim * dim)
        if payload_len < expected:
            raise TruncatedFile(f"expected {expected} payload bytes, found {payload_len}", offset=size)
        if payload_len > expected:
            raise DimensionMismatch(
                f"trailing bytes after the payload at byte offset {offset + expected} (file is {size} bytes)"
            )
        vectors, maps = (n_words, dim), (n_fields, dim, dim)
        params = ModelParams(dim, vocab, *(np.empty(shape, "<f4") for shape in (vectors, vectors, maps, maps)))
        for table in _payload_tables(params):
            if fh.readinto(memoryview(table).cast("B")) != table.nbytes:
                raise TruncatedFile("payload ended early", offset=fh.tell() - base)
    for name, table in (("V", params.V), ("U", params.U), ("M", params.M), ("Minv", params.Minv)):
        finite = np.isfinite(table.reshape(len(table), -1)).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            what = vocab.words[row].render() if table.ndim == 2 else f"field {vocab.fields[row]}"
            raise DimensionMismatch(f"{name} row {row} ({what}) holds a value that is not finite")
    return params, params.vocab
