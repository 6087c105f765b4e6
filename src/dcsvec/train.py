"""Noise-contrastive training of the vector/matrix parameters.

A positive example is a sampled path; its score runs through 2l matrix
slots (alternating plain and inverse maps).  Noise keeps the "target"
slots j < i and redraws everything from a uniformly chosen slot i on
(fields slot-by-slot from the field unigram, the end word from the word
unigram, slot parity preserved).  A step updates only the start query
vector, the two positive-path maps straddling the noise boundary, the
noise map at the boundary, and the two answer vectors;
`loss_and_gradients` states which maps those are, and `step` returns
the keys of the maps it updated, from which `train()` counts them.
A step computes only the NCE loss and its gradients.  The
inverse-consistency and orthogonality regularizer runs in `regularize_maps`
alone, which `train()` calls after the last step of each block of
`NOISE_BLOCK_TREES` trees: once per field whose maps the block's steps
updated, for just those maps, it applies each map's clipped gradient at n
times the map learning rate, n being the number of the block's steps that
updated the map: the expected update of regularizing every step.
Training runs on one thread: one sampler RNG and one noise RNG walk the
corpus in order, so a seeded run is bit-reproducible.  Noise is drawn a
block of `NOISE_BLOCK_TREES` sampled trees at a time, by array draws.
Per-parameter gradients whose norm exceeds the clip threshold are
rescaled to it, and each gradient is applied in place.

A step's map gradient is a sum of outer products, one per forward slot it
comes from (the slot's forward row times a backward column that mixes the
positive and the noise terms), so it is kept as those (row, column)
factors: rank one with one noise.  `step` clips and applies every
gradient of the step in one pass: it takes a map's clip norm from the
factors and subtracts one d x d outer product per factor; no d x d
gradient is formed.

Gradients are taken per slot occurrence: a map repeated in an unselected
slot is held constant there.  Examples hold vocabulary row ids, so a
step looks up no name.  `train()` widens the four tables to float64 once,
trains on them, and rounds them to float32 once at the end; a float32
model passed to `loss_and_gradients` or `step` directly still gets
float64 arithmetic (each product casts its float32 operand exactly).

Three modes (`TrainConfig.mode`) share one forward/backward, and during a
step only `loss_and_gradients` reads the mode.
`full` is the model above.  `no_matrix` scores a path with no map slots:
s+ = v.u, each noise replaces only the end word (s- = v.u_z), and no map
is updated or regularized; `train()` pins the saved maps to the identity.
`no_inverse` steps as `full` does; `regularize_maps` reads its gamma as
0, dropping the inverse-consistency penalty.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus, InvalidConfig, NonFiniteGradient
from .model import ModelParams, identity_maps, init_params
from .trees import DcsTree, path_masses
from .vocab import PathSample, Vocabulary, sample_paths

MODES = ("full", "no_matrix", "no_inverse")
LR_SCHEDULES = ("linear", "constant")
MAT_LR_WARN = 0.0005
# train() samples this many trees, in order, draws all their noise at once,
# steps through their paths and then regularizes the maps those steps updated
NOISE_BLOCK_TREES = 256


@dataclass
class TrainConfig:
    dim: int = 100
    lr_vec: float = 0.1
    lr_mat: float = 0.0005
    gamma: float = 0.001
    kappa: float = 0.0001
    noise_per_example: int = 1
    clip_norm_vec: float = 1.0
    clip_norm_mat: float = 0.1
    epochs: int = 5
    seed: int = 1
    workers: int = 1  # accepted and ignored: training runs on one thread
    mode: str = "full"
    lr_schedule: str = "linear"  # decay to 10% of initial, or "constant"
    total_steps: int | None = None  # filled in by train() for the decay

    def __post_init__(self):
        # each bound is stated as what must hold, so NaN fails it too
        checks = (
            (self.mode in MODES, f"mode must be one of {MODES}"),
            (self.lr_schedule in LR_SCHEDULES, f"lr_schedule must be one of {LR_SCHEDULES}"),
            (self.dim >= 2, f"dim must be >= 2, got {self.dim}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.workers >= 1, f"workers must be >= 1, got {self.workers}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.noise_per_example >= 1, "need at least one noise example"),
            (
                0 <= self.lr_vec < math.inf and 0 <= self.lr_mat < math.inf,
                "learning rates must be finite and >= 0",
            ),
            (
                # the gradient weights regularizer_grads applies
                0 <= 2 * self.gamma < math.inf and 0 <= 4 * self.kappa < math.inf,
                "regularizer weights must be >= 0, with 2*gamma and 4*kappa finite",
            ),
            (self.clip_norm_vec > 0 and self.clip_norm_mat > 0, "clip norms must be > 0"),
            (
                self.total_steps is None or self.total_steps >= 1,
                f"total_steps must be None or >= 1, got {self.total_steps}",
            ),
        )
        for ok, message in checks:
            if not ok:
                raise InvalidConfig(message)
        if self.lr_mat > MAT_LR_WARN:
            warnings.warn(
                f"matrix learning rate {self.lr_mat} above {MAT_LR_WARN}; training may diverge",
                stacklevel=2,
            )


@dataclass(slots=True)
class NoisedExample:
    """Replacement index i in [2, 2l], the field rows redrawn for slots
    j >= i (in slot order), and the redrawn end word's row.  Not frozen:
    a frozen dataclass takes about 0.4 us more to build, once per noise."""

    i: int
    fields: tuple[int, ...]
    word: int

    def __post_init__(self):
        if self.i < 2:
            raise ValueError("replacement index starts at 2")


def make_noise(
    samples: Sequence[PathSample], vocab: Vocabulary, rng: np.random.Generator, k: int = 1
) -> list[list[NoisedExample]]:
    """``k`` noises for each of ``samples``, in sample order.

    Three array draws cover the whole block: every noise's replacement
    index, then every redrawn field, then every noise's end word.
    """
    n_slots = np.repeat(np.array([2 * len(s.hops) for s in samples], dtype=np.int64), k)
    replace_at = rng.integers(2, n_slots + 1)
    n_fields = n_slots - replace_at + 1
    fields = vocab.draw_fields(rng, int(n_fields.sum())).tolist()
    words = vocab.draw_words(rng, len(n_slots)).tolist()
    ends = np.cumsum(n_fields).tolist()
    noises = [
        NoisedExample(i, tuple(fields[end - n : end]), word)
        for i, n, end, word in zip(replace_at.tolist(), n_fields.tolist(), ends, words)
    ]
    return [noises[j : j + k] for j in range(0, len(noises), k)]


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def softplus(x: float) -> float:
    """log(1 + e^x), stable on both tails; -log sigmoid(s) is softplus(-s)."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _trace_centered(B: np.ndarray) -> np.ndarray:
    """B - (tr(B)/d) I, written into the fresh d x d product B."""
    d = B.shape[0]
    diag = B.reshape(-1)[:: d + 1]
    diag -= diag.sum() / d  # the reduction B.trace() runs, on the same view
    return B


def regularizer_penalties(
    M: np.ndarray, Minv: np.ndarray, gamma: float, kappa: float
) -> tuple[float, float]:
    """gamma * ||Minv M - (tr(Minv M)/d) I||_F^2 drives Minv toward a
    scaled inverse; kappa * ||M^T M - (tr(M^T M)/d) I||_F^2 drives M
    toward orthogonal.  The identity is trace-scaled so growing M cannot
    cheat by shrinking Minv."""
    M = np.asarray(M, dtype=np.float64)
    Minv = np.asarray(Minv, dtype=np.float64)
    E = _trace_centered(Minv @ M)
    F = _trace_centered(M.T @ M)
    return gamma * float(np.sum(E * E)), kappa * float(np.sum(F * F))


def regularizer_grads(
    M: np.ndarray,
    Minv: np.ndarray,
    gamma: float,
    kappa: float,
    *,
    need_M: bool = True,
    need_Minv: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Analytic gradients of both penalty terms, (d/dM, d/dMinv).

    An output not asked for is None, and the products only it needs are
    skipped: Minv alone costs 2 d x d matmuls, M alone 4, both 5.
    """
    d = M.shape[0]
    M = np.asarray(M, dtype=np.float64)
    Minv = np.asarray(Minv, dtype=np.float64)
    gM = gMinv = None
    if gamma != 0.0:
        E = _trace_centered(Minv.dot(M))
        if need_M:
            gM = Minv.T.dot(E)
            gM *= 2.0 * gamma
        if need_Minv:
            gMinv = E.dot(M.T)
            gMinv *= 2.0 * gamma
    if kappa != 0.0 and need_M:
        term = M.dot(_trace_centered(M.T.dot(M)))
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


MapFactors = list[tuple[int, np.ndarray]]  # (slot j, column) pairs: the gradient is sum rows[j] ⊗ c


def loss_and_gradients(
    params: ModelParams,
    pos: PathSample,
    noises: list[NoisedExample],
    config: TrainConfig,
) -> tuple[
    float, dict[tuple[str, int], np.ndarray], dict[tuple[str, int], MapFactors], list[np.ndarray]
]:
    """NCE loss and the sparse gradients of one example: (loss, vectors,
    maps, rows).

    The positive path reads one map per slot: slot 2t holds M[near] and
    2t+1 Minv[far] of hop t (no slot in `no_matrix`).  A noise keeps the
    slots before its first replaced slot ri = i - 1 (clamped to the slot
    count) and from there on reads its own fields, in the parity of the
    path's slots; if it redraws a map, that boundary map and the two
    positive-path maps straddling ri (slots ri - 1 and ri) are the maps
    the step updates, and no other map.

    ``vectors`` maps ("v", row) and ("u", row) keys to fresh float64
    gradients; contributions to a shared vector accumulate.  ``maps``
    maps ("M", field id) and ("Minv", field id) keys, ascending updated
    slots first and then the boundary noise maps, to the gradient as
    factors: one (slot j, column) pair per forward slot j it comes from,
    the gradient being the sum of rows[j] ⊗ column.  rows[j] is the
    forward row at slot j (v times the maps before it); the column is g+
    times the positive backward column after j, plus g- times each
    noise's backward column after j for every noise whose boundary lies
    after j, plus that term of a noise whose boundary map at j is this
    map.  So with one noise every map gradient is one pair.  Every array
    is fresh float64, so updating the tables leaves the gradients as they
    were.  The regularizer is not part of it (see `regularize_maps`).

    Maps are read from the tables as they are; a float32 map is cast
    inside each product it enters (the cast is exact).  `ndarray.dot`
    makes the BLAS call `@` makes, without the dispatch that costs as much
    as a product at small d.

    The mode is read here and nowhere else in a step: `no_matrix` runs
    this code on an empty slot list, so the noise boundary clamps to slot
    0 and no map key appears.
    """
    xi, yi = pos.start, pos.end
    M, Minv = params.M, params.Minv
    hops = () if config.mode == "no_matrix" else pos.hops
    mats = [m for near, far in hops for m in (M[near], Minv[far])]
    two_l = len(mats)
    v = np.array(params.V[xi], dtype=np.float64)  # a copy: rows[0] is a factor
    u = np.asarray(params.U[yi], dtype=np.float64)
    rows = [v]
    for m in mats:
        rows.append(rows[-1].dot(m))
    cols = [u] * (two_l + 1)
    for j in range(two_l - 1, -1, -1):
        cols[j] = mats[j].dot(cols[j + 1])

    s_pos = float(rows[two_l].dot(u))
    g_pos = _sigmoid(s_pos) - 1.0
    loss = softplus(-s_pos)
    gv = g_pos * cols[0]  # the start word's gradient, accumulated in place
    vectors = {("v", xi): gv, ("u", yi): g_pos * rows[two_l]}

    # per noise that redraws a map: its first replaced slot, the boundary
    # map's key, its backward columns and its sigmoid
    boundaries = []
    for noise in noises:
        ri = min(noise.i - 1, two_l)
        redrawn = noise.fields[: two_l - ri]
        nmats = mats[:ri] + [Minv[fid] if j & 1 else M[fid] for j, fid in enumerate(redrawn, ri)]
        ncols = [np.asarray(params.U[noise.word], dtype=np.float64)] * (two_l + 1)
        for j in range(two_l - 1, -1, -1):
            ncols[j] = nmats[j].dot(ncols[j + 1])
        s_neg = float(rows[ri].dot(ncols[ri]))
        g_neg = _sigmoid(s_neg)
        loss += softplus(s_neg)
        gv += g_neg * ncols[0]
        nr = rows[ri]
        for m in nmats[ri:]:
            nr = nr.dot(m)
        gu = g_neg * nr
        key = ("u", noise.word)
        if key in vectors:
            vectors[key] += gu
        else:
            vectors[key] = gu
        if redrawn:
            boundaries.append((ri, ("Minv" if ri & 1 else "M", redrawn[0]), ncols, g_neg))

    # the map columns: the positive-path maps at the noise boundaries, then
    # each boundary noise map, which joins slot ri's column when it is that
    # slot's map
    maps: dict[tuple[str, int], MapFactors] = {}
    for j in sorted({j for b in boundaries for j in (b[0] - 1, b[0])}):
        c = g_pos * cols[j + 1]
        for ri, _, ncols, g_neg in boundaries:
            if j < ri:
                c += g_neg * ncols[j + 1]
        maps.setdefault(("Minv" if j & 1 else "M", hops[j >> 1][j & 1]), []).append((j, c))
    for ri, key, ncols, g_neg in boundaries:
        pairs = maps.setdefault(key, [])
        c = g_neg * ncols[ri + 1]
        for j, column in pairs:
            if j == ri:
                column += c  # in place: the column is this call's own array
                break
        else:
            pairs.append((ri, c))
    return loss, vectors, maps, rows


def _lr_scale(config: TrainConfig, step_index: int) -> float:
    """The factor on both initial learning rates at step ``step_index``:
    linear decay to 0.1 over ``config.total_steps``.  It is 1 under the
    constant schedule and while ``total_steps`` is None, as in a direct
    `step` call; `train()` fills it in."""
    if config.lr_schedule == "constant" or not config.total_steps:
        return 1.0
    return 1.0 - 0.9 * min(step_index / config.total_steps, 1.0)


def _non_finite(where: str, key: tuple[str, int], norm: float) -> NonFiniteGradient:
    return NonFiniteGradient(f"{where}: gradient for {key[0]}[{key[1]}] has norm {norm}")


def step(
    params: ModelParams,
    pos: PathSample,
    noises: list[NoisedExample],
    config: TrainConfig,
    step_index: int,
) -> tuple[float, list[tuple[str, int]]]:
    """One SGD step, in one clip-and-apply pass over `loss_and_gradients`'
    gradients: each is rescaled to its clip threshold when its norm exceeds
    it, scaled by its learning rate and subtracted in place (float64
    arithmetic, rounded to the table's dtype).  A vector's norm is
    sqrt(g.g).  A map's comes from its factors: sqrt((r.r)(c.c)) for one
    pair, each forward row's r.r computed once per step; for k pairs, rows
    R and columns C, the square root of the sum of the entrywise product
    (R R^T) * (C C^T).  A map is then updated by one (d, 1) x (1, d) BLAS
    product per pair, whose entries are the single products (s r_i) c_j,
    s = lr * min(1, clip / norm); no d x d gradient is formed.  A
    non-finite norm is a NonFiniteGradient, raised before that gradient is
    applied.  Returns the loss and the keys of the maps it updated, in the
    order it updated them.  A step never regularizes, whatever
    ``config.gamma`` and ``config.kappa`` say; `regularize_maps` does."""
    loss, vectors, maps, rows = loss_and_gradients(params, pos, noises, config)
    scale = _lr_scale(config, step_index)
    lr, clip = config.lr_vec * scale, config.clip_norm_vec
    for key, g in vectors.items():
        norm = math.sqrt(g.dot(g))  # what np.linalg.norm computes
        if not norm <= clip:  # clipped, or not finite
            if not math.isfinite(norm):
                raise _non_finite(f"step {step_index}", key, norm)
            g *= clip / norm
        g *= lr
        row = (params.V if key[0] == "v" else params.U)[key[1]]
        row -= g  # through the view: no write-back copy
    lr, clip = config.lr_mat * scale, config.clip_norm_mat
    squares = {}  # r.r per forward row: slot ri's map and a boundary map share rows[ri]
    for key, pairs in maps.items():
        if len(pairs) == 1:
            ((j, c),) = pairs
            if j not in squares:
                squares[j] = float(rows[j].dot(rows[j]))
            norm = math.sqrt(squares[j] * float(c.dot(c)))  # inf * 0 is NaN, not a warning
        else:
            R = np.array([rows[j] for j, _ in pairs])
            C = np.array([c for _, c in pairs])
            # rounding can leave the sum just below 0; max keeps a NaN first argument
            norm = math.sqrt(max(float(np.sum(R.dot(R.T) * C.dot(C.T))), 0.0))
        if not math.isfinite(norm):
            raise _non_finite(f"step {step_index}", key, norm)
        s = lr * (clip / norm) if norm > clip else lr
        table = (params.M if key[0] == "M" else params.Minv)[key[1]]
        for j, c in pairs:
            table -= (s * rows[j])[:, None].dot(c[None, :])
    return loss, list(maps)


def regularize_maps(
    params: ModelParams, counts: dict[tuple[str, int], int], config: TrainConfig, step_index: int
) -> None:
    """The regularizer of a block of steps, applied once after its last step.

    ``counts`` holds, per map key (("M", field id) or ("Minv", field id), as
    `step` returns them), how many of the block's steps updated it.
    One `regularizer_grads` call per field, in ascending field row, on the
    maps as they stand, gives the gradient of each counted map; each is
    clipped as `step` clips a map gradient and applied at count times the
    map learning rate of step ``step_index``, the block's last.  Training
    reads gamma and kappa here and nowhere else; `no_inverse` reads gamma
    as 0.
    """
    gamma = 0.0 if config.mode == "no_inverse" else config.gamma
    lr, clip = config.lr_mat * _lr_scale(config, step_index), config.clip_norm_mat
    for fid in sorted({fid for _, fid in counts}):
        n = (counts.get(("M", fid), 0), counts.get(("Minv", fid), 0))
        grads = regularizer_grads(
            params.M[fid], params.Minv[fid], gamma, config.kappa,
            need_M=n[0] > 0, need_Minv=n[1] > 0,
        )
        for kind, g, times in zip(("M", "Minv"), grads, n):
            if g is None:
                continue
            flat = g.ravel()
            norm = math.sqrt(flat.dot(flat))  # what np.linalg.norm computes
            if not math.isfinite(norm):
                raise _non_finite(f"regularizer after step {step_index}", (kind, fid), norm)
            if norm > clip:
                g *= clip / norm
            g *= times * lr
            row = getattr(params, kind)[fid]
            row -= g  # through the view: no write-back copy


@dataclass
class EpochStats:
    epoch: int
    steps: int  # cumulative step count at epoch end
    mean_loss: float
    examples_per_sec: float


@dataclass
class TrainStats:
    epochs: list[EpochStats] = field(default_factory=list)
    total_steps: int = 0
    skipped_trees: int = 0


def expected_steps_per_epoch(trees: list[DcsTree]) -> float:
    """Expected sampled-path count for one pass: the exact sum of path
    weights, rounded once."""
    return float(sum(m for t in trees for m in path_masses(t)[0]))


def train(
    corpus: Iterable[DcsTree],
    vocab: Vocabulary,
    config: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[ModelParams, TrainStats]:
    """Epochs of (sample a block of trees' paths -> draw the block's noise
    -> one sparse SGD step per path, without the regularizer -> regularize
    the maps those steps updated), on one thread over the corpus in order.

    The parameters are initialised float32, as `init_params` makes them,
    trained on float64 copies of the tables, and returned rounded to
    float32.  Deterministic (bitwise) for a fixed seed; ``config.workers``
    does not change the result.
    """
    trees = [t for t in corpus]
    if not trees:
        raise EmptyCorpus("no trees to train on")
    usable = [t for t in trees if t.n_nodes >= 2]
    skipped = len(trees) - len(usable)
    if not usable:
        raise EmptyCorpus("no multi-node trees to train on")

    cfg = config
    if cfg.total_steps is None and cfg.lr_schedule == "linear":
        cfg = replace(
            cfg, total_steps=max(1, math.ceil(cfg.epochs * expected_steps_per_epoch(usable)))
        )

    init_seq, walk_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(vocab, cfg.dim, np.random.default_rng(init_seq))
    if cfg.mode == "no_matrix":
        identity_maps(params)
    _cast_tables(params, np.float64)
    sampler_rng, noise_rng = (np.random.default_rng(s) for s in walk_seq.spawn(2))

    stats = TrainStats(skipped_trees=skipped)
    step_index = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        first = step_index
        loss_sum = 0.0
        for start in range(0, len(usable), NOISE_BLOCK_TREES):
            trees_in_block = usable[start : start + NOISE_BLOCK_TREES]
            block = [s for tree in trees_in_block for s in sample_paths(tree, vocab, sampler_rng)]
            noise_lists = make_noise(block, vocab, noise_rng, cfg.noise_per_example)
            counts: dict[tuple[str, int], int] = {}
            for sample, noises in zip(block, noise_lists):
                loss, maps = step(params, sample, noises, cfg, step_index)
                loss_sum += loss
                for key in maps:
                    counts[key] = counts.get(key, 0) + 1
                step_index += 1
            regularize_maps(params, counts, cfg, step_index - 1)
        done = step_index - first
        elapsed = max(time.perf_counter() - t0, 1e-9)
        row = EpochStats(
            epoch=epoch,
            steps=step_index,
            mean_loss=loss_sum / done if done else float("nan"),
            examples_per_sec=done / elapsed,
        )
        stats.epochs.append(row)
        if log is not None:
            log(f"{row.epoch}\t{row.steps}\t{row.mean_loss:.6f}\t{row.examples_per_sec:.1f}")
    stats.total_steps = step_index
    return _cast_tables(params, np.float32), stats


def _cast_tables(params: ModelParams, dtype) -> ModelParams:
    """Cast the four tables in place, one at a time: at most one is held twice."""
    for name in ("V", "U", "M", "Minv"):
        setattr(params, name, getattr(params, name).astype(dtype))
    return params
