"""Noise-contrastive training of the vector/matrix parameters.

A positive example is a sampled path; its score runs through 2l matrix
slots (alternating plain and inverse maps).  Noise keeps the "target"
slots j < i and redraws everything from a uniformly chosen slot i on
(fields slot-by-slot from the field unigram, the end word from the word
unigram, slot parity preserved).  A step updates only the start query
vector, the two positive-path maps straddling the noise boundary, the
noise map at the boundary, and the two answer vectors.  The
inverse-consistency and orthogonality regularizer is computed once per
touched field, for just the maps of that field the step touches.
Per-parameter gradients whose norm exceeds the clip threshold are
rescaled to it.

Gradients are taken per slot occurrence: a map repeated in an unselected
slot is held constant there.  Examples hold vocabulary row ids, so a
step looks up no name.  A step's NCE term casts each map it uses to
float64 once, into a cache that dies with the term, so every product
runs float64 x float64; the regularizer casts the two maps of a touched
field itself.

Three modes (`TrainConfig.mode`) share one forward/backward, and during a
step only `loss_and_gradients` reads the mode.  `full` is the model above.
`no_matrix` scores a path with no map slots: s+ = v.u, each noise
replaces only the end word (s- = v.u_z), and no map is updated or
regularized; `train()` pins the saved maps to the identity.  `no_inverse`
reads gamma as 0, dropping the inverse-consistency penalty.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from .errors import EmptyCorpus, InvalidConfig, NonFiniteGradient
from .model import ModelParams, identity_maps, init_params
from .trees import DcsTree, enumerate_paths
from .vocab import PathSample, Vocabulary, sample_paths

MODES = ("full", "no_matrix", "no_inverse")
MAT_LR_WARN = 0.0005


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
    workers: int = 1
    mode: str = "full"
    lr_schedule: str = "linear"  # decay to 10% of initial, or "constant"
    total_steps: int | None = None  # filled in by train() for the decay

    def __post_init__(self):
        # each bound is stated as what must hold, so NaN fails it too
        checks = (
            (self.mode in MODES, f"mode must be one of {MODES}"),
            (self.lr_schedule in ("linear", "constant"), "lr_schedule must be linear or constant"),
            (self.dim >= 2, f"dim must be >= 2, got {self.dim}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.workers >= 1, f"workers must be >= 1, got {self.workers}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.noise_per_example >= 1, "need at least one noise example"),
            (self.lr_vec >= 0 and self.lr_mat >= 0, "learning rates must be >= 0"),
            (self.gamma >= 0 and self.kappa >= 0, "regularizer weights must be >= 0"),
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


@dataclass(frozen=True)
class NoisedExample:
    """Replacement index i in [2, 2l], the field rows redrawn for slots
    j >= i (in slot order), and the redrawn end word's row."""

    i: int
    fields: tuple[int, ...]
    word: int

    def __post_init__(self):
        if self.i < 2:
            raise ValueError("replacement index starts at 2")


def make_noise(
    path: PathSample, vocab: Vocabulary, rng: np.random.Generator, k: int = 1
) -> list[NoisedExample]:
    hi = 2 * len(path.hops)
    out = []
    for _ in range(k):
        i = int(rng.integers(2, hi + 1))
        fields = tuple([vocab.unigram_draw_field(rng) for _ in range(hi - i + 1)])
        out.append(NoisedExample(i, fields, vocab.unigram_draw_word(rng)))
    return out


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


def nce_loss(params: ModelParams, pos: PathSample, noises: list[NoisedExample]) -> float:
    """-log sigmoid(s+) - sum over noises of log sigmoid(-s-)."""
    loss, _ = loss_and_gradients(params, pos, noises, TrainConfig(gamma=0.0, kappa=0.0))
    return loss


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


def loss_and_gradients(
    params: ModelParams,
    pos: PathSample,
    noises: list[NoisedExample],
    config: TrainConfig,
) -> tuple[float, dict]:
    """NCE loss and the sparse gradient set for one example.

    Keys are ("v", row), ("u", row), ("M", field id), ("Minv", field id);
    contributions to a shared parameter accumulate.  The regularizer
    runs once per touched field (one `regularizer_grads` call) and adds
    its gradient to that field's touched maps only.

    Each map the NCE term uses is cast to float64 once per step (the cast
    is exact), so every product runs float64 x float64; the cache is
    dropped before the regularizer allocates its d x d products.
    `ndarray.dot` makes the BLAS call `@` makes, without the dispatch
    that costs as much as a product at small d.

    The mode is read here and nowhere else in a step: `no_matrix` runs
    this code on an empty slot list, so the noise boundary clamps to slot
    0 and no map key appears; `no_inverse` uses gamma = 0.
    """
    xi, yi = pos.start, pos.end
    # (field row, is_inverse) per slot; slot 2t holds M[near], 2t+1 Minv[far]
    slots = [] if config.mode == "no_matrix" else [
        slot for near, far in pos.hops for slot in ((near, False), (far, True))
    ]
    two_l = len(slots)
    # per noise: its first replaced slot (0-based; 0 with no slots), its slots
    noise_slots = []
    for noise in noises:
        ri = min(noise.i - 1, two_l)
        redrawn = [(f, inv) for f, (_, inv) in zip(noise.fields, slots[ri:])]
        noise_slots.append((ri, slots[:ri] + redrawn))
    maps: dict[tuple[int, bool], np.ndarray] = {}
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
    g_pos = _sigmoid(s_pos) - 1.0
    loss = softplus(-s_pos)
    gv = g_pos * cols[0]  # the start word's gradient, accumulated in place
    grads: dict[tuple[str, int], np.ndarray] = {("v", xi): gv, ("u", yi): g_pos * rows[two_l]}

    noise_data = []
    for noise, (ri, nslots) in zip(noises, noise_slots):
        nmats = [maps[slot] for slot in nslots]
        ncols = [params.U[noise.word].astype(np.float64)] * (two_l + 1)
        for j in range(two_l - 1, -1, -1):
            ncols[j] = nmats[j].dot(ncols[j + 1])
        s_neg = float(rows[ri].dot(ncols[ri]))
        g_neg = _sigmoid(s_neg)
        loss += softplus(s_neg)
        gv += g_neg * ncols[0]
        nr = rows[ri]
        for m in nmats[ri:]:
            nr = nr.dot(m)
        _accumulate(grads, ("u", noise.word), g_neg * nr)
        noise_data.append((ri, nslots, ncols, g_neg))
    maps = mats = nmats = None  # the cache lives for the NCE term only

    if not slots:  # no_matrix: no map gradient, so no regularizer either
        return loss, grads

    # positive-path maps at the noise boundary, then the boundary noise map
    selected = sorted({j for ri, _, _, _ in noise_data for j in (ri - 1, ri)})
    for j in selected:
        fid, inv = slots[j]
        g = g_pos * (rows[j][:, None] * cols[j + 1])
        for ri, _, ncols, g_neg in noise_data:
            if j < ri:
                g += g_neg * (rows[j][:, None] * ncols[j + 1])
        _accumulate(grads, ("Minv" if inv else "M", fid), g)
    for ri, nslots, ncols, g_neg in noise_data:
        fid, inv = nslots[ri]
        g = g_neg * (rows[ri][:, None] * ncols[ri + 1])
        _accumulate(grads, ("Minv" if inv else "M", fid), g)

    gamma = 0.0 if config.mode == "no_inverse" else config.gamma
    if gamma != 0.0 or config.kappa != 0.0:
        touched: dict[int, set[str]] = {}
        for kind, fid in grads:
            if kind in ("M", "Minv"):
                touched.setdefault(fid, set()).add(kind)
        for fid, kinds in touched.items():
            reg = regularizer_grads(
                params.M[fid],
                params.Minv[fid],
                gamma,
                config.kappa,
                need_M="M" in kinds,
                need_Minv="Minv" in kinds,
            )
            for kind, g in zip(("M", "Minv"), reg):
                if g is not None:
                    grads[(kind, fid)] += g
    return loss, grads


def _accumulate(grads: dict, key: tuple[str, int], g: np.ndarray) -> None:
    """Add a fresh gradient array to ``grads[key]``, in place once the key exists."""
    if key in grads:
        grads[key] += g
    else:
        grads[key] = g


def _lr_at(initial: float, config: TrainConfig, step_index: int) -> float:
    if config.lr_schedule == "constant" or not config.total_steps:
        return initial
    frac = min(step_index / config.total_steps, 1.0)
    return initial * (1.0 - 0.9 * frac)


def step(
    params: ModelParams,
    pos: PathSample,
    noises: list[NoisedExample],
    config: TrainConfig,
    step_index: int,
) -> float:
    loss, grads = loss_and_gradients(params, pos, noises, config)
    lr_v = _lr_at(config.lr_vec, config, step_index)
    lr_m = _lr_at(config.lr_mat, config, step_index)
    tables = {"v": params.V, "u": params.U, "M": params.M, "Minv": params.Minv}
    for (kind, idx), g in grads.items():
        is_vec = kind in ("v", "u")
        clip = config.clip_norm_vec if is_vec else config.clip_norm_mat
        flat = g.ravel()
        norm = math.sqrt(flat.dot(flat))  # what np.linalg.norm computes
        if not math.isfinite(norm):
            raise NonFiniteGradient(
                f"step {step_index}: gradient for {kind}[{idx}] has norm {norm}"
            )
        if norm > clip:
            g = g * (clip / norm)
        # float64 arithmetic, rounded once to the table's dtype
        tables[kind][idx] -= (lr_v if is_vec else lr_m) * g
    return loss


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
    """Expected sampled-path count for one pass: the sum of path weights."""
    return sum(p.weight for t in trees if t.n_nodes >= 2 for p in enumerate_paths(t))


def train(
    corpus: Iterable[DcsTree],
    vocab: Vocabulary,
    config: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[ModelParams, TrainStats]:
    """Epochs of (sample paths -> draw noise -> sparse SGD step).

    Deterministic (bitwise) for a fixed seed with workers=1.  With more
    workers, updates are unsynchronized sparse writes to shared arrays;
    races are tolerated and results are not reproducible.
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

    seed_seq = np.random.SeedSequence(cfg.seed)
    init_seq, *worker_seqs = seed_seq.spawn(1 + cfg.workers)
    params = init_params(vocab, cfg.dim, np.random.default_rng(init_seq))
    if cfg.mode == "no_matrix":
        identity_maps(params)

    stats = TrainStats(skipped_trees=skipped)
    worker_rngs = []
    for s in worker_seqs:
        sampler_seq, noise_seq = s.spawn(2)
        worker_rngs.append(
            (np.random.default_rng(sampler_seq), np.random.default_rng(noise_seq))
        )

    # one step index sequence for all workers, so the LR schedule sees
    # every index exactly once
    step_indices = itertools.count()
    index_lock = threading.Lock()

    def run_chunk(chunk, rng_pair):
        sampler_rng, noise_rng = rng_pair
        steps = 0
        loss_sum = 0.0
        for tree in chunk:
            for sample in sample_paths(tree, vocab, sampler_rng):
                noises = make_noise(sample, vocab, noise_rng, cfg.noise_per_example)
                with index_lock:
                    step_index = next(step_indices)
                loss_sum += step(params, sample, noises, cfg, step_index)
                steps += 1
        return steps, loss_sum

    step_count = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        if cfg.workers == 1:
            done, loss_sum = run_chunk(usable, worker_rngs[0])
        else:
            chunks = [usable[w :: cfg.workers] for w in range(cfg.workers)]
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                futures = [
                    pool.submit(run_chunk, chunk, worker_rngs[w])
                    for w, chunk in enumerate(chunks)
                ]
                results = [f.result() for f in futures]
            done = sum(r[0] for r in results)
            loss_sum = sum(r[1] for r in results)
        step_count += done
        elapsed = max(time.perf_counter() - t0, 1e-9)
        row = EpochStats(
            epoch=epoch,
            steps=step_count,
            mean_loss=loss_sum / done if done else float("nan"),
            examples_per_sec=done / elapsed,
        )
        stats.epochs.append(row)
        if log is not None:
            log(f"{row.epoch}\t{row.steps}\t{row.mean_loss:.6f}\t{row.examples_per_sec:.1f}")
    stats.total_steps = step_count
    return params, stats
