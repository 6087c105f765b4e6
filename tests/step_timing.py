"""CPU time of a training step at dims 25, 100 and 250.

    PYTHONPATH=src:tests python3 tests/step_timing.py [--json FILE]

Generates the worldgen corpus (3,000 sentences, seed 814), converts it and
builds its vocabulary as criterion 7 does, then at each dim runs one
`train()` epoch with ``total_steps`` given, so that no expected-steps pass
runs inside the timing.  Each epoch is timed in CPU time (best of
``--repeats``) twice over: the whole `train()` call, and the `step` calls
alone, by a wrapper that reads the process clock around each call.  A
further, untimed epoch counts the ``ndarray.dot`` calls made inside
`step`.  Prints one line per dim; ``--json FILE`` writes the same numbers
as one JSON object.  Every epoch of a dim writes the same model, which
the script checks by SHA-256.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import worldgen
from dcsvec.model import save_model
from dcsvec.train import TrainConfig, expected_steps_per_epoch, train
from dcsvec.ud import convert_sentence, parse_conllu_file
from dcsvec.vocab import build_vocab


def world(n_sentences: int, seed: int):
    """The worldgen corpus of ``seed``, converted, and its vocabulary."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.conllu"
        worldgen.generate_corpus(corpus, n_sentences, seed=seed)
        trees = [
            conv.tree for sent in parse_conllu_file(corpus) if (conv := convert_sentence(sent))
        ]
    return trees, build_vocab(trees, word_min=5, prep_min=20)


def timed_epoch(trees, vocab, cfg):
    """CPU seconds of one `train()` call and of its `step` calls, the
    step count and the SHA-256 of the model it writes."""
    train_module = importlib.import_module("dcsvec.train")
    real_step = train_module.step
    clock = time.process_time
    in_step = [0.0]

    def timed_step(*args):
        t0 = clock()
        out = real_step(*args)
        in_step[0] += clock() - t0
        return out

    train_module.step = timed_step
    try:
        t0 = clock()
        params, stats = train(trees, vocab, cfg)
        whole = clock() - t0
    finally:
        train_module.step = real_step
    buf = io.BytesIO()
    save_model(params, vocab, buf)
    return whole, in_step[0], stats.total_steps, hashlib.sha256(buf.getvalue()).hexdigest()


def dot_calls(trees, vocab, cfg) -> int:
    """``ndarray.dot`` calls made inside `step` during one epoch."""
    train_module = importlib.import_module("dcsvec.train")
    real_step = train_module.step
    count = [0]

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "dot" and isinstance(arg.__self__, np.ndarray):
            count[0] += 1

    def counted_step(*args):
        sys.setprofile(profile)
        try:
            return real_step(*args)
        finally:
            sys.setprofile(None)

    train_module.step = counted_step
    try:
        train(trees, vocab, cfg)
    finally:
        train_module.step = real_step
    return count[0]


def measure(trees, vocab, dim: int, repeats: int, seed: int) -> dict:
    total = max(1, round(expected_steps_per_epoch([t for t in trees if t.n_nodes >= 2])))
    cfg = TrainConfig(dim=dim, epochs=1, seed=seed, total_steps=total)
    runs = [timed_epoch(trees, vocab, cfg) for _ in range(repeats)]
    steps, digest = runs[0][2], runs[0][3]
    if any(run[2:] != (steps, digest) for run in runs):
        raise SystemExit(f"dim {dim}: epochs of one config wrote different models")
    return {
        "dim": dim,
        "steps": steps,
        "step_us": round(min(run[1] for run in runs) / steps * 1e6, 2),
        "train_us_per_step": round(min(run[0] for run in runs) / steps * 1e6, 2),
        "dot_calls_per_step": round(dot_calls(trees, vocab, cfg) / steps, 3),
        "sha256": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sentences", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=814, help="corpus and training seed")
    ap.add_argument("--dims", type=int, nargs="+", default=[25, 100, 250])
    ap.add_argument("--repeats", type=int, default=3, help="timed epochs per dim; the best counts")
    ap.add_argument("--json", metavar="FILE", help="also write the results as one JSON object")
    args = ap.parse_args(argv)
    trees, vocab = world(args.sentences, args.seed)
    rows = []
    for dim in args.dims:
        row = measure(trees, vocab, dim, args.repeats, args.seed)
        rows.append(row)
        print(
            f"dim {dim}: {row['step_us']:.2f} us/step in step, "
            f"{row['train_us_per_step']:.2f} us/step in train(), "
            f"{row['dot_calls_per_step']:.3f} dot calls/step, {row['steps']} steps, "
            f"sha256 {row['sha256'][:12]}",
            flush=True,
        )
    if args.json:
        block = {
            "protocol": (
                f"{args.sentences} worldgen sentences (seed {args.seed}), one train() epoch per "
                f"timing with total_steps given, CPU time, best of {args.repeats}"
            ),
            "env": {"python": platform.python_version(), "numpy": np.__version__},
            "dims": rows,
        }
        Path(args.json).write_text(json.dumps(block, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
