"""Quality of the criterion-7 world across seeds and training modes.

    PYTHONPATH=src:tests python3 tests/quality_table.py --seeds 814 815 816 \
        --modes full no_matrix no_inverse

For each seed and each mode, trains the 20,000-sentence worldgen world
with criterion 7's config (dim 25, 5 epochs, workers=1), then prints one
JSON line: held-out hit rate, completion accuracy, probe accuracy, the
epoch losses, and each field's inverse and orthogonality penalty at unit
weight (`regularizer_penalties` on the trained maps).  After the runs it
prints one summary line per mode: the median, min and max over seeds of
hit rate, completion accuracy, probe accuracy and final loss.  The world,
its evaluation sets and the metrics are criterion 7's own
(`test_acceptance`); each seed's world is built once for all its runs.
Each model takes a few minutes on a 2-core VM.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from dcsvec.evaluate import eval_completion
from dcsvec.model import normalize
from dcsvec.train import MODES, regularizer_penalties, train
from test_acceptance import (
    E2E_CONFIG,
    direction_probe_accuracy,
    evaluation_sets,
    held_out_hit_rate,
    prepare_world,
)


def quality_row(seed: int, mode: str, trees, vocab, items, instances) -> dict:
    t0 = time.perf_counter()
    params, stats = train(trees, vocab, replace(E2E_CONFIG, seed=seed, mode=mode))
    train_s = time.perf_counter() - t0
    full = normalize(params)
    completion = eval_completion(full, items)
    penalties = {
        name: regularizer_penalties(params.M[fid], params.Minv[fid], 1.0, 1.0)
        for fid, name in enumerate(vocab.fields)
    }
    return {
        "seed": seed,
        "mode": mode,
        "hit_rate": held_out_hit_rate(full),
        "completion_accuracy": completion.accuracy,
        "completion_skipped": completion.skipped,
        "probe_accuracy": direction_probe_accuracy(full, instances),
        "epoch_losses": [e.mean_loss for e in stats.epochs],
        "inverse_penalty": {name: inv for name, (inv, _) in penalties.items()},
        "orthogonality_penalty": {name: orth for name, (_, orth) in penalties.items()},
        "steps": stats.total_steps,
        "train_s": round(train_s, 1),
    }


SUMMARY_METRICS = ("hit_rate", "completion_accuracy", "probe_accuracy", "final_loss")


def summary_row(mode: str, rows: list[dict]) -> dict:
    """Median, min and max over the seeds' runs of each summary metric."""
    out = {"mode": mode, "seeds": [row["seed"] for row in rows]}
    for name in SUMMARY_METRICS:
        values = [row["epoch_losses"][-1] if name == "final_loss" else row[name] for row in rows]
        out[name] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[E2E_CONFIG.seed])
    ap.add_argument("--modes", nargs="+", choices=MODES, default=[E2E_CONFIG.mode])
    args = ap.parse_args(argv)
    runs = {mode: [] for mode in args.modes}
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            _, trees, vocab = prepare_world(Path(tmp), seed)
            items, instances = evaluation_sets(Path(tmp), seed)
            for mode in runs:
                row = quality_row(seed, mode, trees, vocab, items, instances)
                runs[mode].append(row)
                print(json.dumps(row), flush=True)
    for mode, rows in runs.items():
        print(json.dumps({"summary": summary_row(mode, rows)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
