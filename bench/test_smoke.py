"""Smoke test for the benchmark itself: every workload runs at a tiny size
and passes its checks, and a deliberately wrong program result fails the
matching check.

    python3 -m pytest bench/test_smoke.py -q
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import run

run._import_program()
BENCHMARK = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return code, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks(capsys, workload):
    code, result = bench(capsys, workload)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["pipeline-d25", "long-trees"])
def test_traced_run_reports_every_layer_metric(capsys, workload):
    code, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    # the trace puts the package's functions back when it ends
    assert not hasattr(importlib.import_module("dcsvec.train").step, "__wrapped__")
    assert not hasattr(importlib.import_module("dcsvec.cli").cmd_train, "__wrapped__")


def _wrap(monkeypatch, module, name, after):
    mod = importlib.import_module(module)
    original = getattr(mod, name)

    def wrong(*args, **kwargs):
        return after(original(*args, **kwargs))

    monkeypatch.setattr(mod, name, wrong)


def test_perturbed_topk_fails(capsys, monkeypatch):
    _wrap(monkeypatch, "dcsvec.model", "nearest_answers", lambda top: [top[1], top[0]] + top[2:])
    code, result = bench(capsys, "query")
    assert code == 1 and result["correct"] is False


def test_vocab_count_off_by_one_fails(capsys, monkeypatch):
    def off_by_one(voc):
        word = voc.words[0]
        voc.word_counts[word] += 1.0
        return voc

    _wrap(monkeypatch, "dcsvec.vocab", "build_vocab", off_by_one)
    code, result = bench(capsys, "long-trees")
    assert code == 1 and result["correct"] is False


def test_non_finite_loss_fails(capsys, monkeypatch):
    def diverged(out):
        out[1].epochs[-1].mean_loss = float("nan")
        return out

    _wrap(monkeypatch, "dcsvec.train", "train", diverged)
    code, result = bench(capsys, "train-d250")
    assert code == 1 and result["correct"] is False


def test_model_bytes_changing_between_passes_fails(capsys, monkeypatch):
    cli = importlib.import_module("dcsvec.cli")
    original = cli.save_model
    calls = []

    def drifting(params, vocab, dest):
        calls.append(1)
        params.V[0, 0] += np.float32(len(calls))
        return original(params, vocab, dest)

    monkeypatch.setattr(cli, "save_model", drifting)
    code, result = bench(capsys, "pipeline-d25")
    assert code == 1 and result["correct"] is False


def test_check_topk_tolerates_only_true_ties():
    import checks
    from dcsvec.trees import Word

    rng = np.random.default_rng(0)
    words = tuple(Word(f"w{i}", "NV"[i % 2]) for i in range(50))
    U = rng.standard_normal((50, 4))
    U[6] = U[2]  # an exact tie, both nouns
    pos_of = np.array([w.pos for w in words])
    q = U[2] * 3.0
    idx, scores = checks.topk_reference(U, np.flatnonzero(pos_of == "N"), q[:, None], 5)[0]
    ref = [(words[i], float(s)) for i, s in zip(idx, scores)]
    assert {words[2], words[6]} == {ref[0][0], ref[1][0]}
    checks.check_topk(U, words, pos_of, [(q, "N", ref)], 5)
    checks.check_topk(U, words, pos_of, [(q, "N", [ref[1], ref[0]] + ref[2:])], 5)
    for wrong in ([ref[2], ref[0], ref[1]] + ref[3:], ref[:4], [(words[1], 0.0)] + ref[1:]):
        with pytest.raises(checks.CheckFailed):
            checks.check_topk(U, words, pos_of, [(q, "N", wrong)], 5)
