"""Traced-run support: spans recorded around calls into dcsvec's layers.

The tracer replaces public functions with timing wrappers under every
module name through which callers look them up (``train()`` finds
``sample_paths`` as ``dcsvec.train.sample_paths``, the CLI finds it as
``dcsvec.cli.sample_paths``), and puts the originals back afterwards.  No
file of the package changes.  A function that a later refactor removed
is reported as absent instead of failing the run.

A span is ``(name, start, end, parent, run, call, extra)``: ``parent`` is
the index of the enclosing span or -1, ``run`` identifies the pass or
request that caused it, ``call`` groups the resumptions of one generator
into one call, and ``extra`` holds counts taken at the boundary.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# span name -> (defining module, function name).  Spans without a
# per-layer metric of their own still matter: they are children of the
# CLI spans, so the CLI's self time counts only argument parsing and
# file formats.
TRACED = {
    "ud.parse_conllu": ("dcsvec.ud", "parse_conllu"),
    "ud.parse_conllu_file": ("dcsvec.ud", "parse_conllu_file"),
    "ud.convert_sentence": ("dcsvec.ud", "convert_sentence"),
    "trees.enumerate_paths": ("dcsvec.trees", "enumerate_paths"),
    "trees.load_trees": ("dcsvec.trees", "load_trees"),
    "trees.save_trees": ("dcsvec.trees", "save_trees"),
    "vocab.build_vocab": ("dcsvec.vocab", "build_vocab"),
    "vocab.sample_paths": ("dcsvec.vocab", "sample_paths"),
    "vocab.save_vocab": ("dcsvec.vocab", "save_vocab"),
    "vocab.load_vocab": ("dcsvec.vocab", "load_vocab"),
    "train.train": ("dcsvec.train", "train"),
    "train.expected_steps_per_epoch": ("dcsvec.train", "expected_steps_per_epoch"),
    "train.make_noise": ("dcsvec.train", "make_noise"),
    "train.step": ("dcsvec.train", "step"),
    "train.loss_and_gradients": ("dcsvec.train", "loss_and_gradients"),
    "train.regularizer_grads": ("dcsvec.train", "regularizer_grads"),
    "model.compose_query": ("dcsvec.model", "compose_query"),
    "model.nearest_answers": ("dcsvec.model", "nearest_answers"),
    "model.path_score": ("dcsvec.model", "path_score"),
    "model.load_model": ("dcsvec.model", "load_model"),
    "model.save_model": ("dcsvec.model", "save_model"),
    "model.normalize": ("dcsvec.model", "normalize"),
    "evaluate.completion_score": ("dcsvec.evaluate", "completion_score"),
    "evaluate.eval_completion": ("dcsvec.evaluate", "eval_completion"),
    "evaluate.load_completion_dataset": ("dcsvec.evaluate", "load_completion_dataset"),
    "evaluate.phrase_similarity": ("dcsvec.evaluate", "phrase_similarity"),
    "evaluate.relation_features": ("dcsvec.evaluate", "relation_features"),
    "cli.convert": ("dcsvec.cli", "cmd_convert"),
    "cli.build-vocab": ("dcsvec.cli", "cmd_build_vocab"),
    "cli.train": ("dcsvec.cli", "cmd_train"),
    "cli.eval-completion": ("dcsvec.cli", "cmd_eval_completion"),
    "cli.nearest": ("dcsvec.cli", "cmd_nearest"),
}

CLI_SPANS = [name for name in TRACED if name.startswith("cli.")]


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    try:
        return _signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _count_pairs(trees, extra):
    # build_vocab consumes its corpus once; count n(n-1) as trees pass
    for tree in trees:
        n = tree.n_nodes
        extra["pairs"] = extra.get("pairs", 0) + n * (n - 1)
        yield tree


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run = "setup"
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._pos_counts: dict[int, dict[str, int]] = {}

    # ---------------------------------------------------------- spans ---

    def _open(self) -> tuple[int, int, float]:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        index = len(self.spans) - 1
        self.stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name, index, parent, start, call, extra):
        end = time.perf_counter()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent, self.run, call, extra)

    def _wrap(self, name, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                call = len(tracer.spans)
                while True:
                    index, parent, start = tracer._open()
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(name, index, parent, start, call, None)
                        return
                    except BaseException as exc:
                        tracer._close(name, index, parent, start, call, {"exc": type(exc).__name__})
                        raise
                    tracer._close(name, index, parent, start, call, None)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = {}
            if name == "vocab.build_vocab":
                bound = _signature(fn).bind(*args, **kwargs)
                bound.arguments["trees"] = _count_pairs(bound.arguments["trees"], extra)
                args, kwargs = bound.args, bound.kwargs
            index, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra["exc"] = type(exc).__name__
                tracer._close(name, index, parent, start, index, extra)
                raise
            tracer._close(name, index, parent, start, index, extra)
            tracer._count(name, fn, args, kwargs, result, extra)
            return result

        return wrapper

    def _count(self, name, fn, args, kwargs, result, extra):
        """Counts taken at the boundary, after the span has closed."""
        if name in ("trees.enumerate_paths", "vocab.sample_paths"):
            extra["items"] = len(result)
        elif name == "ud.convert_sentence":
            extra["none"] = result is None
        elif name == "model.nearest_answers":
            params, pos = _arg(fn, args, kwargs, "params"), _arg(fn, args, kwargs, "pos_filter")
            extra["candidates"] = self._candidates(params, pos)
        elif name == "model.load_model":
            src = _arg(fn, args, kwargs, "src")
            if isinstance(src, (str, os.PathLike)):
                extra["bytes"] = os.path.getsize(src)

    def _candidates(self, params, pos) -> int:
        counts = self._pos_counts.get(id(params.words))
        if counts is None:
            counts = {}
            for w in params.words:
                counts[w.pos] = counts.get(w.pos, 0) + 1
            self._pos_counts[id(params.words)] = counts
        return len(params.words) if pos is None else counts.get(pos, 0)

    # -------------------------------------------------------- patching ---

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dcsvec" or n.startswith("dcsvec.")]
        for name, (mod_name, fn_name) in TRACED.items():
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, call, extra in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "run": run, "call": call, **(extra or {}),
                }) + "\n")


# --------------------------------------------------------- aggregation ---


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    ``.calls`` and other counts are per timed pass; ``.s`` and
    ``.us_per_call`` are the mean inclusive duration of one call, set-up
    calls included (a generator's call is the sum of its resumptions);
    ``self`` times subtract the time covered by direct child spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    class Acc:
        def __init__(self):
            self.calls = set()
            self.pass_calls = set()
            self.time = 0.0
            self.pass_time = 0.0
            self.self_time = 0.0
            self.pass_self = 0.0
            self.counts: dict[str, float] = {}  # timed passes only
            self.counts_all: dict[str, float] = {}

    acc: dict[str, Acc] = {}
    for i, (name, start, end, parent, run, call, extra) in enumerate(spans):
        a = acc.setdefault(name, Acc())
        dur = end - start
        a.calls.add(call)
        a.time += dur
        a.self_time += dur - child_time[i]
        for key, value in (extra or {}).items():
            if key != "exc":
                a.counts_all[key] = a.counts_all.get(key, 0) + value
        if run != "setup":
            a.pass_calls.add(call)
            a.pass_time += dur
            a.pass_self += dur - child_time[i]
            for key, value in (extra or {}).items():
                if key == "exc":
                    key = "exc." + value
                    value = 1
                a.counts[key] = a.counts.get(key, 0) + value

    def get(name) -> Acc:
        return acc.get(name) or Acc()

    def per_call(name) -> float:
        a = get(name)
        return a.time / len(a.calls) if a.calls else 0.0

    def calls(name) -> float:
        return len(get(name).pass_calls) / n_passes

    def count(name, key) -> float:
        return get(name).counts.get(key, 0) / n_passes

    def count_per_call(name, key) -> float:
        a = get(name)
        return a.counts_all.get(key, 0) / len(a.calls) if a.calls else 0.0

    step, reg = get("train.step"), get("train.regularizer_grads")
    m = {
        "ud.parse_conllu.s": per_call("ud.parse_conllu"),
        "ud.convert_sentence.calls": calls("ud.convert_sentence"),
        "ud.convert_sentence.us_per_call": per_call("ud.convert_sentence") * 1e6,
        "ud.convert_sentence.none_ratio": count_per_call("ud.convert_sentence", "none"),
        "trees.enumerate_paths.calls": calls("trees.enumerate_paths"),
        "trees.enumerate_paths.paths": count("trees.enumerate_paths", "items"),
        "trees.enumerate_paths.us_per_call": per_call("trees.enumerate_paths") * 1e6,
        "trees.load_trees.s": per_call("trees.load_trees"),
        "trees.save_trees.s": per_call("trees.save_trees"),
        "vocab.build_vocab.s": per_call("vocab.build_vocab"),
        "vocab.build_vocab.pairs": count("vocab.build_vocab", "pairs"),
        "vocab.sample_paths.calls": calls("vocab.sample_paths"),
        "vocab.sample_paths.samples": count("vocab.sample_paths", "items"),
        "vocab.sample_paths.us_per_call": per_call("vocab.sample_paths") * 1e6,
        "train.expected_steps_per_epoch.s": per_call("train.expected_steps_per_epoch"),
        "train.make_noise.us_per_call": per_call("train.make_noise") * 1e6,
        "train.step.calls": calls("train.step"),
        "train.step.us_per_call": per_call("train.step") * 1e6,
        "train.loss_and_gradients.us_per_call": per_call("train.loss_and_gradients") * 1e6,
        "train.regularizer_grads.calls_per_step": (
            len(reg.pass_calls) / len(step.pass_calls) if step.pass_calls else 0.0
        ),
        "train.regularizer_grads.us_per_call": per_call("train.regularizer_grads") * 1e6,
        "train.regularizer_grads.share": reg.pass_time / step.pass_time if step.pass_time else 0.0,
        "train.step.self_us": step.self_time / len(step.calls) * 1e6 if step.calls else 0.0,
        "model.compose_query.us_per_call": per_call("model.compose_query") * 1e6,
        "model.nearest_answers.us_per_call": per_call("model.nearest_answers") * 1e6,
        "model.nearest_answers.candidates": count_per_call("model.nearest_answers", "candidates"),
        "model.path_score.calls": calls("model.path_score"),
        "model.path_score.us_per_call": per_call("model.path_score") * 1e6,
        "model.load_model.s": per_call("model.load_model"),
        "model.load_model.bytes": count_per_call("model.load_model", "bytes"),
        "model.save_model.s": per_call("model.save_model"),
        "model.normalize.s": per_call("model.normalize"),
        "evaluate.completion_score.calls": calls("evaluate.completion_score"),
        "evaluate.completion_score.us_per_call": per_call("evaluate.completion_score") * 1e6,
        "evaluate.completion.skipped": count("evaluate.completion_score", "exc.ConversionFailure"),
        "evaluate.phrase_similarity.us_per_call": per_call("evaluate.phrase_similarity") * 1e6,
        "evaluate.relation_features.us_per_call": per_call("evaluate.relation_features") * 1e6,
    }
    for name in CLI_SPANS:
        m[f"{name}.s"] = per_call(name)
    m["cli.self_s"] = sum(get(name).pass_self for name in CLI_SPANS) / n_passes
    return m
