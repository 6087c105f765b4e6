"""Command-line pipeline: convert, build-vocab, train, compose, nearest,
eval-phrase, eval-completion, export-features.

Every subcommand accepts --seed, --config and --workers (accepted and
ignored: training runs on one thread; both are range-checked by
``TrainConfig`` in every command); precedence is
flags > config file > defaults.  Config files are key=value lines with
``#`` comments; keys use the flag names with dashes or underscores.
Errors print one machine-readable line to stderr:
``error<TAB>ErrorClass<TAB>message``; a command line that does not parse
is a ``UsageError``.  Exit codes are 0 (ok), 1 (runtime error), 2 (usage
or input error).

``main`` builds its parser on its first call and reuses it; each call
finds its ``cmd_*`` by name, so a ``cmd_*`` patched later is what runs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import re
import sys
from dataclasses import fields

import numpy as np

from .errors import DcsvecError, InputError, UsageError, parse_lines, text_lines
from .evaluate import (
    eval_completion,
    eval_phrase_dataset,
    export_features,
    load_completion_dataset,
    load_relation_instances,
)
from .model import ModelParams, compose_query, load_model, nearest_answers, normalize, save_model
from .train import LR_SCHEDULES, MODES, TrainConfig, train
from .trees import DcsTree, Edge, Word, load_trees, read_trees, save_trees
from .ud import convert_sentence, parse_conllu_file
from .vocab import build_vocab, dump_path_samples, load_vocab, sample_paths, save_vocab

# Config keys are TrainConfig field names, except three that keep their
# shorter flag spellings; total_steps is set by train(), not configured.
_SHORT_KEYS = {"noise_per_example": "noise", "clip_norm_vec": "clip_vec", "clip_norm_mat": "clip_mat"}
_TRAIN_FIELDS = {  # config key -> TrainConfig field
    _SHORT_KEYS.get(f.name, f.name): f for f in fields(TrainConfig) if f.name != "total_steps"
}

# the train flags are generated from _TRAIN_FIELDS; these add choices and help
_TRAIN_CHOICES = {"mode": MODES, "lr_schedule": LR_SCHEDULES}
_TRAIN_HELP = {"noise": "noise examples per path"}

_VOCAB_PARAMS = inspect.signature(build_vocab).parameters

_DEFAULTS = {
    **{key: f.default for key, f in _TRAIN_FIELDS.items()},
    "word_min": _VOCAB_PARAMS["word_min"].default,
    "prep_min": _VOCAB_PARAMS["prep_min"].default,
    "k": 10,
    "pos": None,
    "strict_oov": False,
    "unweighted": False,
    "raw_params": False,
}


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_value(text: str, default):
    """A config-file value, typed like the key's default (None means str);
    a boolean is one of ``_BOOLEANS``, in any case."""
    if isinstance(default, bool):
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")
        return _BOOLEANS[text.lower()]
    return text if default is None else type(default)(text)


def _config_entry(line: str) -> tuple | None:
    """A config line's (key, typed value); None for a comment-only line."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ValueError("expected key=value")
    key, _, value = line.partition("=")
    key = key.strip().replace("-", "_")
    if key not in _DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    return key, _parse_value(value.strip(), _DEFAULTS[key])


def _load_config_file(path) -> dict:
    return dict(entry for entry in parse_lines(text_lines(path), _config_entry) if entry is not None)


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    file_values = {} if getattr(args, "config", None) is None else _load_config_file(args.config)
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_values.get(key, default))
    TrainConfig(seed=args.seed, workers=args.workers)  # range-checks both, in every command
    return args


_ARROW = re.compile(r"^-([^:>\s]+):([^:>\s]+)->$")


def parse_tree_literal(text: str) -> DcsTree:
    """Ad-hoc query syntax: ``parent/POS -PFIELD:LFIELD-> child/POS``;
    semicolons separate edge chains, repeated word mentions refer to the
    same node, the first word is the root."""
    nodes: dict[str, int] = {}
    words: list[Word] = []
    edges: list[Edge] = []

    def node_for(token: str) -> int:
        if token not in nodes:
            try:
                words.append(Word.parse(token))
            except ValueError as exc:
                raise InputError(f"bad word {token!r} in tree literal: {exc}") from exc
            nodes[token] = len(words) - 1
        return nodes[token]

    root = None
    for segment in text.split(";"):
        parts = segment.split()
        if not parts:
            continue
        current = node_for(parts[0])
        if root is None:
            root = current
        rest = parts[1:]
        while rest:
            if len(rest) < 2:
                raise InputError(f"dangling arrow in tree literal segment {segment!r}")
            arrow, child_tok, *rest = rest
            m = _ARROW.match(arrow)
            if not m:
                raise InputError(f"bad arrow {arrow!r}; expected -PFIELD:LFIELD->")
            child = node_for(child_tok)
            edges.append(Edge(current, child, m.group(1), m.group(2)))
            current = child
    if root is None:
        raise InputError("empty tree literal")
    try:
        return DcsTree(tuple(words), root, tuple(edges))
    except ValueError as exc:
        raise InputError(f"tree literal is not a tree: {exc}") from exc


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help=f"rng seed (default {_DEFAULTS['seed']})")
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument(
        "--workers", type=int, default=None,
        help="accepted for compatibility and ignored (must be >= 1): training runs on one thread",
    )


def _load_model_for_eval(args) -> ModelParams:
    params, _ = load_model(args.model)
    return params if args.raw_params else normalize(params)


def cmd_convert(args) -> int:
    skipped = 0

    def converted_trees():  # streamed: one sentence in memory at a time
        nonlocal skipped
        for sent in parse_conllu_file(args.conllu_in):
            conv = convert_sentence(sent)
            if conv is None:
                skipped += 1
            else:
                yield conv.tree

    converted = save_trees(converted_trees(), args.trees_out)
    print(f"converted\t{converted}\tskipped\t{skipped}")
    if converted == 0:
        print("warning: no sentences converted", file=sys.stderr)
    return 0


def cmd_build_vocab(args) -> int:
    voc = build_vocab(read_trees(text_lines(args.trees_in)), args.word_min, args.prep_min)
    save_vocab(voc, args.vocab_out)
    print(f"words\t{voc.n_words}\tfields\t{voc.n_fields}")
    return 0


def cmd_train(args) -> int:
    config = TrainConfig(**{f.name: getattr(args, key) for key, f in _TRAIN_FIELDS.items()})
    voc = load_vocab(args.vocab)
    corpus = load_trees(args.trees_in)
    if args.dump_paths is not None:
        rng = np.random.default_rng(args.seed)
        with open(args.dump_paths, "w", encoding="utf-8") as fh:
            for tree in corpus:
                dump_path_samples(sample_paths(tree, voc, rng), voc, fh)
    params, stats = train(corpus, voc, config, log=print)
    save_model(params, voc, args.model_out)
    print(f"steps\t{stats.total_steps}\tskipped_trees\t{stats.skipped_trees}")
    return 0


def _query_tree(args) -> DcsTree:
    if args.tree is not None:
        return parse_tree_literal(args.tree)
    for tree in read_trees(text_lines(args.tree_file)):
        return tree
    raise InputError("tree file is empty")


def cmd_compose(args) -> int:
    params = _load_model_for_eval(args)
    query = compose_query(params, _query_tree(args), strict=args.strict_oov)
    print(" ".join(f"{x:.8g}" for x in query))
    return 0


def cmd_nearest(args) -> int:
    params = _load_model_for_eval(args)
    query = compose_query(params, _query_tree(args), strict=args.strict_oov)
    ranked = nearest_answers(params, query, args.k, pos_filter=args.pos)
    for rank, (word, score) in enumerate(ranked, start=1):
        print(f"{rank}\t{word.render()}\t{score:.6f}")
    return 0


def cmd_eval_phrase(args) -> int:
    params = _load_model_for_eval(args)
    for tag, rho in eval_phrase_dataset(
        params, args.dataset, strict=args.strict_oov
    ).items():
        print(f"{tag}\t{rho:.4f}")
    return 0


def cmd_eval_completion(args) -> int:
    params = _load_model_for_eval(args)
    items = load_completion_dataset(args.dataset)
    result = eval_completion(
        params, items, weighted=not args.unweighted, strict=args.strict_oov
    )
    print(f"accuracy\t{result.accuracy:.4f}\tscored\t{result.scored}\tskipped\t{result.skipped}")
    return 0


def cmd_export_features(args) -> int:
    params = _load_model_for_eval(args)
    instances = load_relation_instances(args.instances)
    count = export_features(params, instances, args.features_out, strict=args.strict_oov)
    print(f"instances\t{count}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Where argparse would print usage and exit, raises a UsageError
    naming the (sub)command, which main() reports like any other error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcsvec",
        description="Train and query compositional word vectors over dependency-derived trees",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("convert", help="CoNLL-U to tree lines")
    p.add_argument("conllu_in")
    p.add_argument("trees_out")
    _add_common(p)

    p = subs.add_parser("build-vocab", help="count path endpoints and apply thresholds")
    p.add_argument("trees_in")
    p.add_argument("vocab_out")
    p.add_argument("--word-min", dest="word_min", type=float, default=None)
    p.add_argument("--prep-min", dest="prep_min", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("train", help="noise-contrastive training over sampled paths")
    p.add_argument("trees_in")
    p.add_argument("vocab")
    p.add_argument("model_out")
    for key, f in _TRAIN_FIELDS.items():
        if key not in ("seed", "workers"):  # _add_common's
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(f.default), default=None,
                           choices=_TRAIN_CHOICES.get(key), help=_TRAIN_HELP.get(key))
    p.add_argument("--dump-paths", dest="dump_paths", default=None,
                   help="before training, write one epoch of sampled paths to this file; an "
                        "independent sample from default_rng(--seed), not the trainer's stream")
    _add_common(p)

    def add_query_flags(p, with_query=True):
        p.add_argument("model")
        if with_query:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--tree", help="tree literal, e.g. 'drug/N -ARG:COMP-> ban/V'")
            group.add_argument("--tree-file", dest="tree_file", help="file in tree line format")
        p.add_argument("--strict-oov", dest="strict_oov", action="store_const", const=True, default=None)
        p.add_argument("--raw-params", dest="raw_params", action="store_const", const=True, default=None,
                       help="skip post-training normalization")

    p = subs.add_parser("compose", help="print the query vector of a tree")
    add_query_flags(p)
    _add_common(p)

    p = subs.add_parser("nearest", help="rank answer words for a composed query")
    add_query_flags(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--pos", default=None, help="restrict answers to one POS tag")
    _add_common(p)

    p = subs.add_parser("eval-phrase", help="Spearman rho on a phrase similarity TSV")
    add_query_flags(p, with_query=False)
    p.add_argument("dataset")
    _add_common(p)

    p = subs.add_parser("eval-completion", help="accuracy on a completion JSONL dataset")
    add_query_flags(p, with_query=False)
    p.add_argument("dataset")
    p.add_argument("--unweighted", action="store_const", const=True, default=None,
                   help="sum path log-probabilities instead of weight-averaging")
    _add_common(p)

    p = subs.add_parser("export-features", help="write relation features for an external classifier")
    add_query_flags(p, with_query=False)
    p.add_argument("instances")
    p.add_argument("features_out")
    _add_common(p)

    return parser


_parser = functools.cache(build_parser)  # main()'s, built on its first call


def main(argv=None) -> int:
    try:
        parser = _parser()
        args, extra = parser.parse_known_args(argv)
        if extra:  # argparse would name the top-level prog only
            raise UsageError(f"{parser.prog} {args.command}: unrecognized arguments: {' '.join(extra)}")
        args = _resolve(args)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except DcsvecError as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error\tOSError\t{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
