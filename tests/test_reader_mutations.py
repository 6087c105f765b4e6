"""Seeded mutations of small valid inputs for every reader: vocabulary
files, model headers, tree lines, config files, the phrase, completion and
relation datasets and CoNLL-U.

Each mutated input must load or raise an ``InputError`` subclass (exit 2
at the CLI); any other exception fails the test.  Mutations that break a
documented rule (a repeated entry, a count that is not finite and >= 0,
two counts that sum past the largest float, a wrong keyword, an edge
that breaks the tree, token heads that form no tree) must be rejected,
not loaded.  Byte-level mutations cover the seven text formats: a byte
that is not UTF-8 is a MalformedLine naming its line, and a CRLF copy
reads as the LF file.  A CLI pass feeds each text command a file with a
bad byte past the first 8 KB and a truncated file.
"""

import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import worldgen
from dcsvec import cli
from dcsvec.errors import InputError, MalformedLine
from dcsvec.evaluate import load_completion_dataset, load_phrase_dataset, load_relation_instances
from dcsvec.model import init_params, load_model, save_model
from dcsvec.trees import (
    ARG, COMP, SUBJ, UNKNOWN_FIELD, DcsTree, Edge, Word, load_trees, read_trees, tree_to_line, unknown_word,
)
from dcsvec.ud import convert_sentence, parse_conllu, parse_conllu_file
from dcsvec.vocab import Vocabulary, load_vocab, save_vocab
from test_cli import one_error_line, run_cli

SEED = 1219
CASES = 120  # per reader; the whole file takes a few seconds, most of it the CLI pass
BAD_COUNTS = ("nan", "NaN", "inf", "-inf", "-1", "-0.5")
BAD_INDICES = ("-1", "nan", "1e308", "99999999999999999999", "x", "")


def small_vocab():
    words = (Word("play", "V"), Word("kid", "N"), Word("ball", "N"), unknown_word("N"), unknown_word("V"))
    fields = (ARG, SUBJ, COMP, "with", UNKNOWN_FIELD)
    return Vocabulary(
        words, fields, {w: 1.5 * i for i, w in enumerate(words)}, {f: 2.0 + i for i, f in enumerate(fields)}
    )


def small_trees():
    play, kid, ball = Word("play", "V"), Word("kid", "N"), Word("ball", "N")
    return [
        DcsTree((play, kid, ball), 0, (Edge(0, 1, SUBJ, ARG), Edge(0, 2, COMP, ARG))),
        DcsTree((kid, play, ball, kid), 1, (Edge(1, 0, SUBJ, ARG), Edge(1, 2, "with", ARG), Edge(2, 3, ARG, ARG))),
        DcsTree((ball,), 0, ()),
    ]


def truncate(rng, lines, rows):
    i = rng.choice(rows)
    lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]


def swap_columns(rng, lines, rows, sep="\t"):
    i = rng.choice(rows)
    cols = lines[i].split(sep)
    a, b = rng.sample(range(len(cols)), 2)
    cols[a], cols[b] = cols[b], cols[a]
    lines[i] = sep.join(cols)


def set_count(line, count):
    return line.rpartition("\t")[0] + "\t" + count


def bad_count(rng, lines, rows):
    i = rng.choice(rows)
    lines[i] = set_count(lines[i], rng.choice(BAD_COUNTS))


def huge_pair(rng, lines, rows):
    for i in rng.sample(rows, 2):
        lines[i] = set_count(lines[i], "1e308")


def file_loader(path, read):
    """``load(lines)`` for a reader of files: writes the lines to ``path``
    and reads it back."""

    def load(lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        read(path)

    return load


def outcome(load, data):
    try:
        load(data)
    except InputError:
        return "rejected"
    return "loaded"


def run_cases(base_lines, mutations, load):
    """Apply the mutations in turn, ``CASES`` times, each to a fresh copy of
    ``base_lines``; returns (name, outcome) per case."""
    rng = random.Random(SEED)
    names = sorted(mutations)
    results = []
    for case in range(CASES):
        name = names[case % len(names)]
        lines = list(base_lines)
        mutations[name](rng, lines)
        results.append((name, outcome(load, lines)))
    return results


def check(results, must_reject):
    bad = [(name, got) for name, got in results if name in must_reject and got != "rejected"]
    assert not bad
    assert {got for _, got in results} == {"loaded", "rejected"}  # the mutations reach both sides


def test_vocabulary_file_mutations(tmp_path):
    path = tmp_path / "vocab.txt"
    save_vocab(small_vocab(), path)
    base = path.read_text(encoding="utf-8").splitlines()
    entries = range(1, len(base))  # after the magic line
    words = [i for i in entries if base[i].startswith("W\t")]
    fields = [i for i in entries if base[i].startswith("F\t")]

    def keyword(rng, lines):
        i = rng.choice(entries)
        lines[i] = rng.choice(("X", "w", "WF", "")) + lines[i][1:]

    mutations = {
        "truncate": lambda rng, lines: truncate(rng, lines, entries),
        "swap": lambda rng, lines: swap_columns(rng, lines, entries),
        "drop": lambda rng, lines: lines.pop(rng.choice(entries)),
        "repeat": lambda rng, lines: lines.insert(rng.choice(entries), lines[rng.choice(entries)]),
        "bad_count": lambda rng, lines: bad_count(rng, lines, entries),
        "huge_pair": lambda rng, lines: huge_pair(rng, lines, rng.choice((words, fields))),
        "keyword": keyword,
    }
    must_reject = {"swap", "repeat", "bad_count", "huge_pair", "keyword"}
    check(run_cases(base, mutations, file_loader(path, load_vocab)), must_reject)


def test_model_header_mutations():
    vocab = small_vocab()
    buf = io.BytesIO()
    save_model(init_params(vocab, 3, np.random.default_rng(SEED)), vocab, buf)
    head, _, payload = buf.getvalue().partition(b"\n\n")
    base = head.decode("utf-8").split("\n")
    sizes = range(1, 4)  # dim, words, fields
    word_rows = range(4, 4 + vocab.n_words)
    field_rows = range(4 + vocab.n_words, len(base))
    entries = range(4, len(base))

    def load(lines):
        load_model(io.BytesIO("\n".join(lines).encode("utf-8") + b"\n\n" + payload))

    def repeat(rng, lines):  # within one kind, so the header's sizes still hold
        i, j = rng.sample(rng.choice((word_rows, field_rows)), 2)
        lines[j] = lines[i]

    def keyword(rng, lines):
        i = rng.choice(sizes)
        wrong = [k for k in ("dim", "words", "fields", "foo", "") if k != lines[i].split(" ")[0]]
        lines[i] = rng.choice(wrong) + " " + lines[i].partition(" ")[2] + rng.choice(("", " extra"))

    mutations = {
        "truncate": lambda rng, lines: truncate(rng, lines, entries),
        "truncate_size": lambda rng, lines: truncate(rng, lines, sizes),
        "swap": lambda rng, lines: swap_columns(rng, lines, entries),
        "swap_size": lambda rng, lines: swap_columns(rng, lines, sizes, sep=" "),
        "drop": lambda rng, lines: lines.pop(rng.choice(entries)),
        "repeat": repeat,
        "bad_count": lambda rng, lines: bad_count(rng, lines, entries),
        "huge_pair": lambda rng, lines: huge_pair(rng, lines, rng.choice((word_rows, field_rows))),
        "keyword": keyword,
    }
    must_reject = {"swap", "swap_size", "drop", "repeat", "bad_count", "huge_pair", "keyword"}
    check(run_cases(base, mutations, load), must_reject)


def test_tree_line_mutations():
    base = [tree_to_line(tree) for tree in small_trees()]
    rows = range(len(base))

    def load(lines):
        list(read_trees(line + "\n" for line in lines))

    def edit_edge(rng, lines, edit):
        i = rng.choice((0, 1))  # the trees that have edges
        root, words, edges = lines[i].split("\t")
        edges = [e.split(":") for e in edges.split(";")]
        edit(rng, rng.choice(edges))  # parent, child, parent field, child field
        lines[i] = "\t".join((root, words, ";".join(":".join(e) for e in edges)))

    def reverse_edge(rng, edge):  # the child becomes a second parent's parent
        edge[:] = edge[1], edge[0], edge[3], edge[2]

    def bad_index(rng, edge):
        edge[rng.choice((0, 1))] = rng.choice(BAD_INDICES)

    def bad_field(rng, edge):  # a label the tree line writer refuses
        edge[rng.choice((2, 3))] = rng.choice(("", "A B", " "))

    def bad_root(rng, lines):
        i = rng.choice(rows)
        lines[i] = rng.choice(BAD_INDICES) + lines[i][1:]

    mutations = {
        "truncate": lambda rng, lines: truncate(rng, lines, rows),
        "swap": lambda rng, lines: swap_columns(rng, lines, rows),
        "repeat": lambda rng, lines: lines.insert(rng.choice(rows), lines[rng.choice(rows)]),
        "reverse_edge": lambda rng, lines: edit_edge(rng, lines, reverse_edge),
        "bad_root": bad_root,
        "bad_index": lambda rng, lines: edit_edge(rng, lines, bad_index),
        "bad_field": lambda rng, lines: edit_edge(rng, lines, bad_field),
    }
    must_reject = {"swap", "reverse_edge", "bad_root", "bad_index", "bad_field"}
    check(run_cases(base, mutations, load), must_reject)


# --- the seven text formats, as files -------------------------------------

FAR = 9 * 1024  # base files run past the first 8 KB that a text decoder reads at once
CONFIG_ROWS = [
    "# training settings",
    "dim = 25",
    "epochs=2  # two passes",
    "lr-schedule = linear",
    "mode = full",
    "gamma = 0.5",
    "pos = N",
    "strict-oov = yes",
    "word-min = 2",
]
NUMERIC_CONFIG_ROWS = (1, 2, 5, 8)
PHRASE_ROWS = [
    "VO\teat/V bread/N\tcook/V soup/N\t4.5",
    "AN\tfresh/J bread/N\twarm/J soup/N\t3",
    "NN\tpiano/N teacher/N\tguitar/N teacher/N\t5.25",
    "SVO\tfarmer/N eat/V bread/N\tbaker/N cook/V cake/N\t6",
    "ANVAN\told/J farmer/N eat/V fresh/J bread/N\tyoung/J baker/N cook/V warm/J cake/N\t2.5",
    "VO\tdrive truck\tpark car\t1e-3",
]


def past_8kb(rows):
    """``rows`` repeated until their lines run past ``FAR`` bytes."""
    lines = []
    while sum(len(line.encode("utf-8")) + 1 for line in lines) <= FAR:
        lines += rows
    return lines


@dataclass
class TextFormat:
    lines: list  # a valid file past the first 8 KB, lines without newlines
    read: Callable  # the library reader: path -> comparable parsed objects
    argv: Callable  # path -> the arguments of the CLI command that reads it


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    corpus = root / "corpus.conllu"
    worldgen.generate_corpus(corpus, 48, seed=5)
    conllu = corpus.read_text(encoding="utf-8").splitlines()
    trees = [tree_to_line(c.tree) for c in map(convert_sentence, parse_conllu(conllu)) if c is not None]
    (root / "trees.txt").write_text("".join(line + "\n" for line in trees), encoding="utf-8")
    words = tuple(Word(f"w{i}", "N") for i in range(800))
    vocab_path = root / "vocab.txt"
    save_vocab(Vocabulary(words, (ARG, SUBJ), {w: 1.0 + i for i, w in enumerate(words)}, {ARG: 3.0, SUBJ: 1.5}), vocab_path)
    model = root / "model.bin"
    save_model(init_params(small_vocab(), 2, np.random.default_rng(SEED)), small_vocab(), model)
    completion = [json.dumps(row) for row in worldgen.completion_items(4, seed=4)]
    relation = [json.dumps(row) for row in worldgen.relation_instances(4, seed=8)]
    return {
        "conllu": TextFormat(conllu, lambda p: list(parse_conllu_file(p)), lambda p: ["convert", p, root / "out.trees"]),
        "trees": TextFormat(past_8kb(trees), load_trees, lambda p: ["build-vocab", p, root / "out.vocab"]),
        "vocab": TextFormat(
            vocab_path.read_text(encoding="utf-8").splitlines(),
            lambda p: vars(load_vocab(p)),
            lambda p: ["train", root / "trees.txt", p, root / "out.bin", "--dim", 2, "--epochs", 1],
        ),
        "config": TextFormat(
            past_8kb(CONFIG_ROWS), cli._load_config_file, lambda p: ["convert", corpus, root / "out.trees", "--config", p]
        ),
        "phrase": TextFormat(past_8kb(PHRASE_ROWS), load_phrase_dataset, lambda p: ["eval-phrase", model, p]),
        "completion": TextFormat(past_8kb(completion), load_completion_dataset, lambda p: ["eval-completion", model, p]),
        "relation": TextFormat(
            past_8kb(relation), load_relation_instances, lambda p: ["export-features", model, p, root / "features.tsv"]
        ),
    }


FORMATS = ("conllu", "trees", "vocab", "config", "phrase", "completion", "relation")


def test_config_file_mutations(formats, tmp_path):
    base = formats["config"].lines
    entries = [i for i, line in enumerate(base) if "=" in line]
    numeric = [i for i in entries if i % len(CONFIG_ROWS) in NUMERIC_CONFIG_ROWS]

    def swap(rng, lines):
        i = rng.choice(entries)
        key, _, value = lines[i].partition("=")
        lines[i] = value + "=" + key

    def unknown_key(rng, lines):
        i = rng.choice(entries)
        lines[i] = rng.choice(("dimm", "bogus", "total_steps", "-")) + "=" + lines[i].partition("=")[2]

    def bad_value(rng, lines):
        i = rng.choice(numeric)
        lines[i] = lines[i].partition("=")[0] + "= " + rng.choice(("x", "", "1e999", "2 3", "0x10"))

    mutations = {
        "truncate": lambda rng, lines: truncate(rng, lines, entries),
        "swap": swap,
        "drop": lambda rng, lines: lines.pop(rng.choice(entries)),
        "repeat": lambda rng, lines: lines.insert(rng.choice(entries), lines[rng.choice(entries)]),
        "unknown_key": unknown_key,
        "bad_value": bad_value,
    }
    load = file_loader(tmp_path / "config.txt", cli._load_config_file)
    check(run_cases(base, mutations, load), {"swap", "unknown_key", "bad_value"})


def test_phrase_dataset_mutations(formats, tmp_path):
    base = formats["phrase"].lines
    rows = range(len(base))

    def set_column(rng, lines, col, values):
        i = rng.choice(rows)
        cols = lines[i].split("\t")
        cols[col] = rng.choice(values)
        lines[i] = "\t".join(cols)

    def drop_token(rng, lines):
        i = rng.choice(rows)
        cols = lines[i].split("\t")
        col = rng.choice((1, 2))
        cols[col] = " ".join(cols[col].split()[1:])
        lines[i] = "\t".join(cols)

    mutations = {
        "truncate": lambda rng, lines: truncate(rng, lines, rows),
        "swap": lambda rng, lines: swap_columns(rng, lines, rows),
        "repeat": lambda rng, lines: lines.insert(rng.choice(rows), lines[rng.choice(rows)]),
        "bad_score": lambda rng, lines: set_column(rng, lines, 3, BAD_COUNTS[:4] + ("x", "", "1e999")),
        "construction": lambda rng, lines: set_column(rng, lines, 0, ("XY", "vo", "", "AN VO")),
        "drop_token": drop_token,
        "bad_word": lambda rng, lines: set_column(rng, lines, 1, ("eat/ bread/N", "/V bread/N", "eat/V/N bread/N")),
    }
    load = file_loader(tmp_path / "phrases.tsv", load_phrase_dataset)
    check(run_cases(base, mutations, load), {"bad_score", "construction", "drop_token"})


def json_mutations(int_keys):
    """Mutations of JSON-lines dataset rows that hold a token list plus the
    integer fields ``int_keys``."""

    def edit(edit_row):
        def mutate(rng, lines):
            i = rng.randrange(len(lines))
            row = json.loads(lines[i])
            edit_row(rng, row)
            lines[i] = json.dumps(row)

        return mutate

    def drop_key(rng, row):
        del row[rng.choice(sorted(row))]

    def self_head(rng, row):
        token = rng.choice(row["tokens"])
        token["head"] = token["id"]

    def huge(rng, row):  # json.dumps writes Infinity, which json.loads reads back
        target = rng.choice((row, rng.choice(row["tokens"])))
        key = rng.choice(int_keys) if target is row else rng.choice(("id", "head"))
        target[key] = rng.choice((float("inf"), float("-inf"), float("nan")))

    def bad_type(rng, row):
        row[rng.choice(int_keys)] = rng.choice((None, "x", [], {}, "1.5"))

    def repeat_token(rng, row):
        row["tokens"].append(dict(rng.choice(row["tokens"])))

    def drop_optional(rng, row):  # the token fields that have defaults
        token = rng.choice(row["tokens"])
        del token[rng.choice(("form", "lemma", "upos", "deprel"))]

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, range(len(lines))),
        "repeat": lambda rng, lines: lines.insert(rng.randrange(len(lines)), rng.choice(lines)),
        "drop_optional": edit(drop_optional),
        "drop_key": edit(drop_key),
        "self_head": edit(self_head),
        "huge": edit(huge),
        "bad_type": edit(bad_type),
        "repeat_token": edit(repeat_token),
    }


JSON_MUST_REJECT = {"drop_key", "self_head", "huge", "bad_type", "repeat_token"}


def test_completion_dataset_mutations(formats, tmp_path):
    mutations = json_mutations(("blank", "answer"))

    def drop_choice(rng, lines):
        i = rng.randrange(len(lines))
        row = json.loads(lines[i])
        row["choices"].pop(rng.randrange(len(row["choices"])))
        lines[i] = json.dumps(row)

    mutations["drop_choice"] = drop_choice
    load = file_loader(tmp_path / "items.jsonl", load_completion_dataset)
    check(run_cases(formats["completion"].lines, mutations, load), JSON_MUST_REJECT | {"drop_choice"})


def test_relation_dataset_mutations(formats, tmp_path):
    load = file_loader(tmp_path / "instances.jsonl", load_relation_instances)
    check(run_cases(formats["relation"].lines, json_mutations(("e1", "e2")), load), JSON_MUST_REJECT)


def test_conllu_mutations(formats, tmp_path):
    base = formats["conllu"].lines
    tokens = [i for i, line in enumerate(base) if line and not line.startswith("#")]

    def set_column(rng, lines, col, values):
        i = rng.choice(tokens)
        cols = lines[i].split("\t")
        cols[col] = rng.choice(values) if values else cols[0]
        lines[i] = "\t".join(cols)

    def repeat(rng, lines):  # next to itself, so its sentence repeats a token id
        i = rng.choice(tokens)
        lines.insert(i, lines[i])

    mutations = {
        "truncate": lambda rng, lines: truncate(rng, lines, tokens),
        "swap": lambda rng, lines: swap_columns(rng, lines, tokens),
        "drop": lambda rng, lines: lines.pop(rng.choice(tokens)),
        "repeat": repeat,
        "self_head": lambda rng, lines: set_column(rng, lines, 6, ()),
        "bad_id": lambda rng, lines: set_column(rng, lines, 0, ("x", "0", "-1", "", "1e3")),
        "bad_head": lambda rng, lines: set_column(rng, lines, 6, ("x", "-1", "99", "", "1.5")),
    }
    load = file_loader(tmp_path / "corpus.conllu", lambda p: list(parse_conllu_file(p)))
    check(run_cases(base, mutations, load), {"repeat", "self_head", "bad_id", "bad_head"})


BAD_BYTES = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")
BYTE_CASES = 24  # per format: half a byte that is not UTF-8, half a NUL


def encode(lines):
    return [line.encode("utf-8") + b"\n" for line in lines]


@pytest.mark.parametrize("name", FORMATS)
def test_byte_mutations(formats, name, tmp_path):
    fmt = formats[name]
    path = tmp_path / "input"
    base = encode(fmt.lines)
    path.write_bytes(b"".join(base))
    want = fmt.read(path)
    path.write_bytes(b"".join(base).replace(b"\n", b"\r\n"))
    assert fmt.read(path) == want
    rng = random.Random(SEED)
    rows = [i for i, line in enumerate(fmt.lines) if line]
    for case in range(BYTE_CASES):
        i = rng.choice(rows)
        at = rng.randrange(len(base[i]))  # before the newline
        insert = rng.choice(BAD_BYTES) if case % 2 else b"\x00"
        lines = list(base)
        lines[i] = base[i][:at] + insert + base[i][at:]
        path.write_bytes(b"".join(lines))
        if insert == b"\x00":
            try:
                fmt.read(path)
            except InputError:
                pass
            continue
        with pytest.raises(MalformedLine) as err:
            fmt.read(path)
        assert err.value.line_no == i + 1 and "not UTF-8" in str(err.value)


def bad_byte_past_8kb(lines):
    """The file of ``lines`` with 0xff in the first non-blank line that
    starts past the first 8 KB, and that line's number."""
    raw = encode(lines)
    start = 0
    for i, line in enumerate(lines):
        if start > 8192 and line:
            raw[i] = raw[i][:1] + b"\xff" + raw[i][1:]
            return b"".join(raw), i + 1
        start += len(raw[i])
    raise AssertionError("the base file ends within its first 8 KB")


def truncated(lines):
    """The file of ``lines`` cut in the middle of its last non-blank line,
    and that line's number."""
    last = max(i for i, line in enumerate(lines) if line)
    return b"".join(encode(lines[:last])) + lines[last][: len(lines[last]) // 2].encode("utf-8"), last + 1


@pytest.mark.parametrize("name", FORMATS)
def test_bad_byte_past_8kb_names_its_line(formats, name, tmp_path):
    fmt = formats[name]
    path = tmp_path / "input"
    data, line_no = bad_byte_past_8kb(fmt.lines)
    path.write_bytes(data)
    with pytest.raises(MalformedLine) as err:
        fmt.read(path)
    assert err.value.line_no == line_no and "0xff" in str(err.value)


@pytest.mark.parametrize("name", FORMATS)
def test_cli_exits_2_on_bad_bytes_and_truncation(formats, name, tmp_path):
    fmt = formats[name]
    path = tmp_path / "input"
    data, line_no = bad_byte_past_8kb(fmt.lines)
    path.write_bytes(data)
    error, message = one_error_line(run_cli(*fmt.argv(path), expect=2))
    assert error == "MalformedLine" and message.startswith(f"line {line_no}: not UTF-8: byte 0xff")
    data, line_no = truncated(fmt.lines)
    path.write_bytes(data)
    error, message = one_error_line(run_cli(*fmt.argv(path), expect=2))
    assert error == "MalformedLine" and message.startswith(f"line {line_no}: ")
