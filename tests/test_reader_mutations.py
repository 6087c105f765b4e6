"""Seeded mutations of small valid inputs for every reader: vocabulary
files, model headers and payloads, tree lines, config files, the phrase,
completion and relation datasets and CoNLL-U.

Each mutated input must load or raise an ``InputError`` subclass (exit 2
at the CLI); any other exception fails the test.  Mutations that break a
documented rule (a repeated entry, a count that is not finite and >= 0,
two counts that sum past the largest float, a wrong keyword, an edge
that breaks the tree, token heads that form no tree, a JSON integer field
holding a fraction or a bool) must be rejected, not loaded.  Byte-level
mutations cover the seven text formats: a byte that is not UTF-8 is a
MalformedLine naming its line, and a CRLF copy reads as the LF file.  A
CLI pass feeds each text command a file with a bad byte past the first
8 KB and a truncated file, and a second CLI pass feeds each one seeded
line mutations (swapped columns, a bad value, a repeated id, a head
cycle): every run exits 0, or exits 2 with one error line.  A model
payload holding a NaN or an infinity is rejected at load; one with huge
or subnormal floats, and tables built in memory with any of these, must
still rank answers as the full scan does.
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
from dcsvec.errors import DcsvecError, DimensionMismatch, InputError, MalformedLine
from dcsvec.evaluate import load_completion_dataset, load_phrase_dataset, load_relation_instances
from dcsvec.model import ModelParams, compose_query, init_params, load_model, nearest_answers, normalize, save_model
from dcsvec.trees import (
    ARG, COMP, SUBJ, UNKNOWN_FIELD, DcsTree, Edge, Word, load_trees, read_trees, tree_to_line, unknown_word,
)
from dcsvec.ud import convert_sentence, parse_conllu, parse_conllu_file
from dcsvec.vocab import Vocabulary, load_vocab, save_vocab
from test_cli import one_error_line, run_cli
from test_model import assert_same_ranking, nearest_answers_oracle

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


def vocab_mutations(base):
    entries = range(1, len(base))  # after the magic line
    words = [i for i in entries if base[i].startswith("W\t")]
    fields = [i for i in entries if base[i].startswith("F\t")]

    def keyword(rng, lines):
        i = rng.choice(entries)
        lines[i] = rng.choice(("X", "w", "WF", "")) + lines[i][1:]

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, entries),
        "swap": lambda rng, lines: swap_columns(rng, lines, entries),
        "drop": lambda rng, lines: lines.pop(rng.choice(entries)),
        "repeat": lambda rng, lines: lines.insert(rng.choice(entries), lines[rng.choice(entries)]),
        "bad_count": lambda rng, lines: bad_count(rng, lines, entries),
        "huge_pair": lambda rng, lines: huge_pair(rng, lines, rng.choice((words, fields))),
        "keyword": keyword,
    }


def test_vocabulary_file_mutations(tmp_path):
    path = tmp_path / "vocab.txt"
    save_vocab(small_vocab(), path)
    base = path.read_text(encoding="utf-8").splitlines()
    must_reject = {"swap", "repeat", "bad_count", "huge_pair", "keyword"}
    check(run_cases(base, vocab_mutations(base), file_loader(path, load_vocab)), must_reject)


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


# NaN, infinities, floats near the float32 limit and float32 subnormals
PAYLOAD_VALUES = (np.nan, np.inf, -np.inf, 1e38, -3e38, 1e-45, -1e-40)


def test_model_payload_mutations(tmp_path):
    """Non-finite, huge and subnormal floats in rows of V, U, M and Minv.
    A NaN or an infinity fails the load, naming its table and row, and the
    command exits 2 with one error line; the same tables built in memory
    still get the full scan's list.  Finite values load, and each query
    returns the full scan's list, raw and normalized, or the command exits
    2 with one error line."""
    words = [Word(f"n{i}", "N") for i in range(30)] + [Word(f"v{i}", "V") for i in range(10)]
    words += [unknown_word("N"), unknown_word("V")]
    fields = (ARG, SUBJ, COMP, UNKNOWN_FIELD)
    vocab = Vocabulary(tuple(words), fields, dict.fromkeys(words, 1.0), dict.fromkeys(fields, 1.0))
    n, m, d = len(words), len(fields), 5
    literal = "n3/N -SUBJ:ARG-> v1/V -COMP:ARG-> n7/N"
    tree = cli.parse_tree_literal(literal)
    query_words = [vocab.word_id(word) for word in tree.words]
    query_fields = [vocab.field_id(f) for f in (ARG, SUBJ, COMP)]
    path = tmp_path / "model.bin"
    save_model(init_params(vocab, d, np.random.default_rng(SEED)), vocab, path)
    blob = path.read_bytes()
    start = len(blob) - 4 * (2 * n * d + 2 * m * d * d)
    rng = random.Random(SEED)
    cli_kinds = set()
    for case in range(CASES):
        table = ("V", "U", "M", "Minv")[case % 4]
        if table == "V":  # rows the query reads, half the time
            row = table_row = rng.choice(query_words) if rng.random() < 0.5 else rng.randrange(n)
        elif table == "U":
            table_row = rng.randrange(n)
            row = n + table_row
        else:  # per field: M, then Minv
            table_row = rng.choice(query_fields) if rng.random() < 0.5 else rng.randrange(m)
            row = 2 * n + d * (2 * table_row + (table == "Minv")) + rng.randrange(d)
        mutated = bytearray(blob)
        payload = np.frombuffer(mutated, dtype="<f4", offset=start).reshape(-1, d)
        value = rng.choice(PAYLOAD_VALUES)
        if rng.random() < 0.5:
            payload[row] = value
        else:
            payload[row, rng.randrange(d)] = value
        path.write_bytes(mutated)
        finite = bool(np.isfinite(value))
        if finite:
            raw, _ = load_model(path)
        else:  # the same tables, built in memory
            with pytest.raises(DimensionMismatch, match=rf"^{table} row {table_row} \(.*\) holds a value that is not finite"):
                load_model(path)
            V, U = payload[: 2 * n].reshape(2, n, d)
            maps = payload[2 * n :].reshape(m, 2, d, d)
            raw = ModelParams(d, vocab, V.copy(), U.copy(), maps[:, 0].copy(), maps[:, 1].copy())
        try:
            normalized = normalize(raw)
        except DcsvecError:
            normalized = None
        for params in (raw, normalized):
            if params is None:
                continue
            query = compose_query(params, tree)
            for pos in (None, "N"):
                want = nearest_answers_oracle(params, query, 8, pos)
                assert_same_ranking(nearest_answers(params, query, 8, pos), want)
        if (table, finite) in cli_kinds:  # one command per kind: a CLI run takes a few tenths of a second
            continue
        cli_kinds.add((table, finite))
        proc = run_cli("nearest", path, "--tree", literal, "--k", 8, expect=0 if finite and normalized else 2)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            error, message = one_error_line(proc)
            assert finite or (error == "DimensionMismatch" and message.startswith(f"{table} row {table_row} ("))
            continue
        want = nearest_answers_oracle(normalized, compose_query(normalized, tree), 8)
        got = [line.split("\t") for line in proc.stdout.splitlines()]
        assert [word for _, word, _ in got] == [word.render() for word, _ in want]
        for (_, _, text), (_, score) in zip(got, want):
            assert text == f"{score:.6f}" or abs(float(text) - score) <= 1e-6 * (1 + abs(score))
    assert cli_kinds == {(table, finite) for table in ("V", "U", "M", "Minv") for finite in (True, False)}


def tree_mutations(base):
    rows = range(len(base))
    edged = [i for i in rows if base[i].split("\t")[2]]  # the trees that have edges

    def edit_edge(rng, lines, edit):
        i = rng.choice(edged)
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

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, rows),
        "swap": lambda rng, lines: swap_columns(rng, lines, rows),
        "repeat": lambda rng, lines: lines.insert(rng.choice(rows), lines[rng.choice(rows)]),
        "reverse_edge": lambda rng, lines: edit_edge(rng, lines, reverse_edge),
        "bad_root": bad_root,
        "bad_index": lambda rng, lines: edit_edge(rng, lines, bad_index),
        "bad_field": lambda rng, lines: edit_edge(rng, lines, bad_field),
    }


def test_tree_line_mutations():
    base = [tree_to_line(tree) for tree in small_trees()]

    def load(lines):
        list(read_trees(line + "\n" for line in lines))

    must_reject = {"swap", "reverse_edge", "bad_root", "bad_index", "bad_field"}
    check(run_cases(base, tree_mutations(base), load), must_reject)


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
# 1e999 is no integer; for a float key it reads as inf, which is a value
# (a clip norm may be inf) that the setting's own check ranges
INTEGER_CONFIG_ROWS = (1, 2)
BOOLEAN_CONFIG_ROWS = (7,)
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
    vocab = small_vocab()  # plus the placeholders of the other tags, as build_vocab writes them
    extra = tuple(unknown_word(pos) for pos in ("J", "P", "R", "X"))
    vocab = Vocabulary(vocab.words + extra, vocab.fields, {**vocab.word_counts, **dict.fromkeys(extra, 1.0)}, vocab.field_counts)
    save_model(init_params(vocab, 2, np.random.default_rng(SEED)), vocab, model)
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


def config_mutations(base):
    entries = [i for i, line in enumerate(base) if "=" in line]
    numeric = [i for i in entries if i % len(CONFIG_ROWS) in NUMERIC_CONFIG_ROWS]
    boolean = [i for i in entries if i % len(CONFIG_ROWS) in BOOLEAN_CONFIG_ROWS]

    def swap(rng, lines):
        i = rng.choice(entries)
        key, _, value = lines[i].partition("=")
        lines[i] = value + "=" + key

    def unknown_key(rng, lines):
        i = rng.choice(entries)
        lines[i] = rng.choice(("dimm", "bogus", "total_steps", "-")) + "=" + lines[i].partition("=")[2]

    def bad_value(rng, lines):
        if rng.random() < 0.5:
            i = rng.choice(numeric)
            values = ("x", "", "2 3", "0x10") + (("1e999",) if i % len(CONFIG_ROWS) in INTEGER_CONFIG_ROWS else ())
        else:  # a boolean is 1/0, true/false or yes/no, nothing else
            i, values = rng.choice(boolean), ("on", "ture", "off", "y", "", "2")
        lines[i] = lines[i].partition("=")[0] + "= " + rng.choice(values)

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, entries),
        "swap": swap,
        "drop": lambda rng, lines: lines.pop(rng.choice(entries)),
        "repeat": lambda rng, lines: lines.insert(rng.choice(entries), lines[rng.choice(entries)]),
        "unknown_key": unknown_key,
        "bad_value": bad_value,
    }


def test_config_file_mutations(formats, tmp_path):
    base = formats["config"].lines
    load = file_loader(tmp_path / "config.txt", cli._load_config_file)
    check(run_cases(base, config_mutations(base), load), {"swap", "unknown_key", "bad_value"})


def phrase_mutations(base):
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

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, rows),
        "swap": lambda rng, lines: swap_columns(rng, lines, rows),
        "repeat": lambda rng, lines: lines.insert(rng.choice(rows), lines[rng.choice(rows)]),
        "bad_score": lambda rng, lines: set_column(rng, lines, 3, BAD_COUNTS[:4] + ("x", "", "1e999")),
        "construction": lambda rng, lines: set_column(rng, lines, 0, ("XY", "vo", "", "AN VO")),
        "drop_token": drop_token,
        "bad_word": lambda rng, lines: set_column(rng, lines, 1, ("eat/ bread/N", "/V bread/N", "eat/V/N bread/N")),
    }


def test_phrase_dataset_mutations(formats, tmp_path):
    base = formats["phrase"].lines
    load = file_loader(tmp_path / "phrases.tsv", load_phrase_dataset)
    check(run_cases(base, phrase_mutations(base), load), {"bad_score", "construction", "drop_token"})


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

    def int_field(rng, row):
        """A row or token dict and one of its integer keys."""
        target = rng.choice((row, rng.choice(row["tokens"])))
        return target, rng.choice(int_keys) if target is row else rng.choice(("id", "head"))

    def huge(rng, row):  # json.dumps writes Infinity, which json.loads reads back
        target, key = int_field(rng, row)
        target[key] = rng.choice((float("inf"), float("-inf"), float("nan")))

    def non_integer(rng, row):  # int() would truncate these, and read a bool as 0 or 1
        target, key = int_field(rng, row)
        target[key] = rng.choice((target[key] + 0.5, float(target[key]), True, False))

    def bad_type(rng, row):
        row[rng.choice(int_keys)] = rng.choice((None, "x", [], {}, "1.5"))

    def repeat_token(rng, row):
        row["tokens"].append(dict(rng.choice(row["tokens"])))

    def swap(rng, row):  # the values of two of a token's keys
        token = rng.choice(row["tokens"])
        a, b = rng.sample(sorted(token), 2)
        token[a], token[b] = token[b], token[a]

    def drop_optional(rng, row):  # the token fields that have defaults
        token = rng.choice(row["tokens"])
        del token[rng.choice(("form", "lemma", "upos", "deprel"))]

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, range(len(lines))),
        "repeat": lambda rng, lines: lines.insert(rng.randrange(len(lines)), rng.choice(lines)),
        "swap": edit(swap),
        "drop_optional": edit(drop_optional),
        "drop_key": edit(drop_key),
        "self_head": edit(self_head),
        "huge": edit(huge),
        "non_integer": edit(non_integer),
        "bad_type": edit(bad_type),
        "repeat_token": edit(repeat_token),
    }


JSON_MUST_REJECT = {"drop_key", "self_head", "huge", "non_integer", "bad_type", "repeat_token"}


def completion_mutations(base):
    def drop_choice(rng, lines):
        i = rng.randrange(len(lines))
        row = json.loads(lines[i])
        row["choices"].pop(rng.randrange(len(row["choices"])))
        lines[i] = json.dumps(row)

    return {**json_mutations(("blank", "answer")), "drop_choice": drop_choice}


def relation_mutations(base):
    return json_mutations(("e1", "e2"))


def test_completion_dataset_mutations(formats, tmp_path):
    base = formats["completion"].lines
    load = file_loader(tmp_path / "items.jsonl", load_completion_dataset)
    check(run_cases(base, completion_mutations(base), load), JSON_MUST_REJECT | {"drop_choice"})


def test_relation_dataset_mutations(formats, tmp_path):
    base = formats["relation"].lines
    load = file_loader(tmp_path / "instances.jsonl", load_relation_instances)
    check(run_cases(base, relation_mutations(base), load), JSON_MUST_REJECT)


def conllu_mutations(base):
    tokens = [i for i, line in enumerate(base) if line and not line.startswith("#")]

    def set_column(rng, lines, col, values):
        i = rng.choice(tokens)
        cols = lines[i].split("\t")
        cols[col] = rng.choice(values) if values else cols[0]
        lines[i] = "\t".join(cols)

    def repeat(rng, lines):  # next to itself, so its sentence repeats a token id
        i = rng.choice(tokens)
        lines.insert(i, lines[i])

    return {
        "truncate": lambda rng, lines: truncate(rng, lines, tokens),
        "swap": lambda rng, lines: swap_columns(rng, lines, tokens),
        "drop": lambda rng, lines: lines.pop(rng.choice(tokens)),
        "repeat": repeat,
        "self_head": lambda rng, lines: set_column(rng, lines, 6, ()),
        "bad_id": lambda rng, lines: set_column(rng, lines, 0, ("x", "0", "-1", "", "1e3")),
        "bad_head": lambda rng, lines: set_column(rng, lines, 6, ("x", "-1", "99", "", "1.5")),
    }


def test_conllu_mutations(formats, tmp_path):
    base = formats["conllu"].lines
    load = file_loader(tmp_path / "corpus.conllu", lambda p: list(parse_conllu_file(p)))
    check(run_cases(base, conllu_mutations(base), load), {"repeat", "self_head", "bad_id", "bad_head"})


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


# per format: its mutations, and the ones the CLI pass runs, one of each
# kind the format has: swapped columns, a bad value, a repeated id (an
# entry, a row or a token) and a head cycle (a token heading itself, an
# edge reversed)
CLI_MUTATIONS = {
    "conllu": (conllu_mutations, ("swap", "bad_head", "repeat", "self_head")),
    "trees": (tree_mutations, ("swap", "bad_index", "repeat", "reverse_edge")),
    "vocab": (vocab_mutations, ("swap", "bad_count", "repeat")),
    "config": (config_mutations, ("swap", "bad_value", "repeat")),
    "phrase": (phrase_mutations, ("swap", "bad_score", "repeat")),
    "completion": (completion_mutations, ("swap", "non_integer", "repeat_token", "self_head")),
    "relation": (relation_mutations, ("swap", "non_integer", "repeat_token", "self_head")),
}


@pytest.mark.parametrize("name", FORMATS)
def test_cli_exits_0_or_2_on_line_mutations(formats, name, tmp_path):
    """Each mutated file runs its command to exit 0, or to exit 2 with one
    error line, always so when the library reader rejects the file; no
    run prints a traceback."""
    fmt = formats[name]
    make, kinds = CLI_MUTATIONS[name]
    mutations = make(fmt.lines)
    rng = random.Random(SEED)
    path = tmp_path / "input"
    for kind in kinds:
        lines = list(fmt.lines)
        mutations[kind](rng, lines)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        proc = run_cli(*fmt.argv(path), expect=(0, 2) if outcome(fmt.read, path) == "loaded" else 2)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            one_error_line(proc)
