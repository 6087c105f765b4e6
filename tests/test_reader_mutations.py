"""Seeded mutations of small valid inputs for three readers: vocabulary
files, model headers and tree lines.

Each mutated input must load or raise an ``InputError`` subclass (exit 2
at the CLI); any other exception fails the test.  Mutations that break a
documented rule (a repeated entry, a count that is not finite and >= 0,
two counts that sum past the largest float, a wrong keyword, an edge
that breaks the tree) must be rejected, not loaded.
"""

import io
import random

import numpy as np

from dcsvec.errors import InputError
from dcsvec.model import init_params, load_model, save_model
from dcsvec.trees import ARG, COMP, SUBJ, UNKNOWN_FIELD, DcsTree, Edge, Word, read_trees, tree_to_line, unknown_word
from dcsvec.vocab import Vocabulary, load_vocab, save_vocab

SEED = 1219
CASES = 120  # per reader; all three readers take about a second together
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

    def load(lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        load_vocab(path)

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
    check(run_cases(base, mutations, load), {"swap", "repeat", "bad_count", "huge_pair", "keyword"})


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
