from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import worldgen
from dcsvec.errors import (
    BadMagic,
    EmptyCorpus,
    InputError,
    InvalidConfig,
    MalformedLine,
    MissingPlaceholder,
    UnknownField,
    UnknownWord,
)
from dcsvec.trees import (
    ARG,
    COMP,
    CORE_FIELDS,
    POS_TAGS,
    SUBJ,
    UNKNOWN_FIELD,
    DcsTree,
    Edge,
    Word,
    exact_path_weight,
    hop_fields,
    path_nodes,
    unknown_word,
)
from dcsvec.ud import convert_sentence, parse_conllu_file
from dcsvec.vocab import (
    PathSample,
    Vocabulary,
    build_vocab,
    entry_lines,
    load_vocab,
    path_sample_to_line,
    sample_paths,
    save_vocab,
)
from helpers import id_example, random_tree


def w(lemma, pos="N"):
    return Word(lemma, pos)


def star_and_chain_corpus():
    # star: s at the center (degree 3), leaves x y z; every edge SUBJ:ARG
    star = DcsTree(
        (w("s", "V"), w("x"), w("y"), w("z")),
        0,
        (Edge(0, 1, SUBJ, ARG), Edge(0, 2, SUBJ, ARG), Edge(0, 3, SUBJ, ARG)),
    )
    # chain: a - b - c with an "in" edge and a COMP edge
    chain = DcsTree(
        (w("a"), w("b", "V"), w("c")),
        1,
        (Edge(1, 0, COMP, ARG), Edge(1, 2, "in", ARG)),
    )
    return [star, chain]


def test_hand_summed_endpoint_counts():
    vocab = build_vocab(star_and_chain_corpus(), 1, 1)
    # star endpoints: each leaf takes 1 (from s) + 2 * 1/2 (from the other
    # leaves) = 2; the center takes 3 * 1 = 3
    assert vocab.word_counts[w("s", "V")] == 3.0
    for leaf in ("x", "y", "z"):
        assert vocab.word_counts[w(leaf)] == 2.0
    # chain endpoints: middle b gets 1+1, ends get 1 (direct) + 1 (through b)
    assert vocab.word_counts[w("b", "V")] == 2.0
    assert vocab.word_counts[w("a")] == 2.0
    assert vocab.word_counts[w("c")] == 2.0


def test_hand_summed_field_counts():
    # chain only: paths and weights all 1; count field occurrences per
    # traversed hop (both labels of every hop):
    #   a<->b (2 paths, 1 hop): COMP x2, ARG x2
    #   b<->c (2 paths): in x2, ARG x2
    #   a<->c (2 paths, 2 hops each): COMP x2, ARG x4, in x2
    chain = star_and_chain_corpus()[1]
    vocab = build_vocab([chain], 1, 1)
    assert vocab.field_counts[COMP] == 4.0
    assert vocab.field_counts["in"] == 4.0
    assert vocab.field_counts[ARG] == 8.0


def pair_loop_vocab(trees, word_min, prep_min):
    """Oracle: the vocabulary counted one ordered node pair at a time, both
    labels of each hop of each path credited with its exact weight."""
    word_acc, field_acc = {}, {}
    for tree in trees:
        n = tree.n_nodes
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                nodes = path_nodes(tree, a, b)
                weight = exact_path_weight(tree, nodes)
                end_word = tree.words[b]
                word_acc[end_word] = word_acc.get(end_word, Fraction(0)) + weight
                for u, v in zip(nodes, nodes[1:]):
                    for f in hop_fields(tree, u, v):
                        field_acc[f] = field_acc.get(f, Fraction(0)) + weight
    words = {unknown_word(pos): Fraction(0) for pos in POS_TAGS}
    for word, c in word_acc.items():
        kept = c >= word_min and word != unknown_word(word.pos)
        key = word if kept else unknown_word(word.pos)
        words[key] = words.get(key, Fraction(0)) + c
    fields = {f: Fraction(0) for f in CORE_FIELDS + (UNKNOWN_FIELD,)}
    for f, c in field_acc.items():
        key = f if f in CORE_FIELDS or (f != UNKNOWN_FIELD and c >= prep_min) else UNKNOWN_FIELD
        fields[key] = fields.get(key, Fraction(0)) + c
    preps = sorted((f for f in fields if f not in CORE_FIELDS + (UNKNOWN_FIELD,)), key=lambda f: (-fields[f], f))
    return Vocabulary(
        tuple(sorted(words, key=lambda w: (-words[w], w.lemma, w.pos))),
        CORE_FIELDS + tuple(preps) + (UNKNOWN_FIELD,),
        {w: float(c) for w, c in words.items()},
        {f: float(c) for f, c in fields.items()},
    )


def assert_vocab_matches_pair_loop(trees, thresholds):
    for word_min, prep_min in thresholds:
        got, want = build_vocab(trees, word_min, prep_min), pair_loop_vocab(trees, word_min, prep_min)
        assert (got.words, got.fields) == (want.words, want.fields)
        assert (got.word_counts, got.field_counts) == (want.word_counts, want.field_counts)
        assert list(entry_lines(got)) == list(entry_lines(want))  # the vocabulary file's lines


def test_build_vocab_matches_the_pair_loop_on_worldgen(tmp_path):
    worldgen.generate_corpus(tmp_path / "corpus.conllu", 300, seed=1)
    convs = (convert_sentence(s) for s in parse_conllu_file(tmp_path / "corpus.conllu"))
    trees = [c.tree for c in convs if c is not None and c.tree.n_nodes >= 2]
    assert_vocab_matches_pair_loop(trees, [(1, 1), (5, 20), (40, 300)])


def test_build_vocab_matches_the_pair_loop_on_random_trees():
    rng = np.random.default_rng(12)
    trees = [random_tree(rng, int(rng.integers(2, 9)), n_words=6) for _ in range(40)]
    trees += [random_tree(rng, int(rng.integers(15, 34)), n_words=12) for _ in range(4)]
    assert_vocab_matches_pair_loop(trees, [(1, 1), (6, 30), (25, 120)])


def test_word_threshold_boundary():
    # thalidomide appears as one 2-node tree endpoint: count exactly 1
    corpus = [DcsTree((w("thalidomide"), w("ban", "V")), 0, (Edge(0, 1, ARG, COMP),))]
    vocab = build_vocab(corpus, word_min=2, prep_min=1)
    assert w("thalidomide") not in vocab.word_index
    assert vocab.word_id(w("thalidomide"), strict=False) == vocab.word_id(unknown_word("N"))
    # its mass lands on the placeholder
    assert vocab.word_counts[unknown_word("N")] == 1.0


def test_identity_mapping_at_threshold_one():
    corpus = star_and_chain_corpus()
    vocab = build_vocab(corpus, 1, 1)
    observed = {word for tree in corpus for word in tree.words}
    assert observed <= set(vocab.words)
    for word in observed:
        assert vocab.words[vocab.word_id(word)] == word
        assert vocab.word_id(word, strict=False) == vocab.word_id(word)


def test_rare_preposition_maps_to_placeholder_but_core_never():
    chain = star_and_chain_corpus()[1]  # "in" has count 4, COMP count 4
    vocab = build_vocab([chain], word_min=1, prep_min=5)
    assert "in" not in vocab.field_index
    assert vocab.field_id("in", strict=False) == vocab.field_id(UNKNOWN_FIELD)
    assert vocab.field_counts[UNKNOWN_FIELD] == 4.0
    # core fields stay no matter how small their counts are
    assert vocab.fields[vocab.field_id(COMP, strict=False)] == COMP
    assert ARG in vocab.field_index and SUBJ in vocab.field_index


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        build_vocab([], 1, 1)
    single = DcsTree((w("alone"),), 0, ())
    with pytest.raises(EmptyCorpus):
        build_vocab([single], 1, 1)


def test_single_word_drawn_with_probability_one():
    vocab = Vocabulary(
        words=(w("only"),),
        fields=(ARG,),
        word_counts={w("only"): 5.0},
        field_counts={ARG: 1.0},
    )
    rng = np.random.default_rng(0)
    assert vocab.draw_words(rng, 100).tolist() == [0] * 100


def test_unigram_frequencies_match_counts():
    vocab = Vocabulary(
        words=(w("a"), w("b")),
        fields=(ARG,),
        word_counts={w("a"): 3.0, w("b"): 1.0},
        field_counts={ARG: 1.0},
    )
    rng = np.random.default_rng(1)
    n = 10**6
    hits = sum(1 for row in vocab.draw_words(rng, n).tolist() if vocab.words[row] == w("a"))
    assert abs(hits / n - 0.75) < 0.002


def test_unigram_chi_square_goodness_of_fit():
    corpus = star_and_chain_corpus()
    vocab = build_vocab(corpus, 1, 1)
    rng = np.random.default_rng(2)
    n = 10**6
    counts = np.bincount(vocab.draw_words(rng, n), minlength=vocab.n_words)
    expected = np.array([vocab.word_counts.get(word, 0.0) for word in vocab.words])
    mask = expected > 0
    expected = expected[mask] / expected[mask].sum() * counts[mask].sum()
    assert counts[~mask].sum() == 0  # zero-mass rows never drawn
    _, pvalue = stats.chisquare(counts[mask], expected)
    assert pvalue > 0.01


def test_field_unigram_chi_square():
    corpus = star_and_chain_corpus()
    vocab = build_vocab(corpus, 1, 1)
    rng = np.random.default_rng(3)
    n = 200000
    counts = np.bincount(vocab.draw_fields(rng, n), minlength=vocab.n_fields)
    expected = np.array([vocab.field_counts.get(f, 0.0) for f in vocab.fields])
    mask = expected > 0
    expected = expected[mask] / expected[mask].sum() * counts[mask].sum()
    _, pvalue = stats.chisquare(counts[mask], expected)
    assert pvalue > 0.01


def test_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab(star_and_chain_corpus(), 1, 1)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.words == vocab.words
    assert loaded.fields == vocab.fields
    assert loaded.word_counts == vocab.word_counts
    assert loaded.field_counts == vocab.field_counts


def test_vocab_file_skips_whitespace_only_lines(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("VDCS-VOCAB 1\nW\tkid/N\t2.0\n \t\nF\tARG\t4.0\n", encoding="utf-8")
    vocab = load_vocab(path)
    assert vocab.words == (w("kid"),) and vocab.fields == (ARG,)


def test_build_vocab_rejects_nan_thresholds():
    with pytest.raises(InvalidConfig):
        build_vocab(star_and_chain_corpus(), float("nan"), 1)
    with pytest.raises(InvalidConfig):
        build_vocab(star_and_chain_corpus(), 1, float("nan"))


def test_vocab_file_bad_magic(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("NOT-A-VOCAB\n", encoding="utf-8")
    with pytest.raises(BadMagic):
        load_vocab(path)


def test_unknown_rows_always_present():
    vocab = build_vocab(star_and_chain_corpus(), 1, 1)
    for pos in ("N", "V", "J", "P", "R", "X"):
        assert unknown_word(pos) in vocab.word_index
    assert UNKNOWN_FIELD in vocab.field_index


def test_path_sample_dump_line():
    vocab = build_vocab(star_and_chain_corpus(), 1, 1)
    sample, _ = id_example(vocab, w("a"), w("b", "V"), ((ARG, SUBJ), (COMP, "in")))
    assert path_sample_to_line(sample, vocab) == "a/N\tb/V\tARG:SUBJ,COMP:in"


def test_word_id_and_field_id_strict_and_placeholder():
    vocab = build_vocab(star_and_chain_corpus(), 1, 1)
    for i, word in enumerate(vocab.words):
        assert vocab.word_id(word) == vocab.word_id(word, strict=False) == i
    for i, f in enumerate(vocab.fields):
        assert vocab.field_id(f) == vocab.field_id(f, strict=False) == i
    for pos in ("N", "V", "J"):
        with pytest.raises(UnknownWord):
            vocab.word_id(w("unseen", pos))
        assert vocab.word_id(w("unseen", pos), strict=False) == vocab.word_id(unknown_word(pos))
    with pytest.raises(UnknownField):
        vocab.field_id("beneath")
    assert vocab.field_id("beneath", strict=False) == vocab.field_id(UNKNOWN_FIELD)
    # with no placeholder row to fall back on, a non-strict lookup is an
    # input error naming both; a strict one is still a runtime miss
    bare = Vocabulary((w("a"),), (ARG,), {w("a"): 1.0}, {ARG: 1.0})
    with pytest.raises(MissingPlaceholder, match=r"b/N .*\*UNKNOWN\*/N"):
        bare.word_id(w("b"), strict=False)
    with pytest.raises(MissingPlaceholder, match=r"field in .*\*UNKNOWN\*"):
        bare.field_id("in", strict=False)
    with pytest.raises(UnknownWord):
        bare.word_id(w("b"))
    with pytest.raises(UnknownField):
        bare.field_id("in")


@pytest.mark.parametrize(
    "line, message",
    [
        ("W\tkid\t1.0", "expected lemma/POS"),
        ("W\tkid/Q\t1.0", "bad POS tag"),
        ("W\tplay/V\t2.0", "repeated W entry 'play/V'"),
        ("F\tARG\t2.0", "repeated F entry 'ARG'"),
        ("W\tdog/N\tnan", "count must be finite and >= 0"),
        ("W\tdog/N\tinf", "count must be finite and >= 0"),
        ("F\tto\t-1e9", "count must be finite and >= 0"),
        ("F\t\t1.0", "field name '' is empty"),
        ("F\tin to\t1.0", "reserved characters"),
    ],
)
def test_vocab_file_bad_or_repeated_entry_names_its_line(tmp_path, line, message):
    path = tmp_path / "vocab.txt"
    path.write_text(
        "VDCS-VOCAB 1\nW\tplay/V\t3.0\nW\tkid/N\t2.0\nF\tARG\t4.0\n" + line + "\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedLine, match=message) as err:
        load_vocab(path)
    assert err.value.line_no == 5


@pytest.mark.parametrize("kind", ["word", "field"])
def test_vocab_file_counts_summing_past_the_largest_float_are_rejected(tmp_path, kind):
    # each count is finite, but the running sum the unigram draw needs is inf
    big = "W\tdog/N\t1e308\nW\tcat/N\t1e308\n" if kind == "word" else "F\tto\t1e308\nF\tof\t1e308\n"
    path = tmp_path / "vocab.txt"
    path.write_text("VDCS-VOCAB 1\nW\tplay/V\t3.0\nF\tARG\t4.0\n" + big, encoding="utf-8")
    with pytest.raises(InputError, match=f"{kind} counts sum to inf"):
        load_vocab(path)


@pytest.mark.parametrize("kind", ["word", "field"])
def test_unigram_table_rejects_an_infinite_total(kind):
    words, fields = (w("a"), w("b")), (ARG, SUBJ)
    big = {kind: 1e308, "word" if kind == "field" else "field": 1.0}
    vocab = Vocabulary(
        words, fields, {x: big["word"] for x in words}, {f: big["field"] for f in fields}
    )
    draw = vocab.draw_words if kind == "word" else vocab.draw_fields
    with pytest.raises(InputError, match=f"{kind} counts sum to inf"):
        draw(np.random.default_rng(0), 10)
    assert InputError.exit_code == 2


def test_finalized_counts_respect_thresholds():
    corpus = star_and_chain_corpus() * 3
    vocab = build_vocab(corpus, word_min=4, prep_min=6)
    placeholders = {unknown_word(p) for p in ("N", "V", "J", "P", "R", "X")}
    for word in vocab.words:
        if word not in placeholders:
            assert vocab.word_counts[word] >= 4
    for f in vocab.fields:
        if f not in (ARG, SUBJ, COMP, UNKNOWN_FIELD):
            assert vocab.field_counts[f] >= 6


def test_sampling_without_a_placeholder_is_an_input_error():
    bare = Vocabulary((w("a"), w("b", "V")), (ARG,), {w("a"): 1.0, w("b", "V"): 1.0}, {ARG: 1.0})
    rng = np.random.default_rng(0)
    unknown_noun = DcsTree((w("b", "V"), w("c")), 0, (Edge(0, 1, ARG, ARG),))
    with pytest.raises(MissingPlaceholder, match=r"c/N .*\*UNKNOWN\*/N"):
        sample_paths(unknown_noun, bare, rng)
    unknown_field = DcsTree((w("b", "V"), w("a")), 0, (Edge(0, 1, "beneath", ARG),))
    with pytest.raises(MissingPlaceholder, match=r"beneath .*\*UNKNOWN\*"):
        sample_paths(unknown_field, bare, rng)
    assert MissingPlaceholder.exit_code == 2
    known = DcsTree((w("b", "V"), w("a")), 0, (Edge(0, 1, ARG, ARG),))
    assert sample_paths(known, bare, rng) == [PathSample(1, 0, ((0, 0),)), PathSample(0, 1, ((0, 0),))]


def test_unigram_tables_are_built_on_the_first_draw():
    vocab = build_vocab(star_and_chain_corpus(), 1, 1)
    assert "_word_cum" not in vars(vocab) and "_field_cum" not in vars(vocab)
    vocab.word_id(w("x")), vocab.field_id(ARG)  # lookups alone build nothing
    assert "_word_cum" not in vars(vocab) and "_field_cum" not in vars(vocab)
    rng = np.random.default_rng(7)
    vocab.draw_words(rng, 1)
    assert vocab._word_cum.tolist() == np.cumsum([vocab.word_counts[x] for x in vocab.words]).tolist()
    assert "_field_cum" not in vars(vocab)
    vocab.draw_fields(rng, 1)
    assert vocab._field_cum.tolist() == np.cumsum([vocab.field_counts[f] for f in vocab.fields]).tolist()
