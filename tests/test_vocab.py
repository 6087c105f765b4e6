import numpy as np
import pytest
from scipy import stats

from dcsvec.errors import (
    BadMagic,
    EmptyCorpus,
    MalformedLine,
    MissingPlaceholder,
    UnknownField,
    UnknownWord,
)
from dcsvec.trees import ARG, COMP, SUBJ, UNKNOWN_FIELD, DcsTree, Edge, Word, unknown_word
from dcsvec.vocab import (
    PathSample,
    Vocabulary,
    build_vocab,
    load_vocab,
    path_sample_to_line,
    sample_paths,
    save_vocab,
)
from helpers import id_example


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
    assert all(vocab.unigram_draw_word(rng) == 0 for _ in range(100))


def test_unigram_frequencies_match_counts():
    vocab = Vocabulary(
        words=(w("a"), w("b")),
        fields=(ARG,),
        word_counts={w("a"): 3.0, w("b"): 1.0},
        field_counts={ARG: 1.0},
    )
    rng = np.random.default_rng(1)
    n = 10**6
    hits = sum(1 for _ in range(n) if vocab.words[vocab.unigram_draw_word(rng)] == w("a"))
    assert abs(hits / n - 0.75) < 0.002


def test_unigram_chi_square_goodness_of_fit():
    corpus = star_and_chain_corpus()
    vocab = build_vocab(corpus, 1, 1)
    rng = np.random.default_rng(2)
    n = 10**6
    counts = np.zeros(vocab.n_words, dtype=np.int64)
    for _ in range(n):
        counts[vocab.unigram_draw_word(rng)] += 1
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
    counts = np.zeros(vocab.n_fields, dtype=np.int64)
    for _ in range(n):
        counts[vocab.unigram_draw_field(rng)] += 1
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
    # with no placeholder row to fall back on, non-strict lookups raise too
    bare = Vocabulary((w("a"),), (ARG,), {w("a"): 1.0}, {ARG: 1.0})
    with pytest.raises(UnknownWord):
        bare.word_id(w("b"), strict=False)
    with pytest.raises(UnknownField):
        bare.field_id("in", strict=False)


@pytest.mark.parametrize(
    "line, message",
    [
        ("W\tkid\t1.0", "expected lemma/POS"),
        ("W\tkid/Q\t1.0", "bad POS tag"),
        ("W\tplay/V\t2.0", "repeated W entry 'play/V'"),
        ("F\tARG\t2.0", "repeated F entry 'ARG'"),
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


def test_finalized_counts_respect_thresholds():
    corpus = star_and_chain_corpus() * 3
    vocab = build_vocab(corpus, word_min=4, prep_min=6)
    placeholders = {unknown_word(p) for p in ("N", "V", "J", "P", "R", "X")}
    for word in vocab.words:
        if word not in placeholders:
            assert vocab.word_counts[word] >= vocab.word_min
    for f in vocab.fields:
        if f not in (ARG, SUBJ, COMP, UNKNOWN_FIELD):
            assert vocab.field_counts[f] >= vocab.prep_min


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
    vocab.unigram_draw_word(rng)
    assert vocab._word_cum == np.cumsum([vocab.word_counts[x] for x in vocab.words]).tolist()
    assert "_field_cum" not in vars(vocab)
    vocab.unigram_draw_field(rng)
    assert vocab._field_cum == np.cumsum([vocab.field_counts[f] for f in vocab.fields]).tolist()
