from pathlib import Path

import pytest

from dcsvec.errors import CyclicTree, MalformedLine
from dcsvec.trees import ARG, COMP, SUBJ, UNKNOWN_FIELD, CORE_FIELDS, Word
from dcsvec.ud import UdToken, convert_sentence, parse_conllu, parse_conllu_file, ud_to_dcs

DATA = Path(__file__).parent / "data"

# hand-counted token totals for mini.conllu (ranges and empty nodes excluded)
MINI_TOKEN_COUNTS = [2, 6, 5, 6, 4, 4, 5, 3, 2, 4]


def conllu(*rows):
    out = []
    for row in rows:
        tok_id, form, lemma, upos, head, deprel = row
        out.append(f"{tok_id}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(out) + "\n"


def edges_of(tree):
    return {
        (
            tree.words[e.parent].render(),
            e.parent_field,
            e.child_field,
            tree.words[e.child].render(),
        )
        for e in tree.edges
    }


def test_minimal_two_token_sentence():
    text = conllu((1, "kids", "kid", "NOUN", 2, "nsubj"), (2, "play", "play", "VERB", 0, "root"))
    sents = list(parse_conllu(text))
    assert len(sents) == 1
    assert len(sents[0].tokens) == 2
    assert sents[0].tokens[0] == UdToken(1, "kids", "kid", "NOUN", 2, "nsubj")


def test_comments_only_file_yields_nothing():
    assert list(parse_conllu("# just a comment\n# another\n")) == []


def test_fixture_sentence_and_token_counts():
    with open(DATA / "mini.conllu", encoding="utf-8") as fh:
        sents = list(parse_conllu(fh))
    assert len(sents) == len(MINI_TOKEN_COUNTS)
    assert [len(s.tokens) for s in sents] == MINI_TOKEN_COUNTS


def test_multiword_ranges_and_empty_nodes_skipped():
    text = (
        "1\tKids\tkid\tNOUN\t_\t_\t4\tnsubj\t_\t_\n"
        "2-3\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tdo\tdo\tAUX\t_\t_\t4\taux\t_\t_\n"
        "3\tnot\tnot\tPART\t_\t_\t4\tadvmod\t_\t_\n"
        "4\tplay\tplay\tVERB\t_\t_\t0\troot\t_\t_\n"
        "4.1\t_\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    (sent,) = parse_conllu(text)
    assert [t.id for t in sent.tokens] == [1, 2, 3, 4]


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_string_source_breaks_lines_where_a_file_does(tmp_path, sep):
    # str.splitlines() would also break inside these forms
    text = conllu((1, f"kids{sep}x", "kid", "NOUN", 2, "nsubj"), (2, "play", "play", "VERB", 0, "root"))
    path = tmp_path / "corpus.conllu"
    path.write_text(text, encoding="utf-8")
    from_file = list(parse_conllu_file(path))
    assert from_file[0].tokens[0].form == f"kids{sep}x"
    assert list(parse_conllu(text)) == from_file
    assert list(parse_conllu(text.replace("\n", "\r\n"))) == from_file
    assert list(parse_conllu(text.replace("\n", "\r"))) == from_file


def test_malformed_column_count_reports_line():
    with pytest.raises(MalformedLine) as err:
        list(parse_conllu("# ok\n1\tbad\tline\n"))
    assert "line 2" in str(err.value)


def test_malformed_head_reports_line():
    with pytest.raises(MalformedLine) as err:
        list(parse_conllu("1\ta\ta\tNOUN\t_\t_\tx\tdep\t_\t_\n"))
    assert "line 1" in str(err.value)


def test_cyclic_heads_rejected():
    text = conllu((1, "a", "a", "NOUN", 2, "dep"), (2, "b", "b", "NOUN", 1, "dep"))
    with pytest.raises(CyclicTree):
        list(parse_conllu(text))
    with pytest.raises(CyclicTree):
        list(parse_conllu(conllu((1, "a", "a", "NOUN", 1, "dep"))))
    with pytest.raises(CyclicTree):  # head outside the sentence
        list(parse_conllu(conllu((1, "a", "a", "NOUN", 9, "dep"))))
    with pytest.raises(CyclicTree, match="repeated token id"):
        list(parse_conllu(conllu((1, "a", "a", "NOUN", 0, "root"), (1, "b", "b", "NOUN", 1, "dep"))))


def sent(*rows):
    return next(parse_conllu(conllu(*rows)))


def test_kids_play_edge():
    tree = ud_to_dcs(sent((1, "kids", "kid", "NOUN", 2, "nsubj"), (2, "play", "play", "VERB", 0, "root")))
    assert tree.words[tree.root] == Word("play", "V")
    assert edges_of(tree) == {("play/V", SUBJ, ARG, "kid/N")}


def test_prepositional_phrase_becomes_field():
    tree = ud_to_dcs(
        sent(
            (1, "Kids", "kid", "NOUN", 2, "nsubj"),
            (2, "play", "play", "VERB", 0, "root"),
            (3, "on", "on", "ADP", 5, "case"),
            (4, "the", "the", "DET", 5, "det"),
            (5, "grass", "grass", "NOUN", 2, "obl"),
        )
    )
    assert tree.n_nodes == 3  # "on" and "the" absorbed
    assert ("play/V", "on", ARG, "grass/N") in edges_of(tree)


def test_relative_clause():
    tree = ud_to_dcs(
        sent(
            (1, "the", "the", "DET", 2, "det"),
            (2, "movie", "movie", "NOUN", 0, "root"),
            (3, "that", "that", "PRON", 5, "obj"),
            (4, "he", "he", "PRON", 5, "nsubj"),
            (5, "watched", "watch", "VERB", 2, "acl:relcl"),
        )
    )
    assert edges_of(tree) == {
        ("movie/N", ARG, COMP, "watch/V"),
        ("watch/V", SUBJ, ARG, "he/P"),
    }


def test_subject_relative_clause():
    tree = ud_to_dcs(
        sent(
            (1, "movie", "movie", "NOUN", 0, "root"),
            (2, "that", "that", "PRON", 3, "nsubj"),
            (3, "scared", "scare", "VERB", 1, "acl:relcl"),
            (4, "him", "he", "PRON", 3, "obj"),
        )
    )
    assert ("movie/N", ARG, SUBJ, "scare/V") in edges_of(tree)


def test_passive_and_agent():
    tree = ud_to_dcs(
        sent(
            (1, "The", "the", "DET", 2, "det"),
            (2, "drug", "drug", "NOUN", 4, "nsubj:pass"),
            (3, "was", "be", "AUX", 4, "aux:pass"),
            (4, "banned", "ban", "VERB", 0, "root"),
            (5, "by", "by", "ADP", 6, "case"),
            (6, "Canada", "Canada", "PROPN", 4, "obl:agent"),
        )
    )
    assert edges_of(tree) == {
        ("ban/V", COMP, ARG, "drug/N"),
        ("ban/V", "by", ARG, "Canada/N"),
    }


def test_conjunct_duplicates_parent_fields():
    tree = ud_to_dcs(
        sent(
            (1, "John", "John", "PROPN", 4, "nsubj"),
            (2, "and", "and", "CCONJ", 3, "cc"),
            (3, "Mary", "Mary", "PROPN", 1, "conj"),
            (4, "smile", "smile", "VERB", 0, "root"),
        )
    )
    assert edges_of(tree) == {
        ("smile/V", SUBJ, ARG, "John/N"),
        ("smile/V", SUBJ, ARG, "Mary/N"),
    }


def test_copula_drops_and_links_subject():
    tree = ud_to_dcs(
        sent(
            (1, "The", "the", "DET", 2, "det"),
            (2, "dog", "dog", "NOUN", 4, "nsubj"),
            (3, "is", "be", "AUX", 4, "cop"),
            (4, "happy", "happy", "ADJ", 0, "root"),
        )
    )
    assert edges_of(tree) == {("happy/J", SUBJ, ARG, "dog/N")}


def test_iobj_amod_nummod():
    tree = ud_to_dcs(
        sent(
            (1, "She", "she", "PRON", 2, "nsubj"),
            (2, "gave", "give", "VERB", 0, "root"),
            (3, "him", "he", "PRON", 2, "iobj"),
            (4, "two", "two", "NUM", 6, "nummod"),
            (5, "fresh", "fresh", "ADJ", 6, "amod"),
            (6, "loaves", "loaf", "NOUN", 2, "obj"),
        )
    )
    assert edges_of(tree) == {
        ("give/V", SUBJ, ARG, "she/P"),
        ("give/V", "to", ARG, "he/P"),
        ("give/V", COMP, ARG, "loaf/N"),
        ("loaf/N", ARG, ARG, "two/N"),
        ("loaf/N", ARG, ARG, "fresh/J"),
    }


def test_skip_with_fewer_than_two_content_words():
    assert ud_to_dcs(sent((1, "Hello", "hello", "INTJ", 0, "root"))) is None
    assert ud_to_dcs(sent((1, "dog", "dog", "NOUN", 0, "root"))) is None


def test_conversion_is_deterministic_and_bounded():
    with open(DATA / "mini.conllu", encoding="utf-8") as fh:
        sents = list(parse_conllu(fh))
    for s in sents:
        first = convert_sentence(s)
        second = convert_sentence(s)
        if first is None:
            assert second is None
            continue
        assert first.tree == second.tree
        assert first.tree.n_nodes <= len(s.tokens)
        allowed = set(CORE_FIELDS) | {UNKNOWN_FIELD}
        for e in first.tree.edges:
            for f in (e.parent_field, e.child_field):
                assert f in allowed or f.islower()


def test_alignment_tracks_token_ids():
    conv = convert_sentence(
        sent(
            (1, "Kids", "kid", "NOUN", 2, "nsubj"),
            (2, "play", "play", "VERB", 0, "root"),
            (3, "on", "on", "ADP", 5, "case"),
            (4, "the", "the", "DET", 5, "det"),
            (5, "grass", "grass", "NOUN", 2, "obl"),
        )
    )
    assert conv.token_ids == (1, 2, 5)
    assert conv.node_of_token(5) == 2
    assert conv.node_of_token(3) is None


def test_lemma_whitespace_sanitized():
    tree = ud_to_dcs(
        sent(
            (1, "New York", "new york", "PROPN", 2, "nsubj"),
            (2, "grows", "grow", "VERB", 0, "root"),
        )
    )
    assert tree.words[0].lemma == "new_york"
