from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import worldgen

from dcsvec.errors import CyclicTree, MalformedLine
from dcsvec.trees import ARG, COMP, SUBJ, UNKNOWN_FIELD, CORE_FIELDS, Word
from dcsvec.ud import UdSentence, UdToken, convert_sentence, parse_conllu, parse_conllu_file, sharing_class, ud_to_dcs
from helpers import long_completion_item

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


# "the farmer ____ eats bread": the blank is the subject of a relative clause
RELCL = sent(
    (1, "the", "the", "DET", 2, "det"),
    (2, "farmer", "farmer", "NOUN", 0, "root"),
    (3, "____", "____", "PRON", 4, "nsubj"),
    (4, "eats", "eat", "VERB", 2, "acl:relcl"),
    (5, "bread", "bread", "NOUN", 4, "obj"),
)

# candidate fillers by UPOS: relative pronouns, other words, a lemma that
# converts with a new spelling, words outside any vocabulary
FILLERS = {
    "NOUN": ("dog", "ice cream", "zorblax", "that"),
    "VERB": ("eat", "run"),
    "ADJ": ("big", "red"),
    "PRON": ("he", "she", "that", "That", "who", "what"),
    "ADV": ("soon", "quickly", "what", "which"),
    "X": ("thing", "that"),
}


def with_token(sentence, tok):
    return UdSentence(tuple(tok if t.id == tok.id else t for t in sentence.tokens))


def test_lemmas_of_one_sharing_class_convert_alike():
    rng = np.random.default_rng(5)
    items = [(s["tokens"], s["blank"]) for s in worldgen.completion_items(20, seed=4)]
    blanks = [(sent(*[tuple(t[k] for k in ("id", "form", "lemma", "upos", "head", "deprel")) for t in tokens]), blank)
              for tokens, blank in items]
    blanks += [(item.sentence, item.blank_id) for item in (long_completion_item(rng, 12) for _ in range(6))]
    blanks.append((RELCL, 3))
    compared = set()
    for sentence, blank_id in blanks:
        (blank,) = [t for t in sentence.tokens if t.id == blank_id]
        for upos, lemmas in FILLERS.items():
            for a, b in combinations([replace(blank, form=x, lemma=x, upos=upos) for x in lemmas], 2):
                if sharing_class(a) != sharing_class(b):
                    continue
                ca, cb = convert_sentence(with_token(sentence, a)), convert_sentence(with_token(sentence, b))
                assert (ca is None) == (cb is None)
                if ca is None:
                    continue
                assert (ca.tree.root, ca.tree.edges, ca.token_ids) == (cb.tree.root, cb.tree.edges, cb.token_ids)
                differ = [i for i, (x, y) in enumerate(zip(ca.tree.words, cb.tree.words)) if x != y]
                node = ca.node_of_token(blank_id)  # None when the blank is absorbed
                assert differ == ([node] if node is not None and a.lemma != b.lemma else [])
                compared.add(sharing_class(a))
    assert compared == {(upos, False, None) for upos in FILLERS} | {("PRON", True, None), ("ADV", True, None)}


def test_relative_pronoun_flag_is_part_of_the_sharing_class():
    blank = RELCL.tokens[2]
    that, he = replace(blank, form="that", lemma="that"), replace(blank, form="he", lemma="he")
    assert sharing_class(that) != sharing_class(he)
    with_that, with_he = convert_sentence(with_token(RELCL, that)), convert_sentence(with_token(RELCL, he))
    assert with_that.token_ids == (2, 4, 5)  # "that" stands for the farmer and vanishes
    assert with_he.token_ids == (2, 3, 4, 5)


def test_adposition_lemma_is_part_of_the_sharing_class():
    sentence = sent(
        (1, "kids", "kid", "NOUN", 2, "nsubj"),
        (2, "play", "play", "VERB", 0, "root"),
        (3, "on", "on", "ADP", 4, "case"),
        (4, "grass", "grass", "NOUN", 2, "obl"),
    )
    on = sentence.tokens[2]
    under = replace(on, form="under", lemma="under")
    assert sharing_class(on) != sharing_class(under)
    assert convert_sentence(sentence).tree.edges != convert_sentence(with_token(sentence, under)).tree.edges
