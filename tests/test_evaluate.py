import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

import dcsvec.evaluate as evaluate_mod
import worldgen
from dcsvec.errors import ConversionFailure, DcsvecError, LengthMismatch, MalformedLine, UnknownWord
from dcsvec.evaluate import (
    PHRASES,
    CompletionItem,
    PhrasePair,
    _average_ranks,
    _fill_blank,
    RelationInstance,
    completion_score,
    completion_scores,
    cosine,
    eval_completion,
    eval_phrase_dataset,
    export_features,
    load_completion_dataset,
    load_phrase_dataset,
    load_relation_instances,
    phrase_similarity,
    phrase_tree,
    relation_features,
    spearman,
)
from dcsvec.model import compose_query, init_params
from dcsvec.trees import ARG, COMP, SUBJ, DcsTree, Edge, Word, lca, unknown_word
from dcsvec.ud import UdSentence, UdToken, coarse_pos, node_word, sharing_class
from dcsvec.vocab import Vocabulary
from helpers import child_edge_compose, extract_subtree, long_completion_item, random_tree, random_tree_model, reroot


def w(lemma, pos="N"):
    return Word(lemma, pos)


FIELDS = (ARG, SUBJ, COMP, "of")


def vocab_with(*words):
    words = tuple(words) + tuple(unknown_word(p) for p in ("N", "V", "J", "P", "R", "X"))
    return Vocabulary(words, FIELDS, {x: 1.0 for x in words}, {f: 1.0 for f in FIELDS})


def params_for(*words, dim=6, seed=0):
    return init_params(vocab_with(*words), dim, np.random.default_rng(seed))


# --- phrase templates ---------------------------------------------------


def test_phrase_tree_shapes():
    an = phrase_tree("AN", ["black", "hair"])
    assert an.words == (w("black", "J"), w("hair"))
    assert an.edges == (Edge(1, 0, ARG, ARG),)
    vo = phrase_tree("VO", ["fight", "war"])
    assert vo.words[vo.root] == w("fight", "V")
    assert vo.edges == (Edge(0, 1, COMP, ARG),)
    svo = phrase_tree("SVO", ["man", "provide", "money"])
    assert svo.words[svo.root] == w("provide", "V")
    assert {(e.parent_field, e.child_field) for e in svo.edges} == {(SUBJ, ARG), (COMP, ARG)}
    anvan = phrase_tree("ANVAN", ["local", "family", "run", "small", "hotel"])
    assert anvan.n_nodes == 5
    with pytest.raises(ValueError):
        phrase_tree("VO", ["too", "many", "tokens"])
    with pytest.raises(ValueError):
        phrase_tree("XX", ["a", "b"])


def test_phrase_tree_accepts_explicit_pos():
    tree = phrase_tree("VO", ["fight/V", "war/N"])
    assert tree.words == (w("fight", "V"), w("war"))


def phrase_tree_oracle(construction, tokens):
    """The five-branch phrase_tree that the ``PHRASES`` table replaced."""
    shape = {"AN": "JN", "NN": "NN", "VO": "VN", "SVO": "NVN", "ANVAN": "JNVJN"}[construction]
    words = tuple(Word.parse(t) if "/" in t else Word(t, pos) for t, pos in zip(tokens, shape))
    if construction in ("AN", "NN"):
        return DcsTree(words, 1, (Edge(1, 0, ARG, ARG),))
    if construction == "VO":
        return DcsTree(words, 0, (Edge(0, 1, COMP, ARG),))
    if construction == "SVO":
        return DcsTree(words, 1, (Edge(1, 0, SUBJ, ARG), Edge(1, 2, COMP, ARG)))
    return DcsTree(
        words, 2, (Edge(2, 1, SUBJ, ARG), Edge(2, 4, COMP, ARG), Edge(1, 0, ARG, ARG), Edge(4, 3, ARG, ARG))
    )


@pytest.mark.parametrize("construction", ["AN", "NN", "VO", "SVO", "ANVAN"])
def test_phrase_tree_matches_the_five_branch_oracle(construction):
    n = len(PHRASES[construction][0])
    bare = [f"t{i}" for i in range(n)]
    tagged = [f"t{i}/{'NVJPRX'[i]}" for i in range(n)]
    mixed = [t if i % 2 else bare[i] for i, t in enumerate(tagged)]
    for tokens in (bare, tagged, mixed):
        assert phrase_tree(construction, tokens) == phrase_tree_oracle(construction, tokens)


def test_fight_war_query_structure():
    params = params_for(w("fight", "V"), w("war"))
    pair = PhrasePair(phrase_tree("VO", ["fight", "war"]), phrase_tree("VO", ["fight", "war"]), 7.0, "VO")
    q = compose_query(params, pair.left)
    fi = params.vocab.field_index
    expected = (
        params.V[params.vocab.word_index[w("war")]].astype(np.float64)
        @ params.M[fi[ARG]]
        @ params.Minv[fi[COMP]]
        + params.V[params.vocab.word_index[w("fight", "V")]]
    )
    assert np.allclose(q, expected, atol=1e-12)


def test_phrase_similarity_self_is_one_and_symmetric():
    params = params_for(w("fight", "V"), w("war"), w("win", "V"), w("battle"))
    same = PhrasePair(
        phrase_tree("VO", ["fight", "war"]), phrase_tree("VO", ["fight", "war"]), 7.0, "VO"
    )
    assert abs(phrase_similarity(params, same) - 1.0) < 1e-12
    ab = PhrasePair(
        phrase_tree("VO", ["fight", "war"]), phrase_tree("VO", ["win", "battle"]), 5.0, "VO"
    )
    ba = PhrasePair(ab.right, ab.left, 5.0, "VO")
    assert abs(phrase_similarity(params, ab) - phrase_similarity(params, ba)) < 1e-12


def test_phrase_similarity_no_matrix_identity():
    params = params_for(w("fight", "V"), w("war"))
    params.M[:] = np.eye(6)
    params.Minv[:] = np.eye(6)
    pair = PhrasePair(
        phrase_tree("VO", ["fight", "war"]), phrase_tree("VO", ["fight", "war"]), 7.0, "VO"
    )
    q = compose_query(params, pair.left)
    assert np.allclose(q, (params.V[params.vocab.word_index[w("war")]] + params.V[params.vocab.word_index[w("fight", "V")]]).astype(np.float64), atol=1e-10)
    assert abs(phrase_similarity(params, pair) - 1.0) < 1e-12


# --- spearman -----------------------------------------------------------

SPEARMAN_FIXTURES = [
    # hand-derived: ranks, deviations, cov / sqrt(varx * vary)
    ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], 1.0),
    ([1.0, 2.0, 3.0], [6.0, 4.0, 2.0], -1.0),
    ([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0], 0.8),
    ([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 4.5 / math.sqrt(4.5 * 5.0)),
    ([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 1.0, 2.0], 0.0),
    ([3.0, 1.0, 2.0], [30.0, 10.0, 20.0], 1.0),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 5.0, 4.0], 0.9),
    ([1.0, 2.0, 2.0, 4.0], [2.0, 3.0, 3.0, 1.0], -1.5 / 4.5),
    ([5.0, 10.0], [7.0, 3.0], -1.0),
    (
        [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0, 10.0, 9.0],
        78.0 / math.sqrt(82.0 * 82.5),
    ),
]


@pytest.mark.parametrize("xs,ys,expected", SPEARMAN_FIXTURES)
def test_spearman_matches_hand_computed_values(xs, ys, expected):
    assert spearman(xs, ys) == expected


@pytest.mark.parametrize("xs,ys,expected", SPEARMAN_FIXTURES)
def test_spearman_agrees_with_scipy(xs, ys, expected):
    assert abs(spearman(xs, ys) - spearmanr(xs, ys).statistic) < 1e-12


def test_spearman_invariant_under_monotone_transforms():
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = rng.standard_normal(15).tolist()
        ys = rng.standard_normal(15).tolist()
        base = spearman(xs, ys)
        assert spearman([math.exp(x) for x in xs], ys) == base
        assert spearman(xs, [3.0 * y + 7.0 for y in ys]) == base


def test_spearman_length_mismatch():
    with pytest.raises(LengthMismatch):
        spearman([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        spearman([], [])


def test_spearman_zero_variance_is_nan_with_warning():
    with pytest.warns(UserWarning):
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def average_ranks_oracle(values):
    """The sort-and-walk tie ranking that ``np.unique`` replaced."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_sort_and_walk_oracle_bitwise():
    rng = np.random.default_rng(15)
    for case in range(300):
        n = int(rng.integers(1, 40))
        if case % 3 == 0:  # small integers: many ties
            values = rng.integers(-3, 4, n).astype(float).tolist()
        elif case % 3 == 1:  # halves
            values = (rng.integers(-6, 7, n) / 2.0).tolist()
        else:  # signed zeros beside other values
            values = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n).tolist()
        got = _average_ranks(values)
        assert got.tobytes() == average_ranks_oracle(values).tobytes()
    assert _average_ranks([0.0, -0.0, 1.0]).tolist() == [1.5, 1.5, 3.0]


@pytest.mark.parametrize("side", [0, 1])
def test_spearman_with_a_nan_is_nan_with_warning(side):
    pair = [[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]]
    pair[side][2] = float("nan")
    with pytest.warns(UserWarning, match="NaN"):
        assert math.isnan(spearman(*pair))


# --- phrase dataset file ------------------------------------------------


def test_eval_phrase_dataset_perfect_when_gold_is_cosine(tmp_path):
    words = [w(x) for x in ("war", "battle", "peace", "army")]
    params = params_for(w("fight", "V"), *words, seed=3)
    rows = []
    for noun in ("war", "battle", "peace", "army"):
        pair = PhrasePair(
            phrase_tree("VO", ["fight", "war"]),
            phrase_tree("VO", ["fight", noun]),
            0.0,
            "VO",
        )
        rows.append(("VO", "fight war", f"fight {noun}", phrase_similarity(params, pair)))
    path = tmp_path / "phrases.tsv"
    path.write_text(
        "".join(f"{c}\t{a}\t{b}\t{score!r}\n" for c, a, b, score in rows), encoding="utf-8"
    )
    result = eval_phrase_dataset(params, path)
    assert result == {"VO": 1.0}


def test_eval_phrase_dataset_zero_variance_nan(tmp_path):
    params = params_for(w("fight", "V"), w("war"))
    path = tmp_path / "phrases.tsv"
    path.write_text(
        "VO\tfight war\tfight war\t7.0\nVO\tfight war\tfight war\t7.0\n", encoding="utf-8"
    )
    with pytest.warns(UserWarning):
        result = eval_phrase_dataset(params, path)
    assert math.isnan(result["VO"])


def test_phrase_dataset_malformed_row_reports_line(tmp_path):
    path = tmp_path / "phrases.tsv"
    path.write_text("VO\tfight war\tonly-three-columns\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        load_phrase_dataset(path)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("gold", ["nan", "inf", "-inf"])
def test_phrase_dataset_non_finite_gold_reports_line(tmp_path, gold):
    path = tmp_path / "phrases.tsv"
    path.write_text(f"VO\tfight war\tfight war\t7.0\n\nVO\tfight war\tfight war\t{gold}\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match="gold score must be finite") as err:
        load_phrase_dataset(path)
    assert err.value.line_no == 3


# --- relation features --------------------------------------------------


def smoke_cause_delay():
    words = (w("cause", "V"), w("smoke"), w("delay"))
    return DcsTree(words, 0, (Edge(0, 1, SUBJ, ARG), Edge(0, 2, COMP, ARG)))


def test_relation_features_blocks_are_unit_and_ordered():
    params = params_for(w("cause", "V"), w("smoke"), w("delay"), seed=4)
    inst = RelationInstance(smoke_cause_delay(), 1, 2, "Cause-Effect")
    feats = relation_features(params, inst)
    d = params.dim
    assert feats.shape == (4 * d,)
    for b in range(4):
        assert abs(np.linalg.norm(feats[b * d : (b + 1) * d]) - 1.0) < 1e-9
    assert np.linalg.norm(feats) <= 2.0 + 1e-9
    # leaf blocks are the normalized word vectors
    v_smoke = params.V[params.vocab.word_index[w("smoke")]].astype(np.float64)
    assert np.allclose(feats[:d], v_smoke / np.linalg.norm(v_smoke), atol=1e-9)
    # block (c) composes the tree re-rooted at smoke
    q = compose_query(params, reroot(smoke_cause_delay(), 1))
    assert np.allclose(feats[2 * d : 3 * d], q / np.linalg.norm(q), atol=1e-9)


def test_relation_features_identity_maps_match_direct_sums():
    params = params_for(w("cause", "V"), w("smoke"), w("delay"), seed=5)
    params.M[:] = np.eye(params.dim)
    params.Minv[:] = np.eye(params.dim)
    inst = RelationInstance(smoke_cause_delay(), 1, 2, "x")
    feats = relation_features(params, inst)
    d = params.dim
    total = (
        params.V[params.vocab.word_index[w("cause", "V")]]
        + params.V[params.vocab.word_index[w("smoke")]]
        + params.V[params.vocab.word_index[w("delay")]]
    ).astype(np.float64)
    for block in (feats[2 * d : 3 * d], feats[3 * d :]):
        assert np.allclose(block, total / np.linalg.norm(total), atol=1e-9)


def test_relation_features_lca_subtree():
    #  root extra node above the relation pair: LCA trims it away
    words = (w("say", "V"), w("cause", "V"), w("smoke"), w("delay"))
    tree = DcsTree(
        words,
        0,
        (Edge(0, 1, COMP, ARG), Edge(1, 2, SUBJ, ARG), Edge(1, 3, COMP, ARG)),
    )
    params = params_for(*words, seed=6)
    inst = RelationInstance(tree, 2, 3, "x")
    feats = relation_features(params, inst)
    trimmed = DcsTree(
        (words[1], words[2], words[3]), 0, (Edge(0, 1, SUBJ, ARG), Edge(0, 2, COMP, ARG))
    )
    sub_inst = RelationInstance(trimmed, 1, 2, "x")
    assert np.allclose(feats, relation_features(params, sub_inst), atol=1e-12)


def extract_reroot_relation_features(params, inst, strict=False):
    """The four blocks composed on built trees: the subtree at e1 and at
    e2, then the lca subtree re-rooted at e1 and at e2."""
    shared, remap = extract_subtree(inst.tree, lca(inst.tree, inst.e1, inst.e2))
    trees = [
        extract_subtree(inst.tree, inst.e1)[0],
        extract_subtree(inst.tree, inst.e2)[0],
        reroot(shared, remap[inst.e1]),
        reroot(shared, remap[inst.e2]),
    ]
    blocks = [child_edge_compose(params, t, strict) for t in trees]
    return np.concatenate([b / float(np.linalg.norm(b)) for b in blocks])


def test_relation_features_match_the_extract_reroot_oracle_bitwise():
    rng = np.random.default_rng(23)
    params = random_tree_model(rng, dim=5)
    cases = set()
    for _ in range(30):
        tree = random_tree(rng, int(rng.integers(2, 15)), n_words=6)
        for e1 in range(tree.n_nodes):
            for e2 in range(tree.n_nodes):
                if e1 == e2:
                    continue
                top = lca(tree, e1, e2)
                cases.add("root" if top == tree.root else "ancestor" if top in (e1, e2) else "sibling")
                inst = RelationInstance(tree, e1, e2, "x")
                got = relation_features(params, inst)
                assert got.tobytes() == extract_reroot_relation_features(params, inst).tobytes()
    assert cases == {"root", "ancestor", "sibling"}


def test_export_features_strict_raises_on_an_unknown_word():
    params = params_for(w("cause", "V"), w("smoke"), seed=9)
    inst = RelationInstance(smoke_cause_delay(), 1, 2, "x")
    assert export_features(params, [inst], io.StringIO()) == 1  # delay/N takes the placeholder
    with pytest.raises(UnknownWord, match="delay/N"):
        export_features(params, [inst], io.StringIO(), strict=True)


def test_export_features_format_and_roundtrip(tmp_path):
    params = params_for(w("cause", "V"), w("smoke"), w("delay"), dim=2, seed=7)
    inst = RelationInstance(smoke_cause_delay(), 1, 2, "Cause-Effect(e1,e2)")
    sink = io.StringIO()
    export_features(params, [inst], sink)
    line = sink.getvalue().strip()
    label, *pairs = line.split(" ")
    assert label == "Cause-Effect(e1,e2)"
    assert len(pairs) == 8  # 4 blocks x dim 2, none exactly zero
    indices = [int(p.split(":")[0]) for p in pairs]
    assert indices == sorted(indices) and indices[0] >= 1
    values = np.zeros(8)
    for p in pairs:
        i, v = p.split(":")
        values[int(i) - 1] = float(v)
    assert np.allclose(values, relation_features(params, inst), atol=1e-6)


# --- completion ---------------------------------------------------------


def completion_item(choices=("bread/N", "car/N", "dog/N", "piano/N", "barn/N"), answer=0):
    tokens = (
        UdToken(1, "the", "the", "DET", 2, "det"),
        UdToken(2, "farmer", "farmer", "NOUN", 3, "nsubj"),
        UdToken(3, "eats", "eat", "VERB", 0, "root"),
        UdToken(4, "the", "the", "DET", 5, "det"),
        UdToken(5, "____", "____", "NOUN", 3, "obj"),
    )
    return CompletionItem(UdSentence(tokens), 5, tuple(Word.parse(c) for c in choices), answer)


def completion_vocab_params(seed=8):
    words = [w(x) for x in ("farmer", "bread", "car", "dog", "piano", "barn")] + [w("eat", "V")]
    return params_for(*words, seed=seed)


def test_completion_identical_vectors_tie():
    params = completion_vocab_params()
    item = completion_item()
    params.U[params.vocab.word_index[w("bread")]] = params.U[params.vocab.word_index[w("car")]]
    s1 = completion_score(params, item, w("bread"))
    s2 = completion_score(params, item, w("car"))
    assert s1 == s2


def test_completion_unknown_candidate_is_finite():
    params = completion_vocab_params()
    item = completion_item()
    score = completion_score(params, item, unknown_word("N"))
    assert math.isfinite(score)


def test_completion_score_order_invariance():
    # weighted mean over paths does not depend on enumeration order:
    # recompute from a reversed-path enumeration by hand
    params = completion_vocab_params(seed=9)
    item = completion_item()
    from dcsvec.ud import convert_sentence
    from dcsvec.model import path_score
    from dcsvec.trees import enumerate_paths

    conv = convert_sentence(_fill_blank(item, w("bread")))
    node = conv.node_of_token(5)
    paths = [p for p in enumerate_paths(conv.tree) if p.end == node]
    total = sum(
        p.weight * -_softplus(-path_score(params, conv.tree.words[p.start], p.hops, conv.tree.words[p.end], strict=False))
        for p in reversed(paths)
    )
    weight = sum(p.weight for p in paths)
    assert abs(completion_score(params, item, w("bread")) - total / weight) < 1e-12


def fill_blank_oracle(item, candidate):
    """The field-by-field token copy that ``dataclasses.replace`` replaced."""
    upos = {"N": "NOUN", "V": "VERB", "J": "ADJ", "P": "PRON", "R": "ADV", "X": "X"}[candidate.pos]
    return UdSentence(tuple(
        UdToken(t.id, candidate.lemma, candidate.lemma, upos, t.head, t.deprel) if t.id == item.blank_id else t
        for t in item.sentence.tokens
    ))


def test_fill_blank_matches_the_field_by_field_copy(tmp_path):
    path = tmp_path / "items.jsonl"
    worldgen.write_completion_items(path, 40, seed=4)
    items = load_completion_dataset(path)
    for item in items + [completion_item()]:
        for candidate in item.choices + (unknown_word("V"), w("quick", "J")):
            assert _fill_blank(item, candidate) == fill_blank_oracle(item, candidate)


def _softplus(x):
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def test_completion_oracle_params_score_perfectly():
    params = completion_vocab_params(seed=10)
    params.M[:] = np.eye(params.dim)
    params.Minv[:] = np.eye(params.dim)
    # craft alignment: every query path points at bread, away from the rest
    params.V[:] = 1.0
    params.U[:] = -1.0
    params.U[params.vocab.word_index[w("bread")]] = 1.0
    items = [completion_item(answer=0)]
    result = eval_completion(params, items)
    assert result.accuracy == 1.0
    assert result.skipped == 0


def test_completion_all_identical_choices_tie_is_incorrect():
    params = completion_vocab_params(seed=11)
    items = [completion_item(choices=("bread/N",) * 5, answer=2)]
    with pytest.warns(UserWarning):
        result = eval_completion(params, items)
    assert result.accuracy == 0.0


def test_completion_unconvertible_item_skipped():
    tokens = (
        UdToken(1, "____", "____", "NOUN", 0, "root"),
        UdToken(2, "!", "!", "PUNCT", 1, "punct"),
    )
    item = CompletionItem(
        UdSentence(tokens), 1, tuple(Word.parse(c) for c in ("a/N", "b/N", "c/N", "d/N", "e/N")), 0
    )
    params = completion_vocab_params(seed=12)
    result = eval_completion(params, [item])
    assert result.skipped == 1 and result.scored == 0
    with pytest.raises(ConversionFailure):
        completion_score(params, item, w("a"))


def test_completion_jsonl_roundtrip(tmp_path):
    item = completion_item()
    path = tmp_path / "items.jsonl"
    rows = []
    for t in item.sentence.tokens:
        rows.append(
            {"id": t.id, "form": t.form, "lemma": t.lemma, "upos": t.upos, "head": t.head, "deprel": t.deprel}
        )
    path.write_text(
        json.dumps(
            {"tokens": rows, "blank": 5, "choices": [c.render() for c in item.choices], "answer": 0}
        )
        + "\n",
        encoding="utf-8",
    )
    (loaded,) = load_completion_dataset(path)
    assert loaded == item
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tokens": []}\n', encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_completion_dataset(bad)


# a value that ``int()`` would truncate or parse is not a JSON integer
NOT_INTEGERS = (2.5, 2.0, True, "2")


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("key", ["blank", "answer", "id", "head", "e1", "e2"])
def test_json_integer_fields_reject_non_integers(tmp_path, key, value):
    if key in ("e1", "e2"):
        rows, load = worldgen.relation_instances(3, seed=8), load_relation_instances
    else:
        rows, load = worldgen.completion_items(3, seed=4), load_completion_dataset
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert len(load(path)) == 3
    target = rows[1]["tokens"][1] if key in ("id", "head") else rows[1]
    target[key] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(MalformedLine, match=f"{key} must be an integer, got {json.dumps(value)}") as err:
        load(path)
    assert err.value.line_no == 2


def test_cosine_zero_raises():
    from dcsvec.errors import ZeroNorm

    with pytest.raises(ZeroNorm):
        cosine(np.zeros(3), np.ones(3))


def enumerate_all_completion_score(params, item, candidate, weighted=True, strict=False):
    """Slow-path oracle: enumerate all n(n-1) paths of the filled tree and
    keep those that end at the blank."""
    from dcsvec.model import path_score
    from dcsvec.trees import enumerate_paths
    from dcsvec.ud import convert_sentence

    conv = convert_sentence(fill_blank_oracle(item, candidate))
    if conv is None:
        raise ConversionFailure("sentence does not convert with this candidate")
    node = conv.node_of_token(item.blank_id)
    if node is None:
        raise ConversionFailure("blank token was absorbed during conversion")
    tree = conv.tree
    total = weight_sum = 0.0
    for path in enumerate_paths(tree):
        if path.end != node:
            continue
        s = path_score(params, tree.words[path.start], path.hops, tree.words[path.end], strict=strict)
        logp = -_softplus(-s)
        if weighted:
            total += path.weight * logp
            weight_sum += path.weight
        else:
            total += logp
    return total / weight_sum if weighted else total


def test_completion_score_matches_all_pairs_enumeration_on_long_sentences():
    rng = np.random.default_rng(12)
    params = completion_vocab_params(seed=12)
    params.U[:] = params.U * 3  # spread the scores away from 0
    sizes = set()
    for _ in range(12):
        item = long_completion_item(rng, int(rng.integers(8, 20)))
        for candidate in item.choices:
            for weighted in (True, False):
                got = completion_score(params, item, candidate, weighted=weighted)
                want = enumerate_all_completion_score(params, item, candidate, weighted)
                assert got == want
        sizes.add(len(item.sentence.tokens))
    assert max(sizes) >= 20


# words of the crafted items' sentences and choices; "who/P", "zorblax/N"
# and the field "with" are left out of the vocabulary
CRAFTED_WORDS = (
    w("farmer"), w("bread"), w("dog"), w("barn"), w("fork"), w("ice_cream"), w("eat", "V"), w("big", "J"),
    w("he", "P"), w("that", "P"), w("what", "R"), w("soon", "R"),
)
CRAFTED_POOL = (
    "dog/N", "ice cream/N", "zorblax/N", "eat/V", "big/J", "he/P", "that/P", "That/P", "who/P",
    "what/R", "soon/R", "thing/X",
)


def crafted_sentences():
    """Blank (token 3, 1 and 3) as the subject of a relative clause, as a
    subject beside an "of" phrase, and as an object beside a "with" phrase."""
    tok = UdToken
    return (
        (
            tok(1, "the", "the", "DET", 2, "det"), tok(2, "farmer", "farmer", "NOUN", 0, "root"),
            tok(3, "____", "____", "PRON", 4, "nsubj"), tok(4, "eats", "eat", "VERB", 2, "acl:relcl"),
            tok(5, "bread", "bread", "NOUN", 4, "obj"),
        ),
        (
            tok(1, "____", "____", "NOUN", 2, "nsubj"), tok(2, "eats", "eat", "VERB", 0, "root"),
            tok(3, "bread", "bread", "NOUN", 2, "obj"), tok(4, "of", "of", "ADP", 5, "case"),
            tok(5, "barn", "barn", "NOUN", 3, "nmod"),
        ),
        (
            tok(1, "farmer", "farmer", "NOUN", 2, "nsubj"), tok(2, "eats", "eat", "VERB", 0, "root"),
            tok(3, "____", "____", "NOUN", 2, "obj"), tok(4, "with", "with", "ADP", 5, "case"),
            tok(5, "fork", "fork", "NOUN", 2, "obl"),
        ),
    )


def crafted_items(n_per_sentence=40, seed=3):
    """Items whose five choices mix N/V/J/P/R/X, relative pronouns, words
    outside the vocabulary and a lemma that converts with a new spelling."""
    rng = np.random.default_rng(seed)
    fixed = (("what/R", "soon/R", "he/P", "dog/N", "ice cream/N"), ("dog/N", "zorblax/N", "big/J", "he/P", "eat/V"))
    items = []
    for tokens, blank in zip(crafted_sentences(), (3, 1, 3)):
        draws = [tuple(CRAFTED_POOL[i] for i in rng.choice(len(CRAFTED_POOL), 5)) for _ in range(n_per_sentence)]
        for choices in fixed + tuple(draws):
            items.append(CompletionItem(UdSentence(tokens), blank, tuple(Word.parse(c) for c in choices), 0))
    return items


def scores_or_error(score, item, **kw):
    """The item's five scores in choice order, or the type and message of
    the first error; ``score`` scores one candidate or the whole list."""
    try:
        return score(item, **kw)
    except DcsvecError as exc:
        return type(exc).__name__, str(exc)


def one_at_a_time(params, item, weighted, strict):
    return [enumerate_all_completion_score(params, item, c, weighted, strict) for c in item.choices]


def test_completion_scores_match_one_candidate_at_a_time(tmp_path):
    path = tmp_path / "items.jsonl"
    worldgen.write_completion_items(path, 30, seed=4)
    rng = np.random.default_rng(13)
    items = load_completion_dataset(path) + [long_completion_item(rng, 12) for _ in range(6)]
    known = set(CRAFTED_WORDS) | {w(x) for x in ("car", "piano")}
    for item in items:  # worldgen's and the long items' words
        known |= {node_word(t) for t in item.sentence.tokens if coarse_pos(t.upos) != "X"} | set(item.choices)
    params = params_for(*sorted(known), seed=13)
    params.U[:] = params.U * 3  # spread the scores away from 0
    outcomes = set()
    for item in items + crafted_items():
        for weighted in (True, False):
            for strict in (False, True):
                got = scores_or_error(lambda it: completion_scores(params, it, it.choices, weighted, strict), item)
                want = scores_or_error(lambda it: one_at_a_time(params, it, weighted, strict), item)
                assert got == want
                outcomes.add(want[0] if isinstance(want[0], str) else "scored")
    assert outcomes == {"scored", "ConversionFailure", "UnknownWord", "UnknownField", "MissingPlaceholder"}


def test_eval_completion_converts_once_per_sharing_class(tmp_path, monkeypatch):
    calls = []
    convert = evaluate_mod.convert_sentence
    monkeypatch.setattr(evaluate_mod, "convert_sentence", lambda sentence: calls.append(sentence) or convert(sentence))
    params = completion_vocab_params()
    assert eval_completion(params, [completion_item()]).scored == 1
    assert len(calls) == 1  # five nouns, one conversion
    path = tmp_path / "items.jsonl"
    worldgen.write_completion_items(path, 30, seed=4)
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # worldgen's words share placeholders and tie
        assert eval_completion(params, load_completion_dataset(path)).scored == 30
    assert len(calls) == 30
    for item in crafted_items():
        at = [t.id for t in item.sentence.tokens].index(item.blank_id)
        classes = {sharing_class(_fill_blank(item, c).tokens[at]) for c in item.choices}
        calls.clear()
        try:
            eval_completion(params, [item], strict=True)
        except DcsvecError:
            pass
        assert 1 <= len(calls) <= len(classes)


def nan_item(choices, answer):
    """Scores with bread highest, car NaN and the other three tied below."""
    params = completion_vocab_params(seed=10)
    params.M[:] = np.eye(params.dim)
    params.Minv[:] = np.eye(params.dim)
    params.V[:] = 1.0
    params.U[:] = -1.0
    params.U[params.vocab.word_index[w("bread")]] = 1.0
    params.U[params.vocab.word_index[w("car")]] = np.nan
    return params, completion_item(choices, choices.index(answer))


@pytest.mark.parametrize("choices", [
    ("bread/N", "car/N", "dog/N", "piano/N", "barn/N"),
    ("car/N", "bread/N", "dog/N", "piano/N", "barn/N"),
], ids=["nan-second", "nan-first"])
def test_completion_nan_score_ranks_last_in_either_order(choices):
    params, item = nan_item(choices, "bread/N")
    scores = completion_scores(params, item, item.choices)
    assert math.isnan(scores[choices.index("car/N")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no number ties the best
        assert eval_completion(params, [item]).correct == 1
        params, item = nan_item(choices, "car/N")
        assert eval_completion(params, [item]).correct == 0  # a NaN answer never wins
        params.U[:] = np.nan
        assert eval_completion(params, [item]).correct == 0  # nothing to rank, nothing tied
    params.U[:] = -1.0
    params.U[params.vocab.word_index[w("car")]] = np.nan
    with pytest.warns(UserWarning, match="tied"):
        assert eval_completion(params, [item]).correct == 0  # three numbers tie for best
