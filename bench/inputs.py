"""Seeded input generators for the workloads that worldgen does not cover.

``long_sentences`` writes CoNLL-U sentences of 15-32 content words built
from chained prepositional phrases, relative clauses, conjunctions and
adjectives, so conversion exercises more than nsubj/obj and the
O(n^2 * depth) path enumerations see long trees.  ``query_vocab`` and
``QueryStream`` describe the retrieval workload: a large synthetic
vocabulary over every POS tag and an endless, deterministic stream of
requests drawn from it.
"""

from __future__ import annotations

import numpy as np

PREPS = ("of", "in", "on", "at", "with", "from", "near", "under", "over", "by", "for", "about")
CONTENT_UPOS = ("NOUN", "VERB", "ADJ")

_LEX_SIZES = {"NOUN": 300, "VERB": 80, "ADJ": 60}


def _zipf_pick(rng: np.random.Generator, n: int) -> int:
    # rank-frequency draw: a few lemmas are common, most are rare
    return min(int(rng.zipf(1.3)) - 1, n - 1)


def _lemma(rng: np.random.Generator, upos: str) -> str:
    return f"{upos[0].lower()}{_zipf_pick(rng, _LEX_SIZES[upos]):03d}"


class _Sentence:
    """Tokens in creation order; heads are indices into the same list."""

    def __init__(self):
        self.rows: list[list] = []  # [lemma, upos, head index or None, deprel]

    def add(self, lemma: str, upos: str, head: int | None, deprel: str) -> int:
        self.rows.append([lemma, upos, head, deprel])
        return len(self.rows) - 1

    def noun_phrase(self, rng, head: int, deprel: str) -> int:
        noun = self.add(_lemma(rng, "NOUN"), "NOUN", head, deprel)
        self.add("the", "DET", noun, "det")
        return noun

    def content_count(self) -> int:
        return sum(1 for r in self.rows if r[1] in CONTENT_UPOS)

    def to_conllu(self) -> str:
        lines = []
        for i, (lemma, upos, head, deprel) in enumerate(self.rows):
            head_id = 0 if head is None else head + 1
            lines.append(f"{i + 1}\t{lemma}\t{lemma}\t{upos}\t_\t_\t{head_id}\t{deprel}\t_\t_")
        return "\n".join(lines) + "\n\n"


def _long_sentence(rng: np.random.Generator, target: int) -> _Sentence:
    s = _Sentence()
    verb = s.add(_lemma(rng, "VERB"), "VERB", None, "root")
    nouns = [s.noun_phrase(rng, verb, "nsubj"), s.noun_phrase(rng, verb, "obj")]
    verbs = [verb]
    while s.content_count() < target:
        roll = rng.random()
        anchor = nouns[int(rng.integers(len(nouns)))]
        if roll < 0.30:
            s.add(_lemma(rng, "ADJ"), "ADJ", anchor, "amod")
        elif roll < 0.60:
            # prepositional phrase on a noun (nmod) or a verb (obl); PPs on
            # PP nouns make the chains
            on_verb = rng.random() < 0.3
            head = verbs[int(rng.integers(len(verbs)))] if on_verb else anchor
            pp = s.noun_phrase(rng, head, "obl" if on_verb else "nmod")
            s.add(PREPS[_zipf_pick(rng, len(PREPS))], "ADP", pp, "case")
            nouns.append(pp)
        elif roll < 0.80:
            # "noun that VERBs the noun": the relativizer is absorbed
            rel = s.add(_lemma(rng, "VERB"), "VERB", anchor, "acl:relcl")
            s.add("that", "PRON", rel, "nsubj")
            nouns.append(s.noun_phrase(rng, rel, "obj"))
            verbs.append(rel)
        elif roll < 0.95:
            conj = s.noun_phrase(rng, anchor, "conj")
            s.add("and", "CCONJ", conj, "cc")
            nouns.append(conj)
        else:
            conj = s.add(_lemma(rng, "VERB"), "VERB", verb, "conj")
            s.add("and", "CCONJ", conj, "cc")
            nouns.append(s.noun_phrase(rng, conj, "obj"))
            verbs.append(conj)
    s.add(".", "PUNCT", verb, "punct")
    return s


def long_sentences(seed: int, n_sentences: int, lo: int = 15, hi: int = 32):
    """CoNLL-U text plus, per sentence, its content-word count and the
    token ids of its nouns (blank candidates for completion items).

    Target lengths are spread evenly over [lo, hi] and shuffled, so the
    work per corpus hardly depends on the seed."""
    rng = np.random.default_rng([seed, 1])
    targets = rng.permutation(np.linspace(lo, hi, n_sentences).round().astype(int))
    parts, content, noun_ids = [], [], []
    for target in targets:
        s = _long_sentence(rng, int(target))
        parts.append(s.to_conllu())
        content.append(s.content_count())
        noun_ids.append([i + 1 for i, r in enumerate(s.rows) if r[1] == "NOUN"])
    return "".join(parts), content, noun_ids


def completion_blanks(seed: int, content, noun_ids, n_items: int):
    """(sentence index, blank token id, choice lemmas, answer index) per
    item.  Items sit on the sentences at evenly spaced length ranks, so
    their cost hardly depends on the seed; the blank is a noun inside the
    sentence and the five choice lemmas are distinct."""
    rng = np.random.default_rng([seed, 2])
    by_length = sorted(range(len(content)), key=lambda i: (content[i], i))
    ranks = np.linspace(0, len(content) - 1, n_items + 2)[1:-1].round().astype(int)
    out = []
    for rank in ranks:
        sent = by_length[rank]
        blank = noun_ids[sent][int(rng.integers(len(noun_ids[sent])))]
        answer = int(rng.integers(5))
        picks = rng.choice(_LEX_SIZES["NOUN"], size=5, replace=False)
        out.append((sent, blank, [f"n{int(p):03d}" for p in picks], answer))
    return out


# ---------------------------------------------------------------- query ---

QUERY_POS_SHARE = {"N": 0.45, "V": 0.20, "J": 0.15, "R": 0.08, "P": 0.02, "X": 0.10}
QUERY_FIELDS = ("ARG", "SUBJ", "COMP") + PREPS + ("*UNKNOWN*",)


def query_vocab(seed: int, n_words: int):
    """Words over all POS tags with Zipf-like counts, plus field counts;
    returns (words as (lemma, pos) pairs, word counts, fields, field counts)."""
    rng = np.random.default_rng([seed, 3])
    tags = list(QUERY_POS_SHARE)
    pos = rng.choice(len(tags), size=n_words, p=list(QUERY_POS_SHARE.values()))
    counts = 1e6 / np.arange(1, n_words + 1) ** 1.1
    words = [(f"{tags[p].lower()}{i:05d}", tags[p]) for i, p in enumerate(pos)]
    field_counts = [float(1e5 / (i + 1)) for i in range(len(QUERY_FIELDS))]
    return words, [float(c) for c in counts], list(QUERY_FIELDS), field_counts


class QueryStream:
    """Endless deterministic request stream for the retrieval workload.

    Request kinds: ``("nearest", literal, pos_filter)`` with a composed
    tree literal (AN, VO, SVO, ANVAN or a 3-6 hop chain) and k=10,
    ``("phrase", construction, left_tokens, right_tokens)`` and
    ``("relation", literal, e1, e2)``.  Words inside one literal are
    distinct, so every literal parses to a tree.
    """

    SHAPES = ("AN", "VO", "SVO", "ANVAN", "chain")

    def __init__(self, seed: int, words):
        self.rng = np.random.default_rng([seed, 4])
        self.by_pos: dict[str, list[str]] = {}
        for lemma, pos in words:
            self.by_pos.setdefault(pos, []).append(f"{lemma}/{pos}")
        self.all_tokens = [f"{lemma}/{pos}" for lemma, pos in words]

    def _distinct(self, poses):
        out = []
        while len(out) < len(poses):
            pool = self.by_pos[poses[len(out)]] if poses[len(out)] else self.all_tokens
            tok = pool[int(self.rng.integers(len(pool)))]
            if tok not in out:
                out.append(tok)
        return out

    def literal(self) -> str:
        shape = self.SHAPES[int(self.rng.integers(len(self.SHAPES)))]
        if shape == "AN":
            n, j = self._distinct("NJ")
            return f"{n} -ARG:ARG-> {j}"
        if shape == "VO":
            v, n = self._distinct("VN")
            return f"{v} -COMP:ARG-> {n}"
        if shape == "SVO":
            v, n1, n2 = self._distinct("VNN")
            return f"{v} -SUBJ:ARG-> {n1} ; {v} -COMP:ARG-> {n2}"
        if shape == "ANVAN":
            v, n1, j1, n2, j2 = self._distinct("VNJNJ")
            return f"{v} -SUBJ:ARG-> {n1} -ARG:ARG-> {j1} ; {v} -COMP:ARG-> {n2} -ARG:ARG-> {j2}"
        hops = int(self.rng.integers(3, 7))
        toks = self._distinct([None] * (hops + 1))
        parts = [toks[0]]
        for t in toks[1:]:
            pf = QUERY_FIELDS[int(self.rng.integers(len(QUERY_FIELDS) - 1))]
            lf = QUERY_FIELDS[int(self.rng.integers(3))]
            parts.append(f"-{pf}:{lf}-> {t}")
        return " ".join(parts)

    def batch(self, n: int) -> list[tuple]:
        """The next ``n`` requests in shuffled order, with a fixed mix so
        that the work per batch hardly varies: 40% nearest without and 40%
        with a POS filter, 10% phrase pairs, 10% relation features."""
        n_near, n_phrase = round(0.4 * n), round(0.1 * n)
        kinds = ([None] * n_near + ["pos"] * n_near + ["phrase"] * n_phrase
                 + ["relation"] * (n - 2 * n_near - n_phrase))
        return [self._request(kinds[i]) for i in self.rng.permutation(n)]

    def _request(self, kind):
        if kind in (None, "pos"):
            pos = None if kind is None else "NVJRPX"[int(self.rng.integers(6))]
            return ("nearest", self.literal(), pos)
        if kind == "phrase":
            construction = ("AN", "VO", "SVO", "ANVAN")[int(self.rng.integers(4))]
            shape = {"AN": "JN", "VO": "VN", "SVO": "NVN", "ANVAN": "JNVJN"}[construction]
            return ("phrase", construction, self._distinct(shape), self._distinct(shape))
        # relation features between the ends of a chain or the two nouns of an SVO
        if self.rng.random() < 0.5:
            v, n1, n2 = self._distinct("VNN")
            return ("relation", f"{v} -SUBJ:ARG-> {n1} ; {v} -COMP:ARG-> {n2}", 1, 2)
        hops = int(self.rng.integers(2, 5))
        toks = self._distinct([None] * (hops + 1))
        literal = " ".join([toks[0]] + [f"-ARG:COMP-> {t}" for t in toks[1:]])
        return ("relation", literal, 0, hops)
