"""CoNLL-U parsing and rule-based conversion of UD trees to semantic trees.

The conversion keeps content words as nodes and absorbs function words.
Relations map to double field labels (parent side : child side); the
table below reconstructs the standard patterns (subject, object,
prepositional attachment via the case dependent's lemma, relative
clauses) and is deliberately data-driven so it can be replaced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CyclicTree, MalformedLine, text_lines
from .trees import ARG, COMP, SUBJ, DcsTree, Edge, FieldId, Word

_MULTIWORD_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")
_PLAIN_ID = re.compile(r"^\d+$")

# coarse POS used on tree nodes; anything unmapped is function-like (X)
POS_MAP = {
    "NOUN": "N",
    "PROPN": "N",
    "NUM": "N",
    "VERB": "V",
    "ADJ": "J",
    "PRON": "P",
    "ADV": "R",
}

# relations whose tokens vanish from the tree (det:poss stays, see below)
ABSORBED_RELS = {"aux", "case", "det", "punct", "mark", "cc", "expl", "cop"}

# parent_field:child_field for plain relation bases
REL_MAP: dict[str, tuple[FieldId, FieldId]] = {
    "nsubj": (SUBJ, ARG),
    "obj": (COMP, ARG),
    "dobj": (COMP, ARG),
    "iobj": ("to", ARG),
    "amod": (ARG, ARG),
    "compound": (ARG, ARG),
    "nummod": (ARG, ARG),
    "advmod": (ARG, ARG),
}

REL_PRONOUN_LEMMAS = {"that", "which", "who", "whom", "whose", "what"}


@dataclass(frozen=True)
class UdToken:
    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str


@dataclass(frozen=True)
class UdSentence:
    tokens: tuple[UdToken, ...]


def parse_conllu(source: Iterable[str] | str) -> Iterator[UdSentence]:
    """Yield sentences from CoNLL-U text; multiword ranges and empty
    nodes are skipped, comments ignored."""
    if isinstance(source, str):
        source = source.splitlines()
    pending: list[UdToken] = []
    start_line = None
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if pending:
                yield finish_sentence(pending, start_line)
                pending = []
                start_line = None
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise MalformedLine(f"expected 10 columns, got {len(cols)}", line_no)
        tok_id = cols[0]
        if _MULTIWORD_ID.match(tok_id) or _EMPTY_NODE_ID.match(tok_id):
            continue
        if not _PLAIN_ID.match(tok_id) or int(tok_id) < 1:
            raise MalformedLine(f"bad token id {tok_id!r}", line_no)
        if not _PLAIN_ID.match(cols[6]):
            raise MalformedLine(f"bad head {cols[6]!r}", line_no)
        if start_line is None:
            start_line = line_no
        pending.append(
            UdToken(
                id=int(tok_id),
                form=cols[1],
                lemma=cols[2] if cols[2] != "_" else cols[1],
                upos=cols[3],
                head=int(cols[6]),
                deprel=cols[7].lower(),
            )
        )
    if pending:
        yield finish_sentence(pending, start_line)


def finish_sentence(tokens: Sequence[UdToken], start_line: int | None = None) -> UdSentence:
    """The sentence of ``tokens`` once their heads form a rooted tree;
    ``start_line`` (a CoNLL-U sentence's first line) prefixes the error."""
    where = "" if start_line is None else f"sentence at line {start_line}: "
    ids = {t.id for t in tokens}
    if len(ids) != len(tokens):
        raise CyclicTree(f"{where}repeated token id")
    for t in tokens:
        if t.head == t.id:
            raise CyclicTree(f"{where}token {t.id} heads itself")
        if t.head != 0 and t.head not in ids:
            raise CyclicTree(f"{where}head {t.head} missing")
    # every token must reach 0 without revisiting
    by_id = {t.id: t for t in tokens}
    for t in tokens:
        seen = set()
        cur = t
        while cur.head != 0:
            if cur.id in seen:
                raise CyclicTree(f"{where}cycle through token {cur.id}")
            seen.add(cur.id)
            cur = by_id[cur.head]
    return UdSentence(tuple(tokens))


def parse_conllu_file(path) -> Iterator[UdSentence]:
    yield from parse_conllu(text_lines(path))


def coarse_pos(upos: str) -> str:
    return POS_MAP.get(upos, "X")


def _clean_lemma(tok: UdToken) -> str:
    lemma = (tok.lemma or tok.form or "_").strip()
    lemma = re.sub(r"\s+", "_", lemma)
    return lemma or "_"


def _clean_field(lemma: str) -> str | None:
    name = re.sub(r"[\s:;]+", "_", lemma.strip().lower()).strip("_")
    return name or None


def _is_absorbed(tok: UdToken) -> bool:
    if tok.deprel == "det:poss":
        return False
    return tok.deprel.split(":")[0] in ABSORBED_RELS


@dataclass(frozen=True)
class DcsConversion:
    tree: DcsTree
    token_ids: tuple[int, ...]  # source token id per node index

    def node_of_token(self, token_id: int) -> int | None:
        try:
            return self.token_ids.index(token_id)
        except ValueError:
            return None


def convert_sentence(sent: UdSentence) -> DcsConversion | None:
    """Convert one sentence; None means skip (fewer than 2 content words).

    Never raises on a structurally valid sentence: unmapped relations
    fall back to ARG:ARG and stray content subtrees are attached under
    the first content root.
    """
    by_id = {t.id: t for t in sent.tokens}
    deps: dict[int, list[UdToken]] = {t.id: [] for t in sent.tokens}
    for t in sent.tokens:
        if t.head != 0:
            deps[t.head].append(t)

    def is_relativizer(t: UdToken) -> bool:
        # "that" in "movie that he watched": a pronoun filling a slot of
        # an acl:relcl head stands for the modified noun and vanishes
        return (
            t.upos in ("PRON", "DET")
            and t.lemma.lower() in REL_PRONOUN_LEMMAS
            and t.head != 0
            and by_id[t.head].deprel == "acl:relcl"
        )

    content = [
        t
        for t in sent.tokens
        if coarse_pos(t.upos) != "X" and not _is_absorbed(t) and not is_relativizer(t)
    ]
    if len(content) < 2:
        return None
    content_ids = {t.id for t in content}

    def content_parent(tok: UdToken) -> UdToken | None:
        cur = tok
        while cur.head != 0:
            cur = by_id[cur.head]
            if cur.id in content_ids:
                return cur
        return None

    parent_of = {t.id: content_parent(t) for t in content}
    tops = [t for t in content if parent_of[t.id] is None]
    root_tok = tops[0]

    node_of = {t.id: i for i, t in enumerate(content)}
    words = tuple(Word(_clean_lemma(t), coarse_pos(t.upos)) for t in content)

    # conjuncts re-attach to the grandparent with the first conjunct's fields
    def first_conjunct(tok: UdToken) -> UdToken:
        while tok.deprel.split(":")[0] == "conj" and parent_of.get(tok.id) is not None:
            tok = parent_of[tok.id]
        return tok

    fields_of: dict[int, tuple[FieldId, FieldId]] = {}
    attach_to: dict[int, int] = {}
    for t in content:
        if t.id == root_tok.id:
            continue
        p = parent_of[t.id]
        if p is None:
            attach_to[t.id] = root_tok.id
            fields_of[t.id] = (ARG, ARG)
            continue
        if t.deprel.split(":")[0] == "conj":
            head = first_conjunct(p)
            grand = parent_of.get(head.id)
            if grand is None:
                attach_to[t.id] = head.id
                fields_of[t.id] = (ARG, ARG)
            else:
                attach_to[t.id] = grand.id
                fields_of[t.id] = _edge_fields(head, deps)
        else:
            attach_to[t.id] = p.id
            fields_of[t.id] = _edge_fields(t, deps)

    edges = tuple(
        Edge(node_of[attach_to[t.id]], node_of[t.id], *fields_of[t.id])
        for t in content
        if t.id != root_tok.id
    )
    tree = DcsTree(words, node_of[root_tok.id], edges)
    return DcsConversion(tree, tuple(t.id for t in content))


def _edge_fields(tok: UdToken, deps: dict[int, list[UdToken]]) -> tuple[FieldId, FieldId]:
    rel = tok.deprel
    base = rel.split(":")[0]
    if rel == "nsubj:pass":
        return (COMP, ARG)
    if base in REL_MAP:
        return REL_MAP[base]
    if rel == "det:poss" or rel == "nmod:poss":
        return (ARG, ARG)
    if base in ("nmod", "obl", "advcl", "acl") and rel != "acl:relcl":
        prep = _adposition_lemma(tok, deps)
        if prep is not None:
            return (prep, ARG)
        return (ARG, ARG)
    if rel == "acl:relcl":
        return (ARG, _relativizer_role(tok, deps))
    return (ARG, ARG)


def _adposition_lemma(tok: UdToken, deps: dict[int, list[UdToken]]) -> FieldId | None:
    # first case/mark dependent that is an adposition or subordinator;
    # multiword prepositions contribute the head lemma only
    for d in sorted(deps[tok.id], key=lambda t: t.id):
        if d.deprel.split(":")[0] in ("case", "mark") and d.upos in ("ADP", "SCONJ"):
            return _clean_field(d.lemma or d.form)
    return None


def _relativizer_role(clause_head: UdToken, deps: dict[int, list[UdToken]]) -> FieldId:
    # the modified noun plays inside the clause whatever role the
    # relativizer holds; subjects map to SUBJ, everything else to COMP
    for d in sorted(deps[clause_head.id], key=lambda t: t.id):
        if d.lemma.lower() in REL_PRONOUN_LEMMAS and d.upos in ("PRON", "DET", "SCONJ", "ADV"):
            return SUBJ if d.deprel.split(":")[0] == "nsubj" else COMP
    return COMP


def ud_to_dcs(sent: UdSentence) -> DcsTree | None:
    conv = convert_sentence(sent)
    return conv.tree if conv is not None else None
