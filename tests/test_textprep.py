import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentihier.errors import ConfigurationError
from sentihier.textprep import (
    _ABBREVIATIONS,
    _PUNCT,
    _URL_RE,
    UNK_INDEX,
    UNK_TOKEN,
    URL_TOKEN,
    build_vocab,
    encode,
    index_document,
    split_sentences,
    tokenize,
    tokenize_document,
)


def reference_split_sentences(text: str) -> list:
    """The splitter as a scan, one character at a time: the reference that
    split_sentences must match."""
    if not text or not text.strip():
        return [UNK_TOKEN]
    text = text.strip()
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".!?" and (i + 1 == n or text[i + 1].isspace()):
            candidate = text[start : i + 1]
            last_word = candidate.rsplit(None, 1)[-1].lower() if candidate.split() else ""
            if ch == "." and last_word in _ABBREVIATIONS:
                i += 1
                continue
            if candidate.strip():
                sentences.append(candidate.strip())
            start = i + 1
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    if not sentences:
        sentences = [text]
    return sentences


# Guarded abbreviations in mixed case, and whitespace beyond ASCII that
# str.isspace accepts (file separator, next line, line separator, ideographic
# and no-break space).
_SPLIT_PIECES = st.sampled_from(
    list("abzAZ.!?") + ["e.g.", "E.g.", "I.E.", "etc.", "Vs.", "mrs.", "APPROX.", "Dr."]
    + [" ", "\t", "\n", "\x1c", "\x85", "\u2028", "\u3000", "\xa0"])


# URL prefixes in mixed case, characters that case-fold to ASCII letters (ſ
# to s, the Kelvin sign to k, İ to i with a dot), the UNK token and
# punctuation.
_TOKEN_PIECES = st.sampled_from(
    ["http://", "https://", "HTTP://", "hTtPs://", "www.", "WWW.", "wWw.", "httpſ://",
     "http:/", "htp://", "h", "w", "H", "W", "ſ", "\u212a", "İ", "ı", "x", "é", "<unk>",
     UNK_TOKEN.upper(), ".", "!", "(", "\"", "/", ":", " ", "  ", "\t"])


def reference_tokenize(sentence: str) -> list:
    """tokenize with the URL pattern tried on every piece: the rule that the
    first-character guard must keep."""
    tokens = []
    for piece in sentence.split():
        if piece == UNK_TOKEN:
            tokens.append(UNK_TOKEN)
        elif _URL_RE.match(piece):
            tokens.append(URL_TOKEN)
        elif stripped := piece.strip(_PUNCT).lower():
            tokens.append(stripped)
    return tokens or [UNK_TOKEN]


class TestSplitSentences:
    def test_two_terminators(self):
        assert split_sentences("Great app. Crashes a lot!") == ["Great app.", "Crashes a lot!"]

    def test_no_terminator(self):
        assert split_sentences("works fine") == ["works fine"]

    def test_abbreviation_guard(self):
        # Hand-walk: '.' of "e.g." is guarded, '.' of "docs." splits.
        assert split_sentences("see e.g. the docs. thanks") == ["see e.g. the docs.", "thanks"]

    def test_whitespace_only(self):
        assert split_sentences("   ") == [UNK_TOKEN]
        assert split_sentences("") == [UNK_TOKEN]

    def test_question_and_exclamation(self):
        assert split_sentences("Why? Because! Ok") == ["Why?", "Because!", "Ok"]

    @given(st.one_of(st.lists(_SPLIT_PIECES, max_size=40).map("".join), st.text(max_size=80)))
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_reference_scan(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    @given(st.text(min_size=1, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_never_empty_and_preserves_characters(self, text):
        out = split_sentences(text)
        assert out
        if text.strip():
            assert "".join("".join(out).split()) == "".join(text.split())


class TestTokenize:
    def test_basic(self):
        assert tokenize("Crashes a lot!") == ["crashes", "a", "lot"]

    def test_url_rule(self):
        assert tokenize("Check http://x.io now") == ["check", "<url>", "now"]

    def test_pure_punctuation_falls_back_to_unk(self):
        assert tokenize("... !!") == [UNK_TOKEN]

    def test_every_first_character_of_a_url_is_tried(self):
        # tokenize tries the URL pattern only on pieces that start with h, H,
        # w or W. Under IGNORECASE a pattern character also matches the code
        # points that fold to it (ſ to s, the Kelvin sign to k); none other
        # folds to h or w.
        first = re.compile("[hw]", re.IGNORECASE).match
        accepted = {chr(cp) for cp in range(sys.maxunicode + 1) if first(chr(cp))}
        assert accepted == set("hHwW")

    @given(st.lists(_TOKEN_PIECES, max_size=30).map("".join))
    @settings(max_examples=1000, deadline=None)
    @example("httpſ://x HTTPS://X.io hTtP://a www.b.c WwW.d ſ http:/x <unk> <UNK>")
    @example("\u212aelvin İstanbul https://İ.tr ḣttp://x ẘww.x")
    def test_matches_the_rule_that_tries_every_piece(self, sentence):
        assert tokenize(sentence) == reference_tokenize(sentence)


class TestBuildVocab:
    def test_frequency_order(self):
        corpus = [tokenize_document("a b"), tokenize_document("a")]
        vocab = build_vocab(corpus)
        assert vocab.token_to_index == {UNK_TOKEN: 0, "a": 1, "b": 2}

    def test_frequency_ties_break_lexicographically(self):
        corpus = [tokenize_document("zz aa zz aa zz aa")]
        vocab = build_vocab(corpus)
        assert vocab.token_to_index["aa"] < vocab.token_to_index["zz"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            build_vocab([])

    def test_deterministic_regardless_of_document_order(self):
        docs = [tokenize_document(t) for t in ("x y z", "y z", "z q r s")]
        v1 = build_vocab(docs)
        v2 = build_vocab(list(reversed(docs)))
        assert v1.index_to_token == v2.index_to_token


class TestIndexDocument:
    def test_known_tokens(self):
        vocab = build_vocab([tokenize_document("a b"), tokenize_document("a")])
        assert index_document(tokenize_document("a b"), vocab) == ((1, 2),)

    def test_oov_maps_to_unk(self):
        vocab = build_vocab([tokenize_document("a b")])
        assert index_document(tokenize_document("z"), vocab) == ((UNK_INDEX,),)

    def test_round_trip_in_vocab(self):
        vocab = build_vocab([tokenize_document("alpha beta. gamma")])
        doc = tokenize_document("Alpha beta. Gamma")
        indexed = index_document(doc, vocab)
        recovered = tuple(tuple(vocab.index_to_token[i] for i in sent) for sent in indexed)
        assert recovered == doc.sentences

    @given(st.text(min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_total_on_any_text(self, text):
        vocab = build_vocab([tokenize_document("hello world")])
        indexed = index_document(tokenize_document(text), vocab)
        assert indexed and all(sent for sent in indexed)
        assert all(0 <= i < len(vocab) for sent in indexed for i in sent)

    @given(st.text(min_size=0, max_size=100), st.text(min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_encode_holds_each_tokens_index_as_tuples_of_ints(self, seen, text):
        # One path from raw text to a Document: its sentences are each
        # token's vocabulary index, already in the tuple form it holds.
        vocab = build_vocab([tokenize_document(seen)])
        doc = tokenize_document(text)
        sentences = encode(doc, vocab).sentences
        assert sentences == tuple(tuple(vocab.token_to_index.get(t, UNK_INDEX) for t in s)
                                  for s in doc.sentences)
        assert type(sentences) is tuple
        assert all(type(s) is tuple and all(type(i) is int for i in s) for s in sentences)

