"""Text preprocessing: sentence splitting, tokenization and vocabulary building.

Documents flow through as: raw text -> sentences -> lowercased tokens ->
vocabulary indices. The splitter is rule based (deterministic, no external
models) with a small guard list for common abbreviations.
"""

import re
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigurationError, SentihierError

UNK_TOKEN = "<unk>"
UNK_INDEX = 0
URL_TOKEN = "<url>"

# Abbreviations that end with '.' but do not terminate a sentence.
_ABBREVIATIONS = frozenset(
    ["e.g.", "i.e.", "etc.", "vs.", "cf.", "dr.", "mr.", "mrs.", "ms.", "approx."]
)

_SENTENCE_END = re.compile(r"[.!?](?=\s|\Z)")
_URL_RE = re.compile(r"^(https?://|www\.)\S+", re.IGNORECASE)
_PUNCT = "\"'`()[]{}<>,.;:!?*~^#@&/\\|="


@dataclass(frozen=True)
class TokenizedDocument:
    sentences: tuple  # tuple of tuples of token strings, each non-empty


@dataclass(frozen=True)
class Vocabulary:
    token_to_index: dict
    index_to_token: tuple

    @classmethod
    def of(cls, tokens) -> "Vocabulary":
        """The vocabulary whose index i is tokens[i]."""
        tokens = tuple(tokens)
        return cls({tok: i for i, tok in enumerate(tokens)}, tokens)

    def __len__(self):
        return len(self.index_to_token)


def split_sentences(text: str) -> list:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    A terminator inside a guarded abbreviation does not split. Whitespace-only
    input yields a single UNK sentence.
    """
    text = text.strip()
    if not text:
        return [UNK_TOKEN]
    sentences = []
    start = 0
    for match in _SENTENCE_END.finditer(text):
        candidate = text[start : match.end()]
        if match[0] == "." and candidate.rsplit(None, 1)[-1].lower() in _ABBREVIATIONS:
            continue
        sentences.append(candidate.strip())
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    URLs collapse to a single <url> token; tokens that are pure punctuation
    are dropped. An empty result falls back to a single UNK token.
    """
    tokens = []
    for piece in sentence.split():
        if piece == UNK_TOKEN:
            tokens.append(UNK_TOKEN)
            continue
        # "hHwW" holds every first character that _URL_RE accepts, so a
        # piece that starts otherwise is not tried. Lowercasing would not
        # do: "httpſ://x" matches, since ſ folds to s.
        if piece[0] in "hHwW" and _URL_RE.match(piece):
            tokens.append(URL_TOKEN)
            continue
        stripped = piece.strip(_PUNCT).lower()
        if stripped:
            tokens.append(stripped)
    return tokens if tokens else [UNK_TOKEN]


def tokenize_document(text: str) -> TokenizedDocument:
    sentences = tuple(tuple(tokenize(s)) for s in split_sentences(text))
    return TokenizedDocument(sentences=sentences)


def build_vocab(corpus) -> Vocabulary:
    """Vocabulary over all tokens of the corpus.

    Index 0 is reserved for UNK. Remaining tokens are ordered by descending
    frequency, ties broken lexicographically, so the result is independent of
    document order.
    """
    corpus = list(corpus)
    if not corpus:
        raise ConfigurationError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for doc in corpus:
        for sent in doc.sentences:
            counts.update(sent)
    counts.pop(UNK_TOKEN, None)
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary.of((UNK_TOKEN, *kept))


def index_document(doc: TokenizedDocument, vocab: Vocabulary) -> tuple:
    """Every token's vocabulary index, UNK's if unknown: the tuple of tuples a Document holds."""
    get = vocab.token_to_index.get
    return tuple(tuple([get(tok, UNK_INDEX) for tok in sent]) for sent in doc.sentences)


@dataclass(frozen=True)
class Document:
    """Sentences of token indices, with an optional gold label: the model input."""
    sentences: tuple  # tuple of tuples of int
    label: int | None = None

    def __post_init__(self):
        if len(self.sentences) == 0 or any(len(s) == 0 for s in self.sentences):
            raise SentihierError("a document needs at least one non-empty sentence")


def encode(doc: TokenizedDocument, vocab: Vocabulary, label: int | None = None) -> Document:
    """The model input for a tokenized document: its indexed sentences and label."""
    return Document(index_document(doc, vocab), label)
