"""Static pretrained word vectors: word2vec binary/text loaders and lookup.

Vectors are loaded once and never change afterwards. Out-of-vocabulary tokens
resolve to the all-zero vector, which is neutral under the convolution.
"""

import numpy as np

from .errors import ParseError


class EmbeddingTable:
    """Read-only token -> vector map of a fixed dimension.

    Vectors are float64, or float32 rows for a word2vec .bin table; lookup
    returns the same array object for a token on every call. Every vector
    has shape (dim,): each constructor checks or builds that itself.
    """

    def __init__(self, dim: int, vectors: dict):
        if dim <= 0:
            raise ParseError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self._vectors = vectors
        self.oov_vector = np.zeros(dim, dtype=np.float64)

    def __len__(self):
        return len(self._vectors)

    def __contains__(self, token):
        return token in self._vectors

    def lookup(self, token: str) -> np.ndarray:
        """Exact match (textprep tokens are lowercase), then capitalized; zeros on miss."""
        for candidate in (token, token.capitalize()):
            vec = self._vectors.get(candidate)
            if vec is not None:
                return vec
        return self.oov_vector


def load_word2vec_binary(path) -> EmbeddingTable:
    """Parse the canonical word2vec .bin format.

    Header is an ASCII "V D\\n" line; each record is a space-terminated token
    followed by D little-endian float32 values and an optional newline. The
    vectors are float32 rows of one contiguous matrix, the very buffer the file
    is read into, and each token maps to a view of its row (exact as float64).
    """
    with open(path, "rb") as fh:
        data = bytearray(fh.seek(0, 2))  # as long as the file
        fh.seek(0)
        del data[fh.readinto(data):]
    newline = data.find(b"\n")
    if newline < 0:
        raise ParseError(f"{path}: missing header line (byte offset 0)")
    try:
        vocab_size, dim = (int(x) for x in data[:newline].split())
    except ValueError:
        raise ParseError(f"{path}: malformed header {bytes(data[:newline])!r} "
                         "(byte offset 0)") from None
    if vocab_size <= 0 or dim <= 0:
        raise ParseError(f"{path}: non-positive header counts {vocab_size} {dim}")
    tokens = []
    offset = newline + 1
    record_bytes = 4 * dim
    for row in range(vocab_size):
        space = data.find(b" ", offset)
        if space < 0:
            raise ParseError(f"{path}: truncated token at byte offset {offset}")
        token = data[offset:space].decode("utf-8", errors="replace").lstrip("\n")
        start = space + 1
        end = start + record_bytes
        if end > len(data):
            raise ParseError(f"{path}: truncated record for {token!r} at byte offset {start}")
        tokens.append(token)
        # Move the values down to their row, over bytes the parse has passed.
        data[row * record_bytes : (row + 1) * record_bytes] = data[start:end]
        offset = end + (data[end : end + 1] == b"\n")  # the optional newline
    matrix = np.frombuffer(data, dtype="<f4", count=vocab_size * dim).reshape(vocab_size, dim)
    return EmbeddingTable(dim, dict(zip(tokens, matrix)))


def load_word2vec_text(path) -> EmbeddingTable:
    """Parse "token v1 ... vD" lines; a leading "V D" header is auto-detected."""
    vectors = {}
    dim = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split()
                if not fields:
                    continue
                if lineno == 1 and len(fields) == 2 and all(_is_int(f) for f in fields):
                    continue  # header line
                token, values = fields[0], fields[1:]
                if not values:
                    raise ParseError(f"{path}: no vector values at line {lineno}")
                try:
                    vec = np.array([float(v) for v in values], dtype=np.float64)
                except ValueError:
                    raise ParseError(f"{path}: non-numeric value at line {lineno}") from None
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ParseError(
                        f"{path}: inconsistent dimension at line {lineno}: "
                        f"got {vec.shape[0]}, expected {dim}"
                    )
                vectors[token] = vec
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if dim is None:
        raise ParseError(f"{path}: no vectors found")
    return EmbeddingTable(dim, vectors)


def random_table(tokens, dim: int, seed: int) -> EmbeddingTable:
    """Seeded uniform [-0.25, 0.25] vectors, one per token.

    Each vector is derived from (seed, hash(token)), so the same token always
    gets the same vector regardless of iteration order or vocabulary makeup.
    """
    vectors = {}
    for token in tokens:
        ss = np.random.SeedSequence([seed, fnv1a_64(token.encode("utf-8"))])
        rng = np.random.default_rng(ss)
        vectors[token] = rng.uniform(-0.25, 0.25, size=dim)
    return EmbeddingTable(dim, vectors)


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False
