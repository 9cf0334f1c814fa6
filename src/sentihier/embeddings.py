"""Static pretrained word vectors: word2vec binary/text loaders and lookup.

Vectors are loaded once and never change afterwards. A loader given a wanted
set still parses every record of the file, so each format error names its
byte offset or line, but keeps only the rows whose token is in the set:
`load_vectors` asks for the keys that `EmbeddingTable.lookup` may probe for
a dataset's tokens, so a 3.6 GB GoogleNews file costs memory only for the
dataset's rows. Out-of-vocabulary tokens resolve to the all-zero vector,
which is neutral under the convolution.
"""

from pathlib import Path

import numpy as np

from .errors import ParseError

BLOCK_BYTES = 1 << 16  # the .bin loader reads its file in pieces of this size


class EmbeddingTable:
    """Read-only token -> vector map of a fixed dimension.

    A word2vec loader keeps its vectors as the rows of one matrix (float32
    for a .bin, float64 for text); random_table makes one float64 array per
    token. lookup returns the same array object for a token on every call.
    Every vector has shape (dim,): each constructor checks or builds that
    itself.
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

    @staticmethod
    def probes(token: str) -> tuple:
        """The keys `lookup` tries, in order: the token (textprep tokens are
        lowercase), then its capitalized form."""
        return token, token.capitalize()

    def lookup(self, token: str) -> np.ndarray:
        """The vector of the first probe present; zeros on a miss."""
        for candidate in self.probes(token):
            vec = self._vectors.get(candidate)
            if vec is not None:
                return vec
        return self.oov_vector


def load_vectors(path, docs) -> EmbeddingTable:
    """Word vectors from `path`, a word2vec .bin if its suffix is .bin and
    text otherwise, keeping only the rows that `lookup` can return for a
    token of the tokenized documents `docs`."""
    wanted = {key for doc in docs for sent in doc.sentences for token in sent
              for key in EmbeddingTable.probes(token)}
    path = Path(path)
    return (load_word2vec_binary if path.suffix == ".bin" else load_word2vec_text)(path, wanted)


def load_word2vec_binary(path, wanted=None) -> EmbeddingTable:
    """Parse the canonical word2vec .bin format, keeping the rows whose token
    is in `wanted` (every row when it is None).

    Header is an ASCII "V D\\n" line; each record is a space-terminated token
    followed by D little-endian float32 values and an optional newline. The
    file is read front to back in BLOCK_BYTES pieces, and each kept record's
    values are copied into their row of one float32 matrix (exact as
    float64). That matrix is allocated once, no larger than the file could
    fill, whatever the header claims. A token given twice keeps its last
    record.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, 2)
        fh.seek(0)
        buf, base = b"", 0  # bytes read and not yet passed; the file offset of buf[0]

        def more(drop: int, need: int) -> bool:
            """Drops buf[:drop] and appends the next max(BLOCK_BYTES, need)
            bytes of the file; False if there were none."""
            nonlocal buf, base
            block = fh.read(max(BLOCK_BYTES, need))
            buf, base = buf[drop:] + block, base + drop
            return bool(block)

        while (newline := buf.find(b"\n")) < 0:
            if not more(0, len(buf)):
                raise ParseError(f"{path}: missing header line (byte offset 0)")
        header = buf[:newline]
        try:
            vocab_size, dim = (int(x) for x in header.split())
        except ValueError:
            raise ParseError(f"{path}: malformed header {header!r} (byte offset 0)") from None
        if vocab_size <= 0 or dim <= 0:
            raise ParseError(f"{path}: non-positive header counts {vocab_size} {dim}")
        record_bytes = 4 * dim
        at = newline + 1
        # Every record holds at least a space and its values.
        capacity = min(vocab_size, (size - at) // (record_bytes + 1))
        if wanted is not None:
            capacity = min(capacity, len(wanted))
        matrix = np.empty((capacity, dim), dtype="<f4")
        out = memoryview(matrix.reshape(-1).view(np.uint8))
        rows = {}  # kept token -> its row
        for _ in range(vocab_size):
            while (space := buf.find(b" ", at)) < 0:
                grew = more(at, len(buf) - at)  # a long token doubles what is read
                at = 0
                if not grew:
                    raise ParseError(f"{path}: truncated token at byte offset {base}")
            token = buf[at:space].decode("utf-8", errors="replace").lstrip("\n")
            start, end = space + 1, space + 1 + record_bytes
            if base + end > size:
                raise ParseError(f"{path}: truncated record for {token!r} "
                                 f"at byte offset {base + start}")
            if end >= len(buf):  # the record, or the byte after it, is not read yet
                more(start, end + 1 - len(buf))
                start, end = 0, record_bytes
            if wanted is None or token in wanted:
                row = rows.setdefault(token, len(rows)) * record_bytes
                out[row : row + record_bytes] = memoryview(buf)[start:end]
            at = end + (buf[end : end + 1] == b"\n")  # the optional newline
    return _table(path, rows, matrix[: len(rows)])


def load_word2vec_text(path, wanted=None) -> EmbeddingTable:
    """Parse "token v1 ... vD" lines; a leading "V D" header is auto-detected.

    Keeps the rows whose token is in `wanted` (every row when it is None) as
    one float64 matrix; a token given twice keeps its last line.
    """
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
                    vec = [float(v) for v in values]
                except ValueError:
                    raise ParseError(f"{path}: non-numeric value at line {lineno}") from None
                if dim is None:
                    dim = len(vec)
                elif len(vec) != dim:
                    raise ParseError(
                        f"{path}: inconsistent dimension at line {lineno}: "
                        f"got {len(vec)}, expected {dim}"
                    )
                if wanted is None or token in wanted:
                    vectors[token] = np.array(vec, dtype=np.float64)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if dim is None:
        raise ParseError(f"{path}: no vectors found")
    matrix = np.stack(list(vectors.values())) if vectors else np.empty((0, dim))
    return _table(path, vectors, matrix)


def _table(path, tokens, matrix) -> EmbeddingTable:
    """The table mapping the i-th of `tokens` to row i of `matrix`, once every
    row is finite. The check runs in blocks of rows, so that its temporary
    stays small next to the matrix."""
    step = max(1, BLOCK_BYTES // matrix.shape[1])
    for start in range(0, len(matrix), step):
        finite = np.isfinite(matrix[start : start + step]).all(axis=1)
        if not finite.all():
            token = list(tokens)[start + int(finite.argmin())]
            raise ParseError(f"{path}: the vector for {token!r} is not finite")
    return EmbeddingTable(matrix.shape[1], dict(zip(tokens, matrix)))


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
