"""Static word vectors: word2vec binary/text loaders and the table they
fill, with its lookup, and seeded random vectors as one matrix.

Vectors are made once and never change afterwards. A loader given a wanted
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

BLOCK_BYTES = 1 << 16  # the .bin loader's reads, and the pieces a matrix is checked or drawn in


class EmbeddingTable:
    """Read-only token -> vector map of a fixed dimension.

    Every file source gives its vectors as one matrix, token i in row i
    (float32 for a .bin, float64 for text). lookup returns the same view of a
    token's row on every call.
    """

    def __init__(self, tokens, matrix: np.ndarray):
        self.dim = matrix.shape[1]
        self._vectors = dict(zip(tokens, matrix))
        self.oov_vector = np.zeros(self.dim, dtype=np.float64)

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


def load_word2vec_text(path, wanted) -> EmbeddingTable:
    """Parse "token v1 ... vD" lines; a leading "V D" header is auto-detected.

    Each line whose token is in `wanted` is written into its row of one
    float64 matrix, allocated at the first line, of at most len(wanted)
    rows and no more than the file could fill (every line holds a token and
    D values, each after a separator); a token given twice keeps its last line.
    """
    size = Path(path).stat().st_size
    rows = {}  # kept token -> its row
    matrix = dim = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split()
                if not fields:
                    continue
                if lineno == 1 and len(fields) == 2 and all(map(str.isdecimal, fields)):
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
                    matrix = np.empty((min(len(wanted), size // (2 * dim + 1)), dim))
                elif len(vec) != dim:
                    raise ParseError(
                        f"{path}: inconsistent dimension at line {lineno}: "
                        f"got {len(vec)}, expected {dim}"
                    )
                if token in wanted:
                    matrix[rows.setdefault(token, len(rows))] = vec
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if dim is None:
        raise ParseError(f"{path}: no vectors found")
    return _table(path, rows, matrix[: len(rows)])


def _table(path, tokens, matrix) -> EmbeddingTable:
    """The table of `tokens` and `matrix`, once every row is finite. The check
    runs in blocks of rows, so that its temporary stays small next to the
    matrix."""
    step = max(1, BLOCK_BYTES // matrix.shape[1])
    for start in range(0, len(matrix), step):
        finite = np.isfinite(matrix[start : start + step]).all(axis=1)
        if not finite.all():
            token = list(tokens)[start + int(finite.argmin())]
            raise ParseError(f"{path}: the vector for {token!r} is not finite")
    return EmbeddingTable(tokens, matrix)


def random_table(tokens, dim: int, seed: int) -> np.ndarray:
    """Seeded uniform [-0.25, 0.25) vectors as a float64 matrix, row i for
    token i: the first `dim` outputs of splitmix64 seeded with s ^
    FNV-1a(token), each scaled from its top 53 bits, where SeedSequence
    reduces `seed` to the 64 bits s. So a vector depends only on the seed and
    the token. The matrix is hashed in place, BLOCK_BYTES of rows at a time,
    as uint64 arrays (which wrap silently, where numpy's scalars warn)."""
    keys = np.random.SeedSequence(seed).generate_state(1, np.uint64) ^ fnv1a_64(tokens)
    offsets = np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    matrix = np.empty((len(keys), dim))
    step = max(1, BLOCK_BYTES // (8 * dim))
    for start in range(0, len(matrix), step):
        block = matrix[start : start + step]
        z = np.add(keys[start : start + step, None], offsets, out=block.view(np.uint64))
        z ^= z >> 30  # splitmix64's finaliser
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        np.subtract((z >> 11) * 2.0**-54, 0.25, out=block)
    return matrix


def fnv1a_64(tokens) -> np.ndarray:
    """64-bit FNV-1a hashes of the tokens' UTF-8 bytes, as a uint64 array.

    Every token is hashed at once, one byte position per step: the tokens
    are taken longest first, so those still being hashed at byte j are a
    prefix of them, and their byte j is gathered from the joined bytes."""
    data = [token.encode("utf-8") for token in tokens]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    order = np.argsort(-lengths)
    lengths = lengths[order]
    joined = np.frombuffer(b"".join(data[i] for i in order), np.uint8)
    starts = np.cumsum(lengths) - lengths
    h = np.full(len(data), 0xCBF29CE484222325, np.uint64)
    # How many tokens are longer than j, for each byte position j.
    longer = np.searchsorted(-lengths, -np.arange(lengths.max(initial=0)))
    for j, n in enumerate(longer.tolist()):
        h[:n] ^= joined[starts[:n] + j]
        h[:n] *= np.uint64(0x100000001B3)
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes

