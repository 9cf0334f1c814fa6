"""Fuzzing of the three file loaders.

Each case starts from a valid fixture and truncates it, flips one bit or
inflates one length field; a checkpoint may also have bytes appended. The
loader must then either load the file or raise a ParseError whose message
names the file; and `main()` must turn such a file into exit code 3 with
the path in the message. A checkpoint must always raise a ParseError naming
the file, unless the flipped bit lies in its float data.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_model, save_word2vec_text, write_dataset_csv
from sentihier.cli import main
from sentihier.embeddings import load_word2vec_binary, load_word2vec_text
from sentihier.errors import ParseError
from sentihier.model import load_checkpoint, save_checkpoint
from sentihier.synthetic import make_marker_dataset

FUZZ = settings(max_examples=150, deadline=None)
WORDS = [("great", [0.5, -1.25, 2.0]), ("bug", [1e-3, 0.0, -7.5]), ("Fix", [3.0, 2.0, 1.0])]
WANTED = {"great", "Great"}  # the first record only: every later one is parsed all the same


def checkpoint_bytes(tmp) -> bytes:
    path = tmp / "valid.ckpt"
    save_checkpoint(desk_model(), path)
    return path.read_bytes()


def binary_bytes() -> bytes:
    out = [f"{len(WORDS)} 3\n".encode()]
    for token, vec in WORDS:
        out.append(token.encode() + b" " + struct.pack("<3f", *vec) + b"\n")
    return b"".join(out)


def text_bytes(tmp) -> bytes:
    path = tmp / "valid.txt"
    save_word2vec_text({t: np.array(v) for t, v in WORDS}, path)
    return path.read_bytes()


def checkpoint_layout(data: bytes):
    """(offsets of the u32 length fields of the config, token and label
    records, each followed by a CRC-32; offset of the float data, which
    runs from there to the end) of a checkpoint."""
    fields, at = [], 8
    for _ in range(3):
        fields.append(at)
        at += 8 + struct.unpack_from("<I", data, at)[0]
    return fields, at


def mutations(size: int, inflatable: list):
    """('truncate', n), ('flip', bit) or ('inflate', field, amount)."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1)),
        st.tuples(st.just("flip"), st.integers(0, 8 * size - 1)),
        st.tuples(st.just("inflate"), st.sampled_from(inflatable), st.integers(1, 2**32)))


def mutate(data: bytes, mutation, inflate) -> bytes:
    if mutation[0] == "append":
        return data + mutation[1]
    kind, at, *amount = mutation
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        flipped = bytearray(data)
        flipped[at // 8] ^= 1 << (at % 8)
        return bytes(flipped)
    return inflate(data, at, amount[0])


def inflate_u32(data: bytes, at: int, amount: int) -> bytes:
    (old,) = struct.unpack_from("<I", data, at)
    return data[:at] + struct.pack("<I", min(old + amount, 2**32 - 1)) + data[at + 4 :]


def inflate_header(data: bytes, which: int, amount: int) -> bytes:
    """Raises the vocabulary size (0) or the dimension (1) in a "V D" header."""
    header, rest = data.split(b"\n", 1)
    counts = [int(c) for c in header.split()]
    counts[which] += amount
    return b"%d %d\n" % tuple(counts) + rest


def loads_or_names_the_file(load, path):
    try:
        return load(path)
    except ParseError as exc:
        assert str(path) in str(exc), exc
        return str(exc)


def same_outcome_with_a_wanted_set(load, path, everything=None):
    """`load` with a wanted set fails with the same format error as with
    `everything` wanted (None: every row), since it parses every record, or
    loads the same vectors. Only a non-finite row that it does not keep may
    set the two apart."""
    full = loads_or_names_the_file(lambda p: load(p, everything), path)
    kept = loads_or_names_the_file(lambda p: load(p, WANTED), path)
    if isinstance(full, str) or isinstance(kept, str):
        assert full == kept or isinstance(full, str) and "not finite" in full, (full, kept)
    else:
        for token in WANTED:
            assert kept.lookup(token).tobytes() == full.lookup(token).tobytes()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_checkpoint(fuzz_dir):
    valid = checkpoint_bytes(fuzz_dir)
    fields, floats_at = checkpoint_layout(valid)
    model = desk_model()
    assert len(valid) - floats_at == 8 * (model.block.size + model.embedding_matrix.size)

    def in_float_data(bit):
        return bit // 8 >= floats_at
    # Most of the file is float data, where a flip may load: also draw flips
    # of the other bits, so that most examples assert an error.
    checked_bits = [bit for bit in range(8 * len(valid)) if not in_float_data(bit)]

    @FUZZ
    @given(st.one_of(mutations(len(valid), fields),
                     st.tuples(st.just("flip"), st.sampled_from(checked_bits)),
                     st.tuples(st.just("append"), st.binary(min_size=1, max_size=64))))
    def case(mutation):
        path = fuzz_dir / "case.ckpt"
        path.write_bytes(mutate(valid, mutation, inflate_u32))
        kind, at, *_ = mutation
        if kind == "flip" and in_float_data(at):
            loads_or_names_the_file(load_checkpoint, path)  # the float data carries no checksum
        else:
            with pytest.raises(ParseError) as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)
    case()


def test_word2vec_binary(fuzz_dir):
    valid = binary_bytes()

    @FUZZ
    @given(mutations(len(valid), [0, 1]))
    def case(mutation):
        path = fuzz_dir / "case.bin"
        path.write_bytes(mutate(valid, mutation, inflate_header))
        same_outcome_with_a_wanted_set(load_word2vec_binary, path)
    case()


def test_word2vec_text(fuzz_dir):
    valid = text_bytes(fuzz_dir)

    @FUZZ
    @given(mutations(len(valid), [0, 1]))
    def case(mutation):
        path = fuzz_dir / "case.txt"
        path.write_bytes(mutate(valid, mutation, inflate_header))
        # Every whitespace-separated field of the file: a superset of its tokens.
        fields = set(path.read_bytes().decode("utf-8-sig", errors="replace").split())
        same_outcome_with_a_wanted_set(load_word2vec_text, path, fields)
    case()


@pytest.fixture(scope="module")
def dataset_config(fuzz_dir):
    write_dataset_csv(make_marker_dataset(20, seed=3), fuzz_dir / "data.csv")
    conf = fuzz_dir / "data.conf"
    conf.write_text("name = fuzz\npath = data.csv\ntext_column = text\nlabel_column = label\n",
                    encoding="utf-8")
    return conf


def test_cli_malformed_checkpoint_exits_3(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    path.write_bytes(checkpoint_bytes(tmp_path)[:-5])
    assert main(["predict", "--model", str(path), "--input", "-"]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("name, data", [
    ("vectors.bin", binary_bytes()[:-5]),
    ("vectors.txt", b"great 0.5 1.0\nbug \xff\xfe 2.0\n"),
], ids=["binary-truncated", "text-not-utf8"])
def test_cli_malformed_word_vectors_exit_3(dataset_config, tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["crossval", "--dataset", str(dataset_config), "--classifier", "hicnnlstm",
                 "--folds", "2", "--embeddings", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["vectors.bin", "vectors.txt"])
def test_cli_non_finite_word_vector_exits_3_naming_the_token(dataset_config, tmp_path, capsys,
                                                            name):
    path = tmp_path / name
    if name.endswith(".bin"):
        path.write_bytes(b"2 2\nbroken " + struct.pack("<2f", 1.0, math.nan)
                         + b"\nunused " + struct.pack("<2f", 1.0, 2.0))
    else:
        path.write_text("broken inf 1.0\nunused 1.0 2.0\n", encoding="utf-8")
    assert main(["crossval", "--dataset", str(dataset_config), "--classifier", "hicnnlstm",
                 "--folds", "2", "--embeddings", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "'broken'" in err and "not finite" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()
