import struct
import tracemalloc

import numpy as np
import pytest

from conftest import save_word2vec_text
from sentihier.embeddings import (
    EmbeddingTable,
    fnv1a_64,
    load_word2vec_binary,
    load_word2vec_text,
    random_table,
)
from sentihier.errors import ParseError


def write_binary(path, entries, header=None):
    dim = len(entries[0][1])
    with open(path, "wb") as fh:
        v, d = header or (len(entries), dim)
        fh.write(f"{v} {d}\n".encode())
        for token, vec in entries:
            fh.write(token.encode() + b" ")
            fh.write(struct.pack(f"<{dim}f", *vec))
            fh.write(b"\n")


class TestBinaryLoader:
    def test_two_records(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("hi", [1, 2, 3]), ("yo", [4, 5, 6])])
        table = load_word2vec_binary(path)
        assert len(table) == 2 and table.dim == 3
        np.testing.assert_allclose(table.lookup("hi"), [1, 2, 3])
        np.testing.assert_allclose(table.lookup("yo"), [4, 5, 6])

    def test_truncated_record_reports_offset(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("hi", [1, 2, 3]), ("yo", [4, 5, 6])])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ParseError, match="byte offset"):
            load_word2vec_binary(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(b"not a header\ngarbage")
        with pytest.raises(ParseError, match="header"):
            load_word2vec_binary(path)

    def test_nonpositive_counts(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(b"0 300\n")
        with pytest.raises(ParseError, match="non-positive"):
            load_word2vec_binary(path)

    def test_values_equal_the_float32_records_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(4, 6)).astype(np.float32)
        values[0, :3] = [np.float32(1e-45), -0.0, np.finfo(np.float32).max]
        path = tmp_path / "vec.bin"
        write_binary(path, [(f"w{i}", list(row)) for i, row in enumerate(values)])
        table = load_word2vec_binary(path)
        for i, row in enumerate(values):
            vec = table.lookup(f"w{i}")
            assert vec is table.lookup(f"w{i}")  # one view per row, made once
            old = np.frombuffer(row.astype("<f4").tobytes(), dtype="<f4").astype(np.float64)
            assert vec.astype(np.float64).tobytes() == old.tobytes()

    def test_truncation_errors_name_the_record_and_offset(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("hi", [1, 2, 3]), ("yo", [4, 5, 6])], header=(3, 3))
        data = path.read_bytes()
        with pytest.raises(ParseError) as info:
            load_word2vec_binary(path)
        assert str(info.value) == f"{path}: truncated token at byte offset {len(data)}"
        path.write_bytes(data[:-2])
        with pytest.raises(ParseError) as info:
            load_word2vec_binary(path)
        start = len(b"3 3\n") + len(b"hi ") + 12 + len(b"\nyo ")
        assert str(info.value) == f"{path}: truncated record for 'yo' at byte offset {start}"

    def test_file_bytes_and_matrix_share_one_buffer(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(2000, 300)).astype(np.float32)
        path = tmp_path / "vec.bin"
        write_binary(path, [(f"w{i}", list(row)) for i, row in enumerate(values)])
        size = path.stat().st_size
        tracemalloc.start()
        try:
            table = load_word2vec_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One file-sized buffer plus tokens and views, not the bytes and a copy.
        assert peak < 1.5 * size
        assert table.lookup("w1999").tobytes() == values[1999].tobytes()

    def test_load_twice_identical(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("a", [0.25, -1.5]), ("b", [3.125, 9.0])])
        t1 = load_word2vec_binary(path)
        t2 = load_word2vec_binary(path)
        for tok in ("a", "b"):
            np.testing.assert_array_equal(t1.lookup(tok), t2.lookup(tok))


class TestTextLoader:
    def test_plain(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n")
        table = load_word2vec_text(path)
        assert table.dim == 2 and len(table) == 2

    def test_header_autodetect(self, tmp_path):
        p1 = tmp_path / "v1.txt"
        p2 = tmp_path / "v2.txt"
        p1.write_text("a 1 0\nb 0 1\n")
        p2.write_text("2 2\na 1 0\nb 0 1\n")
        t1, t2 = load_word2vec_text(p1), load_word2vec_text(p2)
        assert len(t1) == len(t2) == 2
        np.testing.assert_array_equal(t1.lookup("a"), t2.lookup("a"))

    def test_inconsistent_dim_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_word2vec_text(path)

    def test_binary_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = [(f"tok{i}", rng.normal(size=5).astype(np.float32)) for i in range(6)]
        bin_path = tmp_path / "vec.bin"
        write_binary(bin_path, entries)
        table = load_word2vec_binary(bin_path)
        txt_path = tmp_path / "vec.txt"
        save_word2vec_text({tok: table.lookup(tok) for tok, _ in entries}, txt_path)
        reloaded = load_word2vec_text(txt_path)
        for tok, _ in entries:
            np.testing.assert_allclose(reloaded.lookup(tok), table.lookup(tok), rtol=1e-6)


class TestLookup:
    def test_fallback_chain(self):
        table = EmbeddingTable(2, {"Good": np.array([1.0, 2.0])})
        np.testing.assert_array_equal(table.lookup("good"), [1.0, 2.0])
        np.testing.assert_array_equal(table.lookup("GOOD".lower()), [1.0, 2.0])

    def test_oov_is_zero(self):
        table = EmbeddingTable(3, {"x": np.zeros(3)})
        np.testing.assert_array_equal(table.lookup("missing"), np.zeros(3))

    def test_always_returns_dim_length(self):
        table = EmbeddingTable(4, {"x": np.ones(4)})
        for tok in ("x", "y", "", "<url>"):
            assert table.lookup(tok).shape == (4,)


class TestRandomTable:
    def test_token_order_independent(self):
        t1 = random_table(["a", "b", "c"], 8, seed=5)
        t2 = random_table(["c", "a", "b"], 8, seed=5)
        for tok in "abc":
            np.testing.assert_array_equal(t1.lookup(tok), t2.lookup(tok))

    def test_range_and_seed_sensitivity(self):
        t1 = random_table(["a"], 100, seed=5)
        t2 = random_table(["a"], 100, seed=6)
        v = t1.lookup("a")
        assert np.all((v >= -0.25) & (v <= 0.25))
        assert not np.array_equal(v, t2.lookup("a"))


class TestRandomTablePinned:
    def test_known_vector(self):
        # Pinned: the vector depends only on (seed, FNV-1a of the token).
        vec = random_table(["crash"], 4, seed=42).lookup("crash")
        assert vec.tolist() == [-0.09578634364372035, -0.04358977347325799,
                                0.0181766285438712, -0.18597202221142733]


class TestFnv1a64:
    def test_standard_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8
