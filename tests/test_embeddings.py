import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import save_word2vec_text
import sentihier
from sentihier.classifiers import embedding_matrix_for
from sentihier.embeddings import (
    EmbeddingTable,
    fnv1a_64,
    load_vectors,
    load_word2vec_binary,
    load_word2vec_text,
    random_table,
)
from sentihier.errors import ParseError
from sentihier.textprep import TokenizedDocument, Vocabulary


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

    def test_full_load_peaks_below_one_and_a_half_file_sizes(self, tmp_path):
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
        # One file-sized matrix plus tokens, views and a block, not the bytes and a copy.
        assert peak < 1.5 * size
        assert table.lookup("w1999").tobytes() == values[1999].tobytes()

    def test_load_twice_identical(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("a", [0.25, -1.5]), ("b", [3.125, 9.0])])
        t1 = load_word2vec_binary(path)
        t2 = load_word2vec_binary(path)
        for tok in ("a", "b"):
            np.testing.assert_array_equal(t1.lookup(tok), t2.lookup(tok))


def write_text(path, entries):
    path.write_text("".join(f"{token} {' '.join(repr(float(v)) for v in vec)}\n"
                            for token, vec in entries), encoding="utf-8")


LOADERS = {"bin": (load_word2vec_binary, write_binary), "txt": (load_word2vec_text, write_text)}


def doc(*tokens):
    return TokenizedDocument(sentences=(tokens,))


class TestWantedRows:
    """A loader given a wanted set keeps only those rows, but parses every record."""

    @pytest.mark.parametrize("kind", LOADERS)
    def test_filtered_table_gives_the_full_tables_matrix(self, tmp_path, kind):
        load, write = LOADERS[kind]
        # "great" is present only capitalised, "bug" in both forms, "fix" twice.
        names = ["noise", "Great", "bug", "Bug", "fix", "other", "fix", "tail"]
        entries = list(zip(names, np.random.default_rng(4).normal(size=(8, 3)).astype(np.float32)))
        path = tmp_path / f"vec.{kind}"
        write(path, entries)
        tokens = ("great", "bug", "fix", "missing")
        full = load(path, set(names))
        kept = load_vectors(path, [doc(*tokens)])
        assert len(full) == 7 and len(kept) == 4  # Great, bug, Bug, fix
        assert "noise" not in kept and "tail" not in kept
        vocab = Vocabulary.of(("<unk>", *tokens))
        want = embedding_matrix_for(vocab, full, 3, embedding_seed=0)
        got = embedding_matrix_for(vocab, kept, 3, embedding_seed=0)
        assert got.tobytes() == want.tobytes()
        assert np.float64(entries[6][1][0]) == got[3, 0]  # the last "fix" wins

    @pytest.mark.parametrize("name, dtype", [("vec.bin", np.float32), ("vec.bin.txt", np.float64)])
    def test_the_suffix_picks_the_loader(self, tmp_path, name, dtype):
        (write_binary if name.endswith(".bin") else write_text)(tmp_path / name, [("bug", [1, 2])])
        assert load_vectors(tmp_path / name, [doc("bug")]).lookup("bug").dtype == dtype

    def test_binary_records_after_the_last_wanted_one_are_parsed(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("hi", [1, 2, 3]), ("yo", [4, 5, 6])], header=(3, 3))
        data = path.read_bytes()
        with pytest.raises(ParseError) as info:
            load_word2vec_binary(path, {"hi"})
        assert str(info.value) == f"{path}: truncated token at byte offset {len(data)}"
        path.write_bytes(data[:-2])
        with pytest.raises(ParseError) as info:
            load_word2vec_binary(path, {"hi"})
        start = len(b"3 3\n") + len(b"hi ") + 12 + len(b"\nyo ")
        assert str(info.value) == f"{path}: truncated record for 'yo' at byte offset {start}"

    def test_text_lines_after_the_last_wanted_one_are_parsed(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hi 1 0\nyo 0 x\n")
        with pytest.raises(ParseError, match="non-numeric value at line 2"):
            load_word2vec_text(path, {"hi"})
        path.write_text("hi 1 0\nyo 0\n")
        with pytest.raises(ParseError, match="inconsistent dimension at line 2"):
            load_word2vec_text(path, {"hi"})

    @pytest.mark.parametrize("header", [(10**9, 3), (2, 2**31 + 3)], ids=["count", "dimension"])
    @pytest.mark.parametrize("wanted", [None, {"hi"}], ids=["all", "wanted"])
    def test_inflated_header_allocates_by_the_file_size(self, tmp_path, header, wanted):
        path = tmp_path / "vec.bin"
        write_binary(path, [("hi", [1, 2, 3]), ("yo", [4, 5, 6])], header=header)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="truncated"):
                load_word2vec_binary(path, wanted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_kept_vector_that_is_not_finite_is_a_parse_error(self, tmp_path, kind, bad):
        load, write = LOADERS[kind]
        path = tmp_path / f"vec.{kind}"
        write(path, [("ok", [1.0, 2.0]), ("bad", [0.5, bad])])
        with pytest.raises(ParseError) as info:
            load(path, {"ok", "bad"})
        assert str(path) in str(info.value) and "'bad'" in str(info.value)
        assert "not finite" in str(info.value)
        assert len(load(path, {"ok"})) == 1  # only the kept rows are checked

    def test_a_replaced_non_finite_record_is_not_kept(self, tmp_path):
        path = tmp_path / "vec.bin"
        write_binary(path, [("w", [np.nan, 1.0]), ("w", [2.0, 1.0])])
        assert load_word2vec_binary(path, {"w"}).lookup("w").tolist() == [2.0, 1.0]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_loading_a_few_rows_of_a_large_file_stays_small(self, tmp_path):
        rows, dim = 100_000, 50
        record = np.dtype([("token", "S7"), ("values", "<f4", dim), ("newline", "S1")])
        records = np.zeros(rows, dtype=record)
        records["token"] = [b"w%05d " % i for i in range(rows)]
        records["values"] = 0.5
        records["newline"] = b"\n"
        path = tmp_path / "large.bin"
        with open(path, "wb") as fh:
            fh.write(b"%d %d\n" % (rows, dim))
            records.tofile(fh)
        del records
        # The child's peak RSS, from VmHWM: its ru_maxrss would start at the
        # peak of this process, which a spawned child inherits on Linux.
        script = (
            "import sys\n"
            "from sentihier.embeddings import load_word2vec_binary\n"
            "def peak_kb():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            "before = peak_kb()\n"
            "table = load_word2vec_binary(sys.argv[1], {'w00007', 'w99999', 'x'})\n"
            "assert len(table) == 2\n"
            "print(peak_kb() - before)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(sentihier.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        grown_kb = int(proc.stdout)
        # The file is 20.8 MB: holding it, or a dict entry per row, exceeds this.
        assert grown_kb < 8 * 1024, f"peak RSS grew {grown_kb} kB"


class TestTextLoader:
    def test_plain(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n")
        table = load_word2vec_text(path, {"a", "b"})
        assert table.dim == 2 and len(table) == 2

    def test_header_autodetect(self, tmp_path):
        p1 = tmp_path / "v1.txt"
        p2 = tmp_path / "v2.txt"
        p1.write_text("a 1 0\nb 0 1\n")
        p2.write_text("2 2\na 1 0\nb 0 1\n")
        t1, t2 = load_word2vec_text(p1, {"a", "b"}), load_word2vec_text(p2, {"a", "b"})
        assert len(t1) == len(t2) == 2
        np.testing.assert_array_equal(t1.lookup("a"), t2.lookup("a"))
        p1.write_text("-2 1\nb 0\n")  # header counts carry no sign
        assert "-2" in load_word2vec_text(p1, {"-2", "b"})

    def test_utf8_byte_order_mark_is_read_past(self, tmp_path):
        # The mark would otherwise hide the header, which then reads as a
        # one-value vector.
        path = tmp_path / "vec.txt"
        path.write_bytes("\ufeff2 3\na 1 0 0\nb 0 1 0\n".encode("utf-8"))
        table = load_word2vec_text(path, {"a", "b"})
        assert table.dim == 3 and len(table) == 2
        path.write_bytes("\ufeffa 1 0\n".encode("utf-8"))  # no header: the first token
        np.testing.assert_array_equal(load_word2vec_text(path, {"a"}).lookup("a"), [1.0, 0.0])

    def test_inconsistent_dim_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_word2vec_text(path, {"a", "b"})

    def test_binary_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = [(f"tok{i}", rng.normal(size=5).astype(np.float32)) for i in range(6)]
        bin_path = tmp_path / "vec.bin"
        write_binary(bin_path, entries)
        table = load_word2vec_binary(bin_path)
        txt_path = tmp_path / "vec.txt"
        save_word2vec_text({tok: table.lookup(tok) for tok, _ in entries}, txt_path)
        reloaded = load_word2vec_text(txt_path, {tok for tok, _ in entries})
        for tok, _ in entries:
            np.testing.assert_allclose(reloaded.lookup(tok), table.lookup(tok), rtol=1e-6)

    def test_each_kept_row_is_held_once(self, tmp_path):
        # The rows go straight into one float64 matrix, so loading a file
        # with every token wanted peaks near that matrix alone.
        rows, dim = 4000, 300
        rng = np.random.default_rng(8)
        path = tmp_path / "vec.txt"
        tokens = [f"w{i}" for i in range(rows)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{rows} {dim}\n")
            for token, vec in zip(tokens, rng.normal(size=(rows, dim))):
                fh.write(f"{token} {' '.join(map(repr, vec.tolist()))}\n")
        wanted = set(tokens)
        tracemalloc.start()
        try:
            table = load_word2vec_text(path, wanted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == rows
        assert peak < 1.25 * rows * dim * 8, f"peak {peak} bytes"


class TestLookup:
    def test_fallback_chain(self):
        table = EmbeddingTable(["Good"], np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(table.lookup("good"), [1.0, 2.0])
        np.testing.assert_array_equal(table.lookup("GOOD".lower()), [1.0, 2.0])

    def test_oov_is_zero(self):
        table = EmbeddingTable(["x"], np.zeros((1, 3)))
        np.testing.assert_array_equal(table.lookup("missing"), np.zeros(3))

    def test_always_returns_dim_length(self):
        table = EmbeddingTable(["x"], np.ones((1, 4)))
        for tok in ("x", "y", "", "<url>"):
            assert table.lookup(tok).shape == (4,)


class TestRandomTable:
    def test_token_order_independent(self):
        m1 = random_table(["a", "b", "c"], 8, seed=5)
        m2 = random_table(["c", "a", "b"], 8, seed=5)
        np.testing.assert_array_equal(m1, m2[[1, 2, 0]])

    def test_range_and_seed_sensitivity(self):
        v = random_table(["a"], 100, seed=5)[0]
        assert np.all((v >= -0.25) & (v < 0.25))
        assert not np.array_equal(v, random_table(["a"], 100, seed=6)[0])

    def test_seeds_that_agree_in_their_low_64_bits_differ(self):
        s = 2**70 + 5
        assert not np.array_equal(random_table(["a"], 8, s), random_table(["a"], 8, s + 2**64))

    @given(tokens=st.lists(st.text(max_size=6), min_size=1, max_size=6, unique=True),
           dim=st.integers(1, 9), seed=st.integers(0, 2**70), data=st.data())
    def test_a_vector_depends_only_on_the_seed_and_the_token(self, tokens, dim, seed, data):
        order = data.draw(st.permutations(tokens))
        together, shuffled = random_table(tokens, dim, seed), random_table(order, dim, seed)
        assert together.shape == (len(tokens), dim) and together.dtype == np.float64
        other_seed = random_table(tokens[:1], dim, seed + 1)[0]
        for i, token in enumerate(tokens):
            vec = random_table([token], dim, seed)[0]
            assert vec.tobytes() == together[i].tobytes()
            assert vec.tobytes() == shuffled[order.index(token)].tobytes()
            assert np.all((vec >= -0.25) & (vec < 0.25))
        assert not np.array_equal(together[0], other_seed)


def reference_vector(token: str, dim: int, seed: int) -> list:
    """random_table's row for `token`, in Python integers: the first `dim`
    outputs of splitmix64 seeded with s ^ FNV-1a(token), scaled."""
    mask = 2**64 - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    s = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    start = s ^ fnv1a_reference(token.encode("utf-8"))
    return [(mix((start + j * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0**-54 - 0.25
            for j in range(1, dim + 1)]


class TestRandomTablePinned:
    def test_equals_a_reference_in_python_integers(self):
        tokens = ["crash", "", "build", "naïve", "<url>"] + [f"w{i}" for i in range(200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on uint64 scalar overflow
            for seed in (0, 42, 2**64 - 1, 2**70 + 3):
                matrix = random_table(tokens, 70, seed)  # more rows than one block
                for token, row in zip(tokens, matrix):
                    assert row.tolist() == reference_vector(token, 70, seed)

    @given(tokens=st.lists(st.text(max_size=6).filter(lambda t: t != "<unk>"), max_size=8,
                           unique=True),
           dim=st.integers(1, 9), seed=st.integers(0, 2**70))
    def test_random_embedding_matrix_rows_are_the_reference(self, tokens, dim, seed):
        # The UNK row is zero; every other row is its token's hashed vector.
        vocab = Vocabulary.of(["<unk>", *tokens])
        matrix = embedding_matrix_for(vocab, None, dim, embedding_seed=seed)
        assert matrix.shape == (len(vocab), dim) and matrix.dtype == np.float64
        assert matrix.flags.c_contiguous
        assert matrix[0].tolist() == [0.0] * dim
        for i, token in enumerate(tokens, start=1):
            assert matrix[i].tolist() == reference_vector(token, dim, seed)


def table_from(source, tmp_path):
    """A table of the tokens "a", "b" and "c" from `source`: bin or txt."""
    load, write = LOADERS[source]
    write(tmp_path / "vec", [(t, [float(i), -1.5, 0.25]) for i, t in enumerate("abc")])
    return load(tmp_path / "vec", set("abc"))


@pytest.mark.parametrize("source", ["bin", "txt"])
def test_every_source_gives_one_view_of_one_matrix_per_token(tmp_path, source):
    table = table_from(source, tmp_path)
    a, b = table.lookup("a"), table.lookup("b")
    assert a is table.lookup("a")  # the tracer counts rows by id
    assert a.base is b.base and np.shares_memory(a.base, b)
    assert a.shape == (3,) and len(table) == 3 and "c" in table


def fnv1a_reference(data: bytes) -> int:
    """64-bit FNV-1a in Python integers, one byte per step."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestFnv1a64:
    def test_standard_vectors(self):
        hashes = fnv1a_64(["", "a", "foobar"])
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
        assert fnv1a_reference(b"foobar") == 0x85944171F73967E8

    def test_no_tokens(self):
        assert fnv1a_64([]).shape == (0,)

    @given(st.lists(st.text(max_size=12) | st.sampled_from(["x" * 300, "naïve", "日本語"]),
                    max_size=20))
    def test_every_token_matches_the_reference(self, tokens):
        # Empty, non-ASCII and long tokens, and repeats, in any order.
        assert fnv1a_64(tokens).tolist() == [fnv1a_reference(t.encode("utf-8"))
                                             for t in tokens]
