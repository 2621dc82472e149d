import csv
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance.formats import (
    SNAPSHOT_MAGIC,
    format_cell,
    read_pgm,
    read_snapshot,
    write_csv,
    write_pgm,
    write_snapshot,
)


class TestSnapshot:
    def test_grid_round_trip(self, tmp_path):
        path = tmp_path / "state.bin"
        values = np.random.default_rng(0).standard_normal((3, 5))
        write_snapshot(path, values, 17)
        back, step = read_snapshot(path)
        assert step == 17
        assert back.shape == (3, 5)
        assert back.tobytes() == values.tobytes()

    def test_vector_stored_as_single_row(self, tmp_path):
        path = tmp_path / "vec.bin"
        values = np.arange(4.0)
        write_snapshot(path, values, 0)
        back, step = read_snapshot(path)
        assert back.shape == (1, 4)
        assert np.array_equal(back[0], values)

    def test_header_is_byte_exact(self, tmp_path):
        path = tmp_path / "state.bin"
        write_snapshot(path, np.zeros((2, 3)), 9)
        blob = path.read_bytes()
        assert len(blob) == 16 + 2 * 3 * 8
        magic, rows, cols, step = struct.unpack_from("<4sIII", blob)
        assert (magic, rows, cols, step) == (SNAPSHOT_MAGIC, 2, 3, 9)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 0) + b"\x00" * 8)
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<4sIII", SNAPSHOT_MAGIC, 2, 2, 0) + b"\x00" * 8)
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path / "x.bin", np.zeros((2, 2, 2)), 0)
        with pytest.raises(ValueError):
            write_snapshot(tmp_path / "x.bin", np.zeros(2), -1)


class TestPgm:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mask.pgm"
        gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(path, gray)
        assert np.array_equal(read_pgm(path), gray)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_comments_are_skipped(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 64, 128, 255]))
        grid = read_pgm(path)
        assert grid.tolist() == [[0, 64], [128, 255]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="payload"):
            read_pgm(path)

    def test_bad_dims(self, tmp_path):
        path = tmp_path / "zero.pgm"
        path.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(ValueError, match="dimensions"):
            read_pgm(path)

    def test_write_range_check(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.full((2, 2), 300))


class TestCsv:
    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "table.csv"
        values = [0.1, 1.0 / 3.0, 4.035829765375676e-05, -2.5]
        write_csv(path, ["index", "value"], list(enumerate(values)))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "value"]
        for (index, text), original in zip(rows[1:], values):
            assert float(text) == original

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old\n")

        def rows():
            yield [1, 2.0]
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            write_csv(path, ["a", "b"], rows())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_format_cell(self):
        assert format_cell(True) == "true"
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(7) == "7"
        assert format_cell("name") == "name"

    def test_native_rows_write_the_per_cell_bytes(self, tmp_path):
        # rows of exact int/float/str go to csv.writer untouched; the file must
        # be byte-equal to one written through format_cell for every cell
        def per_cell_write_csv(path, header, rows):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(list(header))
                for row in rows:
                    writer.writerow([format_cell(cell) for cell in row])

        floats = [0.1, -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -2.5e-17, 1.0 / 3.0]
        strings = ["plain", "a,b", 'say "hi"', "two\nlines", ""]
        rows = [
            [0, 0.1, "plain"],
            [True, False, 1],
            [np.bool_(True), np.bool_(False), 2.0],
            [np.float64(0.25), np.float64(-0.0), np.float64(math.nan)],
            [np.int64(7), np.int64(-3), 4],
            [1 << 70, -5, 3.0],
            floats,
            strings,
            [np.float64(1e300), 5e-324, "a,b"],
            [np.int64(1), 2, True],
            list(enumerate(floats))[3],
            [],
        ]
        expected, actual = tmp_path / "per_cell.csv", tmp_path / "table.csv"
        per_cell_write_csv(expected, ["x", "y", "z"], rows)
        write_csv(actual, ["x", "y", "z"], rows)
        assert actual.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# fuzzing the readers: any byte string is read back exactly or rejected


@st.composite
def truncated(draw, blob):
    """The blob, or one time in four one of its prefixes."""
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.sampled_from(range(4))) == 3 else blob


@st.composite
def snapshot_blobs(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    magic = draw(st.sampled_from([SNAPSHOT_MAGIC, b"LSN0"]))
    header = struct.pack("<4sIII", magic, rows, cols, draw(st.integers(0, 2**32 - 1)))
    return draw(truncated(header + draw(st.binary(min_size=rows * cols * 8, max_size=rows * cols * 8 + 1))))


@st.composite
def pgm_blobs(draw):
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    gap = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note\n", b" #\r", b" ", b"\n", b"#x"])
    magic, maxval = draw(st.sampled_from([b"P5"] * 3 + [b"P2"])), draw(st.sampled_from([b"255"] * 3 + [b"256", b"x"]))
    tokens = [magic, b"%d" % width, b"%d" % height, maxval]
    header = b"".join(token + draw(gap) for token in tokens)
    return draw(truncated(header + draw(st.binary(min_size=width * height, max_size=width * height + 1))))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(blob=st.binary(max_size=40) | snapshot_blobs())
def test_any_bytes_read_as_a_snapshot_round_trip_or_raise(scratch, blob):
    (scratch / "in.bin").write_bytes(blob)
    try:
        values, step = read_snapshot(scratch / "in.bin")
    except ValueError:
        return
    write_snapshot(scratch / "out.bin", values, step)
    assert (scratch / "out.bin").read_bytes() == blob


@settings(max_examples=100, deadline=None, derandomize=True)
@given(blob=st.binary(max_size=40) | pgm_blobs())
def test_any_bytes_read_as_a_pgm_round_trip_or_raise(scratch, blob):
    (scratch / "in.pgm").write_bytes(blob)
    try:
        gray = read_pgm(scratch / "in.pgm")
    except ValueError:
        return
    write_pgm(scratch / "out.pgm", gray)
    assert np.array_equal(read_pgm(scratch / "out.pgm"), gray)
    assert gray.dtype == np.uint8 and blob.endswith(gray.tobytes())
