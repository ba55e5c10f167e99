import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_float_rows, reference_parse_cloud, reference_write_cloud

from curbmap import (ChannelMissingError, CropBox, ParseError, PointCloud, crop,
                     parse_cloud, write_cloud)
from curbmap import cloud as cloud_module
from curbmap.cloud import _float_text, cloud_chunks

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def make_cloud(points, **channels):
    return PointCloud(np.asarray(points, dtype=float), {k: np.asarray(v, dtype=float)
                                                        for k, v in channels.items()})


class TestParseXyz:
    def test_two_points(self):
        cloud, summary = parse_cloud(b"0 0 0\n1 2 3\n", "xyz")
        assert len(cloud) == 2
        assert np.array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])
        assert summary.rejected == 0

    def test_comments_and_blanks_skipped(self):
        cloud, _ = parse_cloud("# header\n\n1 2 3\n", "xyz")
        assert len(cloud) == 1

    def test_nan_row_dropped_with_summary(self):
        cloud, summary = parse_cloud("0 0 0\n1 nan 3\n2 2 2\n", "xyz")
        assert len(cloud) == 2
        assert summary.rejected == 1
        assert summary.rejected_lines == [2]

    def test_extra_columns_become_channels(self):
        cloud, _ = parse_cloud("1 2 3 0.5\n4 5 6 0.7\n", "xyz")
        assert np.allclose(cloud.channels["extra0"], [0.5, 0.7])

    def test_short_row_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_cloud("1 2 3\n4 5\n", "xyz")

    def test_first_bad_row_in_file_order_raises(self):
        # a bad token on line 2 comes before the short row on line 3
        with pytest.raises(ParseError) as err:
            parse_cloud("1 2 3\n4 x 6\n7 8\n", "xyz")
        assert err.value.line == 2
        assert str(err.value) == "line 2: could not convert string to float: 'x'"


PCD_3PT = """VERSION .7
FIELDS x y z intensity
SIZE 4 4 4 4
TYPE F F F F
COUNT 1 1 1 1
WIDTH 3
HEIGHT 1
VIEWPOINT 0 0 0 1 0 0 0
POINTS 3
DATA ascii
0 0 0 1.5
1 0 0 2.5
0 1 0 3.5
"""


class TestParsePcd:
    def test_fields_with_intensity_channel(self):
        cloud, summary = parse_cloud(PCD_3PT, "pcd")
        assert len(cloud) == 3
        assert np.allclose(cloud.channels["intensity"], [1.5, 2.5, 3.5])
        assert summary.total_rows == 3

    def test_count_mismatch_is_parse_error(self):
        bad = PCD_3PT.replace("POINTS 3", "POINTS 4")
        with pytest.raises(ParseError):
            parse_cloud(bad, "pcd")

    def test_count_mismatch_names_data_line(self):
        bad = PCD_3PT.replace("POINTS 3", "POINTS 4").replace("WIDTH 3", "WIDTH 4")
        with pytest.raises(ParseError) as err:
            parse_cloud(bad, "pcd")
        assert err.value.line == 10
        assert "POINTS declares 4 rows but data has 3" in str(err.value)

    @pytest.mark.parametrize("key, line, good, bad", [
        ("SIZE", 3, "SIZE 4 4 4 4", "SIZE 4"),
        ("TYPE", 4, "TYPE F F F F", "TYPE F F F F F"),
        ("COUNT", 5, "COUNT 1 1 1 1", "COUNT 1"),
    ])
    def test_field_list_length_mismatch_names_header_line(self, key, line, good, bad):
        with pytest.raises(ParseError) as err:
            parse_cloud(PCD_3PT.replace(good, bad), "pcd")
        assert err.value.line == line
        assert key in str(err.value)

    @pytest.mark.parametrize("good, bad, line, message", [
        ("POINTS 3", "POINTS x", 9, "POINTS must be an integer"),
        ("WIDTH 3", "WIDTH q", 6, "WIDTH must be an integer"),
        ("HEIGHT 1", "HEIGHT", 7, "HEIGHT must be an integer"),
        ("FIELDS x y z", "FIELDS y x z", 2, "FIELDS must start with x y z"),
        ("COUNT 1 1 1 1", "COUNT 1 1 1 2", 5, "multi-count fields are not supported"),
    ])
    def test_header_error_names_keyword_line(self, good, bad, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_cloud(PCD_3PT.replace(good, bad), "pcd")
        assert err.value.line == line

    def test_width_times_height_must_equal_points(self):
        with pytest.raises(ParseError) as err:
            parse_cloud(PCD_3PT.replace("WIDTH 3", "WIDTH 7"), "pcd")
        assert err.value.line == 9
        assert "WIDTH 7 x HEIGHT 1" in str(err.value)

    def test_bad_header_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_cloud("VERSION .7\nBOGUS 1\n", "pcd")
        assert err.value.line == 2

    def test_tab_separated_header(self):
        text = PCD_3PT.replace("FIELDS ", "FIELDS\t").replace("DATA ascii", "DATA\tascii")
        assert "FIELDS\tx y z" in text and "DATA\tascii" in text
        cloud, summary = parse_cloud(text, "pcd")
        expected, _ = parse_cloud(PCD_3PT, "pcd")
        assert np.array_equal(cloud.points, expected.points)
        assert np.array_equal(cloud.channels["intensity"], expected.channels["intensity"])
        assert summary.total_rows == 3

    # a second DATA line would be read as data, so DATA is not listed
    @pytest.mark.parametrize("key", ["VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
                                     "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS"])
    def test_repeated_header_keyword_names_second_line(self, key):
        lines = PCD_3PT.splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if line.startswith(key + " "))
        source = "".join(lines[:at + 1] + [lines[at].lower()] + lines[at + 1:])
        with pytest.raises(ParseError, match=f"repeated header keyword '{key}'") as err:
            parse_cloud(source, "pcd")
        assert err.value.line == at + 2

    def test_binary_data_rejected(self):
        bad = PCD_3PT.replace("DATA ascii", "DATA binary")
        with pytest.raises(ParseError):
            parse_cloud(bad, "pcd")

    def test_nonfinite_point_dropped(self):
        bad = PCD_3PT.replace("1 0 0 2.5", "inf 0 0 2.5")
        cloud, summary = parse_cloud(bad, "pcd")
        assert len(cloud) == 2
        assert summary.rejected == 1


class TestWriteCloud:
    def test_empty_cloud_valid_header(self):
        data = write_cloud(make_cloud(np.zeros((0, 3))), "pcd")
        cloud, _ = parse_cloud(data, "pcd")
        assert len(cloud) == 0

    def test_channel_in_pcd_fields(self):
        data = write_cloud(make_cloud([[1, 2, 3]], stick=[0.25]), "pcd")
        assert b"FIELDS x y z stick" in data
        cloud, _ = parse_cloud(data, "pcd")
        assert cloud.channels["stick"][0] == 0.25

    @pytest.mark.parametrize("fmt", ["xyz", "pcd"])
    def test_random_roundtrip_exact(self, fmt, rng):
        points = rng.normal(scale=100.0, size=(100, 3))
        cloud = make_cloud(points, intensity=rng.random(100))
        back, summary = parse_cloud(write_cloud(cloud, fmt), fmt)
        assert summary.rejected == 0
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.channels[list(back.channels)[0]],
                              cloud.channels["intensity"])

    @given(st.lists(st.tuples(finite, finite, finite), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, rows):
        cloud = make_cloud(np.array(rows, dtype=float).reshape(-1, 3))
        back, _ = parse_cloud(write_cloud(cloud, "xyz"), "xyz")
        assert np.array_equal(back.points, cloud.points)

    @pytest.mark.parametrize("name", ["", "a b", "tab\tname", " lead"])
    def test_unreadable_channel_name_rejected(self, name):
        with pytest.raises(ValueError, match="whitespace"):
            write_cloud(make_cloud([[1, 2, 3]], **{name: [0.5]}), "pcd")

    @pytest.mark.parametrize("name", ["x", "y", "z"])
    def test_coordinate_channel_name_rejected(self, name):
        # the reader refuses FIELDS x y z plus a coordinate name again
        cloud = make_cloud([[1, 2, 3]], **{name: [0.5]})
        with pytest.raises(ValueError, match="coordinate"):
            next(cloud_chunks(cloud, "pcd"))
        assert parse_cloud(write_cloud(cloud, "xyz"), "xyz")[0].channels["extra0"][0] == 0.5

    def test_peak_memory_near_output_size(self, rng):
        # about 11 MB of text in ~120 chunks: the written text is held once,
        # plus one chunk's working arrays
        n = 60_000
        cloud = make_cloud(rng.normal(scale=5.0, size=(n, 3)),
                           **{f"c{k}": rng.random(n) for k in range(7)})
        tracemalloc.start()
        try:
            data = write_cloud(cloud, "pcd")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(data)


# Values whose shortest repr is easy to get wrong: signed zero, the
# smallest subnormal, the switch points of repr's exponent notation and
# the largest finite magnitudes.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, 1e15, 1.7e308, -1.7e308, 0.1]
coordinate = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))
channel_value = st.one_of(st.floats(), st.sampled_from(SPECIAL + [np.nan, np.inf, -np.inf]))
chunk_rows = st.integers(1, 5)
chunk_chars = st.integers(1, 9)


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 25))
    # "z" alone would name a coordinate, which the PCD writer refuses
    names = draw(st.lists(st.text("abz_09", min_size=1, max_size=4).filter(lambda s: s != "z"),
                          max_size=3, unique=True))
    points = draw(st.lists(coordinate, min_size=3 * n, max_size=3 * n))
    channels = {name: draw(st.lists(channel_value, min_size=n, max_size=n)) for name in names}
    return make_cloud(np.array(points, dtype=float).reshape(n, 3), **channels)


GOOD_TOKENS = ["0", "-0", "+3", ".5", "1_0", "1e5", "1E-3", "-2.25", "1e16", "5e-324"]
NONFINITE_TOKENS = ["nan", "-inf", "inf", "NaN", "Infinity", "-nan"]
BAD_TOKENS = ["x", "1..2", "0x10", "_1", "1e", "--1", "#"]
good_token = st.one_of(st.sampled_from(GOOD_TOKENS),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
separator = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def data_line(draw, width):
    """One text line: mostly well-formed rows, sometimes a row with a defect."""
    kind = draw(st.sampled_from(["row"] * 6 + ["extra", "short", "nonfinite", "bad",
                                                "comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["# comment", "  #x 1 2 3"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    size = width
    if kind == "extra":
        size = width + draw(st.integers(1, 2))
    elif kind == "short":
        size = draw(st.integers(1, width - 1))
    tokens = draw(st.lists(good_token, min_size=size, max_size=size))
    if kind in ("nonfinite", "bad"):
        pool = NONFINITE_TOKENS if kind == "nonfinite" else BAD_TOKENS
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(pool))
    seps = draw(st.lists(separator, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return draw(st.sampled_from(["", " ", "\t"])) + "".join(
        t + s for t, s in zip(tokens, seps))


# Every line break str.splitlines honours, and invalid UTF-8 right before
# a "\n" (bytes sources only): a truncated sequence or a stray byte
# decodes to U+FFFD at the end of its line.
EOLS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
        "\u2028", "\u2029"]
BAD_UTF8_EOLS = [b"\xff\n", b"\xc3\n", b"\xe2\x82\n", b"\x85\n"]


def join_lines(data, lines, as_bytes, bad_utf8=True):
    """lines joined, each ended by a line break, as str or bytes.

    Half the breaks are "\\n" or "\\r\\n", so a source holds several
    places where the reader may cut it; the rest are drawn from EOLS
    (and, for bytes with bad_utf8, BAD_UTF8_EOLS).
    """
    pool = EOLS
    if as_bytes:
        pool = [eol.encode() for eol in EOLS] + (BAD_UTF8_EOLS if bad_utf8 else [])
    eol = st.one_of(st.sampled_from(pool[:2]), st.sampled_from(pool))
    eols = data.draw(st.lists(eol, min_size=len(lines), max_size=len(lines)))
    if as_bytes:  # a lone surrogate becomes bytes that are not UTF-8
        return b"".join(line.encode("utf-8", "surrogatepass") + eol
                        for line, eol in zip(lines, eols))
    return "".join(line + eol for line, eol in zip(lines, eols))


def outcome(parse, source, fmt):
    try:
        cloud, summary = parse(source, fmt)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    channels = [(name, values.tobytes()) for name, values in cloud.channels.items()]
    return ("ok", cloud.points.tobytes(), channels, summary.total_rows,
            summary.rejected_lines)


class TestMatchesReference:
    """The vectorised reader and writer against the row-loop reference."""

    @given(clouds(), st.sampled_from(["xyz", "pcd"]), chunk_rows)
    @settings(max_examples=150, deadline=None)
    def test_write_bytes_equal_reference(self, cloud, fmt, chunk):
        with mock.patch.object(cloud_module, "_CHUNK_ROWS", chunk):
            assert write_cloud(cloud, fmt) == reference_write_cloud(cloud, fmt)

    def test_write_special_values_equal_reference(self):
        values = np.array(SPECIAL + [np.nan, np.inf, -np.inf])
        cloud = make_cloud(np.resize(SPECIAL, (len(values), 3)), c0=values, c1=-values)
        for fmt in ("xyz", "pcd"):
            assert write_cloud(cloud, fmt) == reference_write_cloud(cloud, fmt)

    @given(st.integers(3, 5), st.data(), st.booleans(), chunk_rows, chunk_chars)
    @settings(max_examples=300, deadline=None)
    def test_parse_xyz_matches_reference(self, width, data, as_bytes, chunk, chars):
        lines = data.draw(st.lists(data_line(width), max_size=12))
        source = join_lines(data, lines, as_bytes)
        with (mock.patch.object(cloud_module, "_CHUNK_ROWS", chunk),
              mock.patch.object(cloud_module, "_CHUNK_CHARS", chars)):
            got = outcome(parse_cloud, source, "xyz")
        assert got == outcome(reference_parse_cloud, source, "xyz")

    @given(st.integers(3, 5), st.data(), st.booleans(), chunk_rows, chunk_chars)
    @settings(max_examples=300, deadline=None)
    def test_parse_pcd_matches_reference(self, width, data, as_bytes, chunk, chars):
        lines = data.draw(st.lists(data_line(width), max_size=12))
        fields = ["x", "y", "z"] + [f"c{k}" for k in range(width - 3)]
        rows = sum(1 for line in lines if line.strip())
        entries = [
            ("VERSION", ".7"), ("FIELDS", " ".join(fields)), ("SIZE", " ".join(["8"] * width)),
            ("TYPE", " ".join(["F"] * width)), ("COUNT", " ".join(["1"] * width)),
            ("WIDTH", str(rows)), ("HEIGHT", "1"), ("VIEWPOINT", "0 0 0 1 0 0 0"),
            ("POINTS", str(rows)), ("DATA", "ascii"),
        ]
        seps = data.draw(st.lists(st.sampled_from([" ", "\t", " \t", "\t\t"]),
                                  min_size=len(entries), max_size=len(entries)))
        header = ["# written by hand"] + [key + sep + value
                                          for (key, value), sep in zip(entries, seps)]
        # the reference leaves WIDTH and HEIGHT unread, so U+FFFD goes
        # into data lines only
        source = (join_lines(data, header, as_bytes, bad_utf8=False)
                  + join_lines(data, lines, as_bytes))
        with (mock.patch.object(cloud_module, "_CHUNK_ROWS", chunk),
              mock.patch.object(cloud_module, "_CHUNK_CHARS", chars)):
            got = outcome(parse_cloud, source, "pcd")
        assert got == outcome(reference_parse_cloud, source, "pcd")


def bits_to_double(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


any_double = st.one_of(st.integers(0, 2**64 - 1).map(bits_to_double), st.floats())


def assert_matches_repr(values, ncols):
    """_float_text of values in rows of ncols against one repr per value."""
    values = np.asarray(values, dtype=np.float64)[:len(values) // ncols * ncols]
    got = _float_text(values, ncols).split(b"\n")
    want = reference_float_rows(list(values.reshape(-1, ncols).T)).split(b"\n")
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:3] == []


def float_text_sweep() -> np.ndarray:
    """Doubles where the shortest digits or repr's layout are easy to get wrong.

    Every power of two and of ten a double can hold and both neighbours
    of each: subnormals, 2^53 - 1 and 2^53 + 2, the notation switches at
    1e16 and 1e-4, two- and three-digit exponents. Then the largest
    double, signed zeros, infinities and NaNs of both signs.
    """
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             [1.7976931348623157e308, 0.0, np.inf, np.nan,
                              bits_to_double(0x7FF8000000000001)]])
    return np.concatenate([values, -values])


class TestFloatText:
    """The shortest round-trip float kernel against repr, value by value."""

    @given(st.integers(1, 13), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_repr_property(self, ncols, data):
        values = data.draw(st.lists(any_double, min_size=ncols, max_size=12 * ncols))
        assert_matches_repr(values, ncols)

    @pytest.mark.parametrize("ncols", [1, 7])
    def test_matches_repr_sweep(self, ncols):
        assert_matches_repr(float_text_sweep(), ncols)

    def test_matches_repr_random_bits(self):
        bits = np.random.default_rng(7).integers(0, 2**64, size=200_000, dtype=np.uint64)
        assert_matches_repr(bits.view(np.float64), 5)

    def test_yields_ascii_bytes(self):
        cloud = make_cloud([[1.5, 0.0, -0.0], [-2.0, 1e-05, 1e300]], c=[np.nan, -np.inf])
        chunks = list(cloud_chunks(cloud, "xyz"))
        assert chunks == [b"1.5 0.0 -0.0 nan\n-2.0 1e-05 1e+300 -inf\n"]


HEADER_WORDS = ["VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH", "HEIGHT",
                "VIEWPOINT", "POINTS", "DATA", "ascii", "binary", "x", "y", "z", "F", "#"]
fuzz_text = st.lists(st.one_of(
    st.sampled_from(HEADER_WORDS + GOOD_TOKENS + NONFINITE_TOKENS + BAD_TOKENS),
    st.integers(-2, 5).map(str), st.floats().map(repr),
    st.sampled_from([" ", "\t", "\n", "\r\n", "\r", "\x85", "\u2028", "\x00", "\u00e9"]),
), max_size=60).map("".join)
fuzz_sources = st.one_of(st.binary(max_size=200), fuzz_text, fuzz_text.map(str.encode))


class TestParseFuzz:
    """Any input either parses or raises ParseError, in both formats."""

    @given(fuzz_sources, st.sampled_from(["xyz", "pcd"]))
    @settings(max_examples=500, deadline=None)
    def test_parses_or_raises_parse_error(self, source, fmt):
        try:
            cloud, summary = parse_cloud(source, fmt)
        except ParseError:
            return
        assert summary.total_rows == len(cloud) + summary.rejected

    @given(fuzz_sources, st.sampled_from(["xyz", "pcd"]), st.integers(1, 3), chunk_chars)
    @settings(max_examples=300, deadline=None)
    def test_chunk_size_does_not_change_outcome(self, source, fmt, chunk, chars):
        expected = outcome(parse_cloud, source, fmt)
        with (mock.patch.object(cloud_module, "_CHUNK_ROWS", chunk),
              mock.patch.object(cloud_module, "_CHUNK_CHARS", chars)):
            assert outcome(parse_cloud, source, fmt) == expected

    @staticmethod
    def peak_over_output(rng, eol):
        """tracemalloc peak of parsing 100k PCD rows, lines ended by eol, over the output."""
        n = 100_000
        cloud = make_cloud(rng.normal(scale=20.0, size=(n, 3)), intensity=rng.random(n))
        source = write_cloud(cloud, "pcd").replace(b"\n", eol)
        tracemalloc.start()
        try:
            back, _ = parse_cloud(source, "pcd")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.points, cloud.points)
        return peak / (back.points.nbytes + back.channels["intensity"].nbytes)

    def test_peak_memory_near_output_size(self, rng):
        # 100k rows, 6 MB of PCD text in about 200 chunks: the parser
        # holds the chunks' rows and the joined columns, about 2x the
        # output, never the text decoded whole (about 8x before)
        assert self.peak_over_output(rng, b"\n") < 3

    def test_peak_memory_cr_only_lines(self, rng):
        # the same bound when every line ends in a lone "\r", or in one of
        # the rarer breaks str.splitlines honours: the reader's blocks end
        # anywhere, not only after a "\n"
        for eol in ["\r", "\x0b", "\x0c", "\x85", "\u2028"]:
            assert self.peak_over_output(rng, eol.encode()) < 3, repr(eol)

    @given(st.data(), st.booleans(), chunk_chars)
    @settings(max_examples=300, deadline=None)
    def test_chunks_join_to_whole_text_lines(self, data, as_bytes, chars):
        # lines may hold breaks of their own, so a "\r" can meet a "\n"
        # ending, and lone surrogates, which a str source keeps
        line = st.lists(st.one_of(st.characters(), st.sampled_from(EOLS + ["\ud83d", "\ude00"])),
                        max_size=8).map("".join)
        source = join_lines(data, data.draw(st.lists(line, max_size=12)), as_bytes)
        text = source.decode("utf-8", errors="replace") if as_bytes else source
        with mock.patch.object(cloud_module, "_CHUNK_CHARS", chars):
            chunks = list(cloud_module._line_chunks(source))
        assert sum(chunks, []) == text.splitlines()

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_chunks_cut_at_every_line_end(self, eol, as_bytes):
        # a source over _CHUNK_CHARS comes in several blocks, whichever
        # line end it uses
        text = "".join(f"{k} 0 0{eol}" for k in range(10_000))
        assert len(text) > 2 * cloud_module._CHUNK_CHARS
        source = text.encode() if as_bytes else text
        chunks = list(cloud_module._line_chunks(source))
        assert 1 < len(chunks) <= len(text) // cloud_module._CHUNK_CHARS + 1
        assert sum(chunks, []) == text.splitlines()

    @given(st.lists(st.sampled_from(["x", "y", "z", "a", "b"]), max_size=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeated_field_raises_at_fields_line(self, extra, data):
        fields = ["x", "y", "z", *extra]
        rows = data.draw(st.lists(st.lists(good_token, min_size=len(fields),
                                           max_size=len(fields)), max_size=3))
        source = "\n".join([
            "VERSION .7", "FIELDS " + " ".join(fields), f"POINTS {len(rows)}", "DATA ascii",
            *(" ".join(row) for row in rows)]) + "\n"
        if len(set(fields)) == len(fields):
            cloud, _ = parse_cloud(source, "pcd")
            assert list(cloud.channels) == extra
        else:
            # a repeated name would silently keep one column of the two
            with pytest.raises(ParseError, match="repeats") as err:
                parse_cloud(source, "pcd")
            assert err.value.line == 2


class TestCropBox:
    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            CropBox((0, 0, 0), (1, -1, 1))


class TestCrop:
    BOX = CropBox((-1, -1, -1), (1, 1, 1))

    def test_interior_point_retained(self):
        assert len(crop(make_cloud([[0, 0, 0]]), self.BOX)) == 1

    def test_exterior_point_dropped(self):
        assert len(crop(make_cloud([[2, 0, 0]]), self.BOX)) == 0

    def test_boundary_inclusive(self):
        assert len(crop(make_cloud([[1, 1, 1], [-1, -1, -1]]), self.BOX)) == 2

    def test_channels_subset_consistently(self):
        cloud = make_cloud([[0, 0, 0], [5, 0, 0], [0.5, 0, 0]], tag=[1.0, 2.0, 3.0])
        out = crop(cloud, self.BOX)
        assert np.array_equal(out.channels["tag"], [1.0, 3.0])

    def test_matches_brute_force_count(self, rng):
        points = rng.uniform(0, 10, size=(1000, 3))
        box = CropBox((0, 0, 0), (5, 10, 10))
        expected = sum(1 for p in points
                       if all(0 <= p[k] <= (5, 10, 10)[k] for k in range(3)))
        assert len(crop(make_cloud(points), box)) == expected

    def test_idempotent(self, rng):
        cloud = make_cloud(rng.uniform(-2, 2, size=(200, 3)))
        once = crop(cloud, self.BOX)
        twice = crop(once, self.BOX)
        assert np.array_equal(once.points, twice.points)

    def test_preserves_order_subsequence(self, rng):
        points = rng.uniform(-2, 2, size=(50, 3))
        cloud = make_cloud(points, idx=np.arange(50.0))
        out = crop(cloud, self.BOX)
        kept = out.channels["idx"].astype(int)
        assert np.array_equal(kept, np.sort(kept))
        assert np.array_equal(out.points, points[kept])


class TestPointCloudInvariants:
    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            make_cloud([[np.nan, 0, 0]])

    def test_channel_length_must_match(self):
        with pytest.raises(ValueError):
            make_cloud([[0, 0, 0]], short=[1.0, 2.0])

    def test_missing_channel_error(self):
        with pytest.raises(ChannelMissingError):
            make_cloud([[0, 0, 0]]).channel("stick")
