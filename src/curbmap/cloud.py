"""Point cloud container plus ASCII parsing, writing, and cropping.

Two text formats are supported: PCD (ASCII data section only) and plain
XYZ rows. Extra PCD fields and extra XYZ columns become named scalar
channels on the cloud. Points with non-finite coordinates are dropped at
parse time and reported in the parse summary rather than failing the
whole file, since real LiDAR dumps routinely contain NaN returns.

The reader takes bytes, a str (encoded once) or a binary file, which it
reads in place of bytes and leaves open; run_pipeline hands it the open
input file. It decodes the source through the standard library's
universal-newline reader, io.TextIOWrapper, in blocks of _CHUNK_CHARS
characters that may end anywhere, splits each block with str.splitlines
and carries a block's unfinished last line into the next: the lines are
those of the whole text split at once, whichever line breaks end them,
but neither the decoded text nor a file's bytes are ever held whole, so
a parse peaks at about twice the parsed arrays plus a text block,
whatever the file's size. A pipeline run on a text cloud (perfbench's
survey, a 7.6 MB ASCII PCD) peaks in decompose, where the vote's
tensors sit beside the new saliency channels, as one on a cloud in
memory does.
Both formats share one data path, in chunks of _CHUNK_ROWS lines so
that no Python frame runs per value: each line is split once with
str.split as it is read, lines without tokens and XYZ comments are
dropped, row widths are checked with numpy, every token of the chunk
goes through one map(float, ...) (Python's float spellings, nan and 1_0
included) and a numpy mask drops the rows with a non-finite coordinate.

Both writers, cloud_chunks and dem.dem_chunks, hand each chunk of rows
to _float_text, which emits the bytes repr would give for every float
without calling repr: _shortest_digits runs the Schubfach algorithm on
the whole chunk in uint64 arithmetic, and _float_text lays the digits
out in repr's notation by gathering each value's ASCII bytes through a
table of layouts. tests/oracles.py keeps the one-repr-per-value writer
as the reference.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import BinaryIO

import numpy as np

from .errors import ParseError

_PCD_HEADER_ORDER = (
    "VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
    "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA",
)
# Lines per chunk of the data parser and rows per chunk of the writer:
# bounds the parser's token strings and the writer's arrays alive at
# once (about 2 MB for 12 columns).
_CHUNK_ROWS = 512
# Characters per block of the text reader, about 512 survey PCD rows.
_CHUNK_CHARS = 1 << 15


@dataclass
class PointCloud:
    """Immutable-by-convention point set with optional scalar channels.

    points: (n, 3) float64 array of x, y, z in meters.
    channels: name -> (n,) float64 array. Channel lengths always equal
    the point count; names are unique by dict construction.
    """

    points: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {self.points.shape}")
        # min and max are NaN or infinite exactly when a coordinate is, and
        # unlike isfinite they make no (n, 3) mask
        if len(self.points) and not np.isfinite([self.points.min(), self.points.max()]).all():
            raise ValueError("point coordinates must be finite")
        self.channels = {
            name: np.ascontiguousarray(values, dtype=np.float64)
            for name, values in self.channels.items()
        }
        for name, values in self.channels.items():
            if values.shape != (len(self.points),):
                raise ValueError(
                    f"channel {name!r} has length {values.shape}, expected ({len(self.points)},)"
                )

    def __len__(self):
        return len(self.points)

    def channel(self, name: str) -> np.ndarray:
        from .errors import ChannelMissingError

        if name not in self.channels:
            raise ChannelMissingError(name)
        return self.channels[name]

    def with_channels(self, **extra: np.ndarray) -> "PointCloud":
        """Return a copy of this cloud with additional channels attached."""
        merged = dict(self.channels)
        merged.update(extra)
        return PointCloud(self.points, merged)

    def select(self, indices: np.ndarray) -> "PointCloud":
        """Sub-cloud at the given point indices, channels subset consistently."""
        indices = np.asarray(indices)
        return PointCloud(
            self.points[indices],
            {name: values[indices] for name, values in self.channels.items()},
        )


@dataclass(frozen=True)
class CropBox:
    """Axis-aligned box with inclusive bounds on both ends."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64)
        hi = np.asarray(self.max_corner, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("corners must be 3-vectors")
        if not (lo < hi).all():
            raise ValueError(f"min corner must be strictly below max corner, got {lo} vs {hi}")


@dataclass
class ParseSummary:
    """What the parser saw: totals plus per-line rejection records."""

    total_rows: int = 0
    rejected_lines: list[int] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return len(self.rejected_lines)


class SizedFile(io.BufferedReader):
    """A file opened for binary reading whose len() is its size at opening.

    len() of it reads as len() of the file's bytes would, so a source
    that streams still has a length in bytes wherever one is asked of
    it; run_pipeline hands parse_cloud one.
    """

    def __init__(self, path):
        super().__init__(io.FileIO(path, "rb"))
        self.size = os.fstat(self.fileno()).st_size

    def __len__(self):
        return self.size


def parse_cloud(source: bytes | str | BinaryIO, fmt: str) -> tuple[PointCloud, ParseSummary]:
    """Parse a point cloud from text. Returns the cloud and a parse summary.

    source is the text as bytes or str, or a binary file open for
    reading, which is read from its current position to its end a block
    at a time and is left open. fmt is "pcd" or "xyz". Rows whose
    coordinates are not finite are dropped and recorded in the summary.
    Structural problems (bad header, declared/actual count mismatch,
    short rows) raise ParseError; when several rows are bad, the first
    one in file order is reported.
    """
    fmt = fmt.lower()
    if fmt not in ("pcd", "xyz"):
        raise ValueError(f"unknown format {fmt!r} (expected 'pcd' or 'xyz')")
    chunks = _line_chunks(source)
    try:
        lines = chain.from_iterable(chunks)
        return _parse_pcd(lines) if fmt == "pcd" else _parse_xyz(lines)
    finally:
        chunks.close()   # a parse that stopped early lets go of the file now


def _line_chunks(source: bytes | str | BinaryIO) -> Iterator[list[str]]:
    """The lines of source, as str.splitlines gives them, in blocks.

    The source is read as UTF-8 through a universal-newline TextIOWrapper
    in read(_CHUNK_CHARS) blocks that may end anywhere; each is split with
    splitlines, and a last line no line break ends is carried into the
    next block. The reader turns "\\r\\n" and "\\r" into "\\n" and holds a
    trailing "\\r" until its next read, so no line break falls across two
    blocks. Bytes decode with errors replaced; a str is encoded once and
    decodes back exactly, lone surrogates included. A file is read in
    place of bytes and detached from the reader when the generator ends
    or is closed, so it is never closed here.
    """
    errors = "replace"
    if isinstance(source, str):
        source, errors = source.encode("utf-8", "surrogatepass"), "surrogatepass"
    if not hasattr(source, "read"):
        source = io.BytesIO(source)
    reader = io.TextIOWrapper(source, encoding="utf-8", errors=errors, newline=None)
    try:
        pieces = []   # the start of a line that no line break has ended yet
        while block := reader.read(_CHUNK_CHARS):
            lines = block.splitlines()
            # "\n".splitlines() is [""]: only a line break splits to something else
            open_end = block[-1].splitlines() == [block[-1]]
            pieces.append(lines[0])
            if open_end and len(lines) == 1:
                continue
            lines[0] = "".join(pieces)
            pieces = [lines.pop()] if open_end else []
            yield lines
        if pieces:
            yield ["".join(pieces)]
    finally:
        reader.detach()


def _data_lines(lines: Iterator[str], lineno: int, skip_comments: bool):
    """Each data line's tokens and the 1-based line numbers, _CHUNK_ROWS lines at a time.

    lineno counts the lines already taken from the iterator. Lines
    without tokens are left out, and with skip_comments so are lines
    whose first token starts with # (XYZ comments; a PCD data section
    has none). Chunks with no data line are not yielded. Each line is
    split as it is taken, so a chunk holds tokens, never its lines' text.
    """
    while chunk := list(map(str.split, islice(lines, _CHUNK_ROWS))):
        rows, numbers = [], []
        for n, tokens in enumerate(chunk, lineno + 1):
            if tokens and not (skip_comments and tokens[0][0] == "#"):
                rows.append(tokens)
                numbers.append(n)
        if rows:
            yield rows, np.array(numbers, dtype=np.int64)
        lineno += len(chunk)


def _convert_rows(rows: list[list[str]], numbers: np.ndarray, width: int) -> np.ndarray:
    """(len(rows), width) float64 array of each row's first width tokens.

    Tokens go through Python's float, so its spellings (nan, inf, 1_0,
    exponents) are accepted as before. The first row in file order that
    is short or holds a bad token raises ParseError with that line.
    """
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    short = np.flatnonzero(widths < width)
    good = short[0] if len(short) else len(rows)
    rows = rows[:good]
    if (widths[:good] > width).any():
        rows = [row[:width] for row in rows]
    try:
        values = np.fromiter(map(float, chain.from_iterable(rows)),
                             dtype=np.float64, count=good * width)
    except ValueError:
        for row, line in zip(rows, numbers.tolist()):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise ParseError(str(exc), line=line) from None
        raise
    if good < len(widths):
        raise ParseError(f"expected {width} columns, got {widths[good]}",
                         line=int(numbers[good]))
    return values.reshape(good, width)


def _parse_data(chunks, width: int, extra_names):
    """Parse (row tokens, line numbers) chunks and drop rows with non-finite coordinates.

    Each chunk's finite rows are kept as one small array, and every
    output column is joined from them once.
    """
    blocks, rejected, total = [np.empty((0, width))], [], 0
    for rows, numbers in chunks:
        block = _convert_rows(rows, numbers, width)
        finite = np.isfinite(block[:, :3]).all(axis=1)
        if not finite.all():
            rejected += numbers[~finite].tolist()
            block = block[finite]
        blocks.append(block)
        total += len(rows)
    points = np.concatenate([block[:, :3] for block in blocks])
    channels = {name: np.concatenate([block[:, 3 + k] for block in blocks])
                for k, name in enumerate(extra_names)}
    return PointCloud(points, channels), ParseSummary(total_rows=total, rejected_lines=rejected)


def _parse_xyz(lines: Iterator[str]):
    chunks = _data_lines(lines, 0, skip_comments=True)
    first = next(chunks, None)
    if first is None:
        return _parse_data([], 3, [])
    width = len(first[0][0])
    if width < 3:
        raise ParseError("XYZ rows need at least 3 columns", line=int(first[1][0]))
    return _parse_data(chain([first], chunks), width, [f"extra{k}" for k in range(width - 3)])


def _parse_pcd(lines: Iterator[str]):
    header: dict[str, tuple[int, list[str]]] = {}  # keyword -> (its line, its values)
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split(None, 1)
        key, rest = key.upper(), "".join(rest)
        if key not in _PCD_HEADER_ORDER:
            raise ParseError(f"unexpected header keyword {key!r}", line=lineno)
        if key in header:
            raise ParseError(f"repeated header keyword {key!r}", line=lineno)
        header[key] = lineno, rest.split()
        if key == "DATA":
            if rest.strip().lower() != "ascii":
                raise ParseError(f"only DATA ascii is supported, got {rest!r}", line=lineno)
            break
    if "DATA" not in header:
        raise ParseError("missing DATA line", line=lineno)
    data_start = header["DATA"][0]
    for required in ("FIELDS", "POINTS"):
        if required not in header:
            raise ParseError(f"missing {required} header", line=data_start)

    def integer(key: str) -> int:
        at, values = header[key]
        try:
            return int(values[0])
        except (ValueError, IndexError):
            raise ParseError(f"{key} must be an integer", line=at) from None

    at, fields = header["FIELDS"]
    if fields[:3] != ["x", "y", "z"]:
        raise ParseError(f"FIELDS must start with x y z, got {fields}", line=at)
    if len(set(fields)) != len(fields):
        raise ParseError(f"FIELDS repeats a name: {fields}", line=at)
    for key, (at, values) in header.items():
        if key in ("SIZE", "TYPE", "COUNT") and len(values) != len(fields):
            raise ParseError(f"{key} lists {len(values)} entries for {len(fields)} FIELDS",
                             line=at)
    at, counts = header.get("COUNT", (0, []))
    if any(c != "1" for c in counts):
        raise ParseError("multi-count fields are not supported", line=at)
    declared = integer("POINTS")
    if "WIDTH" in header and "HEIGHT" in header:
        width, height = integer("WIDTH"), integer("HEIGHT")
        if width * height != declared:
            raise ParseError(
                f"WIDTH {width} x HEIGHT {height} does not equal POINTS {declared}",
                line=header["POINTS"][0])

    cloud, summary = _parse_data(_data_lines(lines, data_start, skip_comments=False),
                                 len(fields), fields[3:])
    if summary.total_rows != declared:
        raise ParseError(f"POINTS declares {declared} rows but data has {summary.total_rows}",
                         line=data_start)
    return cloud, summary


# Shortest round-trip digits of a double (Schubfach: R. Giulietti, "The
# Schubfach way to render doubles", 2020), vectorised after A. Bolz's
# schubfach_64 ToDecimal64 with every step in uint64 arithmetic: uint64
# mixed with an int64 array would promote to float64, and the 128-bit
# limb products rely on uint64 wrap-around.
_POW10_MIN, _POW10_MAX = -292, 324
_MASK32 = 0xFFFFFFFF


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 halves of g(e) for e in [_POW10_MIN, _POW10_MAX].

    g(e) = ceil(10^e / 2^(floor(log2 10^e) + 1 - 128)), a 128-bit integer
    in [2^127, 2^128).
    """
    table = []
    for e in range(_POW10_MIN, _POW10_MAX + 1):
        p = 10 ** abs(e)
        if e >= 0:
            r = p.bit_length() - 128
            table.append(p << -r if r < 0 else -(-p >> r))
        else:  # 10^-e is never a power of two, so floor(log2 10^e) = -bit_length
            table.append(-(-(1 << (127 + p.bit_length())) // p))
    return (np.array([g >> 64 for g in table], dtype=np.uint64),
            np.array([g & 0xFFFFFFFFFFFFFFFF for g in table], dtype=np.uint64))


_POW10_HI, _POW10_LO = _pow10_table()


def _mul_128(a0, a1, b0, b1):
    """High and low uint64 words of a * b, both given as 32-bit limbs."""
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return hi, (mid << 32) | (p00 & _MASK32)


def _round_to_odd(g, cp):
    """floor(cp * g / 2^128), its lowest bit set if the 64 bits below exceed 1."""
    a0, a1 = cp & _MASK32, cp >> 32
    x_hi, _ = _mul_128(a0, a1, *g[2:])
    y1, y0 = _mul_128(a0, a1, *g[:2])
    y0 += x_hi
    y1 += y0 < x_hi
    return y1 | (y0 > 1)


def _scaled_interval(c, q, closer):
    """Round-to-odd of 4·v·10^-k and of its rounding interval's bounds, and k.

    v = c·2^q and k = floor(log10 2^q), or floor(log10 3/4·2^q) where
    closer marks a lower neighbour half as far away as the upper one.
    """
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    g_hi, g_lo = _POW10_HI[-k - _POW10_MIN], _POW10_LO[-k - _POW10_MIN]
    g = (g_hi & _MASK32, g_hi >> 32, g_lo & _MASK32, g_lo >> 32)
    cb = c << 2
    return (_round_to_odd(g, (cb - 2 + closer) << h), _round_to_odd(g, cb << h),
            _round_to_odd(g, (cb + 2) << h), k)


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip decimal (digits, exponent) of positive doubles.

    bits holds the uint64 patterns of finite, non-zero, positive doubles.
    Returns uint64 digits without trailing zeros and int64 exponents e,
    the value being digits * 10^e, as repr would spell it.
    """
    fraction = bits & ((1 << 52) - 1)
    biased = (bits >> 52).astype(np.int64)
    c = np.where(biased != 0, fraction | (1 << 52), fraction)
    vbl, vb, vbr, k = _scaled_interval(c, np.maximum(biased, 1) - 1075,
                                       (fraction == 0) & (biased > 1))
    odd = c & 1
    lower, upper = vbl + odd, vbr - odd
    s = vb >> 2
    sp = s // 10
    up_inside = lower <= 40 * sp
    wp_inside = 40 * sp + 40 <= upper
    use_sp = (s >= 10) & (up_inside != wp_inside)
    u_inside = lower <= s << 2
    w_inside = (s << 2) + 4 <= upper
    mid = (s << 2) + 2
    round_up = (vb > mid) | ((vb == mid) & (s & 1 == 1))
    digits = np.where(use_sp, sp + wp_inside,
                      s + np.where(u_inside != w_inside, w_inside, round_up))
    exponent = k + use_sp
    zeros = np.flatnonzero(digits % 10 == 0)
    if len(zeros):
        d, e = digits[zeros], exponent[zeros]
        for n in (16, 8, 4, 2, 1):
            strip = d % 10 ** n == 0
            d = np.where(strip, d // 10 ** n, d)
            e += strip * n
        digits[zeros], exponent[zeros] = d, e
    return digits, exponent


# A value's text is gathered from its 36-byte alphabet row: the digits
# zero-padded to 20 places, the exponent's magnitude to 4, the separator
# after the value, then constant characters. Each layout lists the
# alphabet positions of one kind of text, and its unused places hold
# _UNUSED. Keys number the layouts: fixed notation by (sign, digit count,
# decimal point position -3..16), then exponent notation by (sign, digit
# count, exponent sign, whether the exponent has three digits), then
# inf, -inf and nan.
_SEP, _POINT, _MINUS, _E, _PLUS, _N, _A, _I, _F, _UNUSED = 24, 25, 26, 27, 28, 29, 30, 31, 32, 35
_ZERO = 0  # the first of 20 zero-padded places holds "0", as digits < 10^17
_CONSTANTS = np.frombuffer(b" .-e+naif\0\0\0", dtype=np.uint32)  # from _SEP on
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
            ).astype(np.uint8).view(np.uint32).ravel()  # "0000" ... "9999"
_DIGIT_BOUNDS = 10 ** np.arange(1, 18, dtype=np.uint64)  # d has 1 + #{bounds <= d} digits
_EXPONENT_KEY = 2 * 17 * 20
_INF_KEY = _EXPONENT_KEY + 2 * 17 * 2 * 2
_NAN_KEY = _INF_KEY + 2
_WIDTH = 25  # "-1.2345678901234567e-308" and its separator


def _layouts() -> np.ndarray:
    layouts = []
    for neg in (0, 1):
        for nd in range(1, 18):
            digits = list(range(20 - nd, 20))
            for point in range(-3, 17):
                if point <= 0:
                    text = [_ZERO, _POINT] + [_ZERO] * -point + digits
                elif point < nd:
                    text = digits[:point] + [_POINT] + digits[point:]
                else:
                    text = digits + [_ZERO] * (point - nd) + [_POINT, _ZERO]
                layouts.append([_MINUS] * neg + text)
    for neg in (0, 1):
        for nd in range(1, 18):
            digits = list(range(20 - nd, 20))
            mantissa = digits[:1] + ([_POINT] + digits[1:] if nd > 1 else [])
            for exp_sign in (_PLUS, _MINUS):
                for exp_digits in ([22, 23], [21, 22, 23]):
                    layouts.append([_MINUS] * neg + mantissa + [_E, exp_sign] + exp_digits)
    layouts += [[_I, _N, _F], [_MINUS, _I, _N, _F], [_N, _A, _N]]
    table = np.full((len(layouts), _WIDTH), _UNUSED, dtype=np.uint8)
    for key, text in enumerate(layouts):
        table[key, :len(text) + 1] = text + [_SEP]
    return table


_LAYOUTS = _layouts()
_LENGTHS = np.count_nonzero(_LAYOUTS != _UNUSED, axis=1)


def _float_text(values: np.ndarray, ncols: int) -> bytes:
    """ASCII text of row-major float64 values, ncols per row, as repr spells them.

    Each value reads as repr of a Python float: the shortest digits that
    read back to the same double, in exponent notation below 1e-4 and from
    1e16 on, in fixed notation otherwise; "inf", "-inf" and "nan" (no
    sign) for the special values. Values are separated by one space and
    each row ends in a newline. This is the float text of both writers,
    cloud_chunks and dem.dem_chunks.
    """
    bits = values.view(np.uint64)
    neg = (bits >> 63).astype(np.int64)
    magnitude = bits & 0x7FFFFFFFFFFFFFFF
    regular = magnitude - 1 < 0x7FEFFFFFFFFFFFFF  # finite and non-zero
    # 1.0 stands in for the others; zero then reads "0.0" with digits 0
    digits, exponent = _shortest_digits(np.where(regular, magnitude, 0x3FF0000000000000))
    digits[magnitude == 0] = 0
    nd = np.searchsorted(_DIGIT_BOUNDS, digits, side="right") + 1
    point = nd + exponent
    exp = point - 1
    signed = neg * 17 + nd - 1
    key = np.where((point <= -4) | (point > 16),
                   _EXPONENT_KEY + (signed * 2 + (exp < 0)) * 2 + (np.abs(exp) >= 100),
                   signed * 20 + point + 3)
    special = magnitude >= 0x7FF0000000000000
    key[special] = np.where(magnitude[special] > 0x7FF0000000000000,
                            _NAN_KEY, _INF_KEY + neg[special])
    alphabet = np.empty((len(values), 9), dtype=np.uint32)
    high = digits // 100000000
    low = (digits - high * 100000000).astype(np.uint32)
    top = (high // 100000000).astype(np.uint32)
    middle = high.astype(np.uint32) - top * 100000000
    alphabet[:, 0] = _DIGITS4[top]
    alphabet[:, 1] = _DIGITS4[middle // 10000]
    alphabet[:, 2] = _DIGITS4[middle % 10000]
    alphabet[:, 3] = _DIGITS4[low // 10000]
    alphabet[:, 4] = _DIGITS4[low % 10000]
    alphabet[:, 5] = _DIGITS4[np.abs(exp)]
    alphabet[:, 6:] = _CONSTANTS
    letters = alphabet.view(np.uint8)
    letters[ncols - 1::ncols, _SEP] = ord("\n")
    layout = _LAYOUTS[key]
    index = np.repeat(np.arange(0, letters.size, letters.shape[1]), _LENGTHS[key])
    index += layout[layout != _UNUSED]
    return letters.ravel().take(index).tobytes()


def cloud_chunks(cloud: PointCloud, fmt: str) -> Iterator[bytes]:
    """PCD or XYZ text of a cloud in chunks: the PCD header, then row chunks.

    Channels become extra columns. Each chunk stacks up to _CHUNK_ROWS
    rows of the columns and writes them with _float_text, so every value
    reads back exactly. The format and the PCD channel names are checked
    before the first chunk is yielded. A PCD channel name must be a
    non-empty word without whitespace other than x, y and z, since it
    becomes one entry of the FIELDS line and the reader refuses a
    repeated field.
    """
    fmt = fmt.lower()
    if fmt not in ("pcd", "xyz"):
        raise ValueError(f"unknown format {fmt!r} (expected 'pcd' or 'xyz')")
    names = list(cloud.channels)
    if fmt == "pcd":
        for name in names:
            if name.split() != [name] or name in ("x", "y", "z"):
                raise ValueError(f"channel name {name!r} is empty, contains whitespace "
                                 f"or names a coordinate")
        n_fields = 3 + len(names)
        yield "\n".join([
            "VERSION .7",
            " ".join(["FIELDS x y z", *names]),
            "SIZE" + " 8" * n_fields,
            "TYPE" + " F" * n_fields,
            "COUNT" + " 1" * n_fields,
            f"WIDTH {len(cloud)}",
            "HEIGHT 1",
            "VIEWPOINT 0 0 0 1 0 0 0",
            f"POINTS {len(cloud)}",
            "DATA ascii\n",
        ]).encode()
    columns = [*cloud.points.T, *cloud.channels.values()]
    for a in range(0, len(cloud), _CHUNK_ROWS):
        chunk = np.stack([column[a:a + _CHUNK_ROWS] for column in columns], axis=1)
        yield _float_text(chunk.ravel(), len(columns))


def write_cloud(cloud: PointCloud, fmt: str) -> bytes:
    """Serialize a cloud to PCD or XYZ text: the chunks of cloud_chunks, joined.

    parse_cloud(write_cloud(c)) reproduces coordinates and channels exactly.
    """
    out = io.BytesIO()
    out.writelines(cloud_chunks(cloud, fmt))
    return out.getvalue()


def crop(cloud: PointCloud, box: CropBox) -> PointCloud:
    """Points inside the box, bounds inclusive, input order preserved."""
    lo = np.asarray(box.min_corner)
    hi = np.asarray(box.max_corner)
    keep = ((cloud.points >= lo) & (cloud.points <= hi)).all(axis=1)
    return cloud.select(np.flatnonzero(keep))
