"""Point cloud container plus ASCII parsing, writing, and cropping.

Two text formats are supported: PCD (ASCII data section only) and plain
XYZ rows. Extra PCD fields and extra XYZ columns become named scalar
channels on the cloud. Points with non-finite coordinates are dropped at
parse time and reported in the parse summary rather than failing the
whole file, since real LiDAR dumps routinely contain NaN returns.

Both formats share one data path, run in chunks of rows so that no
Python frame runs per value: the data lines are split with str.split,
row widths are checked with numpy, every token of the chunk goes through
one map(float, ...) (Python's float spellings, nan and 1_0 included) and
the values are reshaped, after which a numpy mask drops the rows with a
non-finite coordinate. The writer formats column slices with
map(repr, ...) and joins each row with zip and " ".join; repr of a float
is the shortest text that reads back to the same value.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ParseError

_PCD_HEADER_ORDER = (
    "VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
    "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA",
)
# Rows per chunk of the text reader and writer: bounds the token and
# string objects alive at once.
_CHUNK_ROWS = 1024


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
        if not np.isfinite(self.points).all():
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


def parse_cloud(source: bytes | str, fmt: str) -> tuple[PointCloud, ParseSummary]:
    """Parse a point cloud from text. Returns the cloud and a parse summary.

    fmt is "pcd" or "xyz". Rows whose coordinates are not finite are
    dropped and recorded in the summary. Structural problems (bad header,
    declared/actual count mismatch, short rows) raise ParseError; when
    several rows are bad, the first one in file order is reported.
    """
    text = source.decode("utf-8", errors="replace") if isinstance(source, bytes) else source
    fmt = fmt.lower()
    if fmt == "pcd":
        return _parse_pcd(text)
    if fmt == "xyz":
        return _parse_xyz(text)
    raise ValueError(f"unknown format {fmt!r} (expected 'pcd' or 'xyz')")


def _data_lines(lines: list[str], start: int, skip_comments: bool):
    """Non-blank lines of lines[start:] and their 1-based line numbers.

    With skip_comments, lines whose first non-blank character is # are
    left out too (XYZ comments; a PCD data section has none).
    """
    numbers = [
        n for n, s in enumerate(map(str.lstrip, lines[start:]), start + 1)
        if s and not (skip_comments and s[0] == "#")
    ]
    return [lines[n - 1] for n in numbers], np.array(numbers, dtype=np.int64)


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


def _parse_data(lines: list[str], numbers: np.ndarray, width: int, extra_names):
    """Parse data lines in chunks and drop rows with non-finite coordinates."""
    data = np.empty((len(lines), width))
    for a in range(0, len(lines), _CHUNK_ROWS):
        b = a + _CHUNK_ROWS
        data[a:b] = _convert_rows(list(map(str.split, lines[a:b])), numbers[a:b], width)
    finite = np.isfinite(data[:, :3]).all(axis=1)
    rejected = numbers[~finite].tolist()
    if rejected:
        data = data[finite]
    channels = {name: data[:, 3 + k] for k, name in enumerate(extra_names)}
    cloud = PointCloud(data[:, :3], channels)
    return cloud, ParseSummary(total_rows=len(lines), rejected_lines=rejected)


def _parse_xyz(text: str):
    lines, numbers = _data_lines(text.splitlines(), 0, skip_comments=True)
    width = len(lines[0].split()) if lines else 3
    if width < 3:
        raise ParseError("XYZ rows need at least 3 columns", line=int(numbers[0]))
    return _parse_data(lines, numbers, width, [f"extra{k}" for k in range(width - 3)])


def _parse_pcd(text: str):
    lines = text.splitlines()
    header: dict[str, list[str]] = {}
    header_lines: dict[str, int] = {}
    data_start = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split(None, 1)
        key, rest = key.upper(), "".join(rest)
        if key not in _PCD_HEADER_ORDER:
            raise ParseError(f"unexpected header keyword {key!r}", line=lineno)
        header[key] = rest.split()
        header_lines[key] = lineno
        if key == "DATA":
            if rest.strip().lower() != "ascii":
                raise ParseError(f"only DATA ascii is supported, got {rest!r}", line=lineno)
            data_start = lineno
            break
    if data_start is None:
        raise ParseError("missing DATA line", line=len(lines))
    for required in ("FIELDS", "POINTS"):
        if required not in header:
            raise ParseError(f"missing {required} header", line=data_start)

    fields = header["FIELDS"]
    if fields[:3] != ["x", "y", "z"]:
        raise ParseError(f"FIELDS must start with x y z, got {fields}", line=data_start)
    for key in ("SIZE", "TYPE", "COUNT"):
        if key in header and len(header[key]) != len(fields):
            raise ParseError(
                f"{key} lists {len(header[key])} entries for {len(fields)} FIELDS",
                line=header_lines[key])
    counts = header.get("COUNT", ["1"] * len(fields))
    if any(c != "1" for c in counts):
        raise ParseError("multi-count fields are not supported", line=data_start)
    try:
        declared = int(header["POINTS"][0])
    except (ValueError, IndexError):
        raise ParseError("POINTS must be an integer", line=data_start) from None
    if "WIDTH" in header and "HEIGHT" in header:
        shape = []
        for key in ("WIDTH", "HEIGHT"):
            try:
                shape.append(int(header[key][0]))
            except (ValueError, IndexError):
                raise ParseError(f"{key} must be an integer", line=header_lines[key]) from None
        width, height = shape
        if width * height != declared:
            raise ParseError(
                f"WIDTH {width} x HEIGHT {height} does not equal POINTS {declared}",
                line=header_lines["POINTS"])

    data, numbers = _data_lines(lines, data_start, skip_comments=False)
    result = _parse_data(data, numbers, len(fields), fields[3:])
    if len(data) != declared:
        raise ParseError(f"POINTS declares {declared} rows but data has {len(data)}",
                         line=data_start)
    return result


def format_float_rows(columns) -> Iterator[str]:
    """Text of equal-length float columns, one line per row, in row chunks.

    Each value is written as repr of a Python float, the shortest string
    that round-trips exactly; values are separated by one space and each
    row ends in a newline. This is the float-text format of both cloud
    and DEM files. A chunk holds up to _CHUNK_ROWS rows.
    """
    for a in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = [map(repr, col[a:a + _CHUNK_ROWS].tolist()) for col in columns]
        yield "\n".join(map(" ".join, zip(*cells))) + "\n"


def write_cloud(cloud: PointCloud, fmt: str) -> bytes:
    """Serialize a cloud to PCD or XYZ text, channels as extra columns.

    Coordinates and channel values are written with full round-trip
    precision, so parse_cloud(write_cloud(c)) reproduces them exactly.
    A PCD channel name must be a non-empty word without whitespace, since
    it becomes one entry of the FIELDS line.
    """
    fmt = fmt.lower()
    if fmt not in ("pcd", "xyz"):
        raise ValueError(f"unknown format {fmt!r} (expected 'pcd' or 'xyz')")
    names = list(cloud.channels)
    chunks = []
    if fmt == "pcd":
        for name in names:
            if name.split() != [name]:
                raise ValueError(f"channel name {name!r} is empty or contains whitespace")
        n_fields = 3 + len(names)
        chunks.append("\n".join([
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
        ]).encode())
    columns = [*cloud.points.T, *cloud.channels.values()]
    chunks.extend(chunk.encode() for chunk in format_float_rows(columns))
    return b"".join(chunks)


def crop(cloud: PointCloud, box: CropBox) -> PointCloud:
    """Points inside the box, bounds inclusive, input order preserved."""
    lo = np.asarray(box.min_corner)
    hi = np.asarray(box.max_corner)
    keep = ((cloud.points >= lo) & (cloud.points <= hi)).all(axis=1)
    return cloud.select(np.flatnonzero(keep))
