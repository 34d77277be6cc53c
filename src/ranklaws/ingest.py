"""Parsing and validation of rank-ordered series.

A RankedSeries is the package's core data shape: values sorted in
decreasing order with dense integer ranks 1..n attached. Raw unordered
values get ranked by a stable descending sort, so ties keep their input
order and still receive distinct consecutive ranks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError


@dataclass(frozen=True, eq=False)
class RankedSeries:
    """A finite, positive, non-increasing sequence of ranked values.

    Invariants, enforced at construction:

    * ranks are exactly 1..n (implicit: position i holds rank i + 1)
    * values are non-increasing in rank
    * all values are strictly positive and finite
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError(f"values must be one-dimensional, got shape {values.shape}")
        if values.size == 0:
            raise ValidationError("series must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValidationError("series values must all be finite")
        if not np.all(values > 0):
            raise ValidationError("series values must all be strictly positive")
        if np.any(np.diff(values) > 0):
            raise ValidationError("series values must be non-increasing in rank")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != values.size:
                raise ValidationError(f"got {len(labels)} labels for {values.size} values")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, self.n + 1)

    def entries(self) -> Iterator[tuple[int, float, str | None]]:
        """Yield (rank, value, label) triples in rank order."""
        for i, v in enumerate(self.values):
            label = self.labels[i] if self.labels is not None else None
            yield i + 1, float(v), label

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedSeries):
            return NotImplemented
        return np.array_equal(self.values, other.values) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"RankedSeries(n={self.n}, max={self.values[0]!r}, min={self.values[-1]!r})"


@dataclass(frozen=True)
class IngestOptions:
    """How tabular input is interpreted.

    mode "raw" expects a value column (optionally preceded by a label
    column) and assigns ranks by sorting; mode "pre-ranked" expects an
    explicit rank column and validates it. Non-positive values are either
    rejected (library default) or dropped with a warning.
    """

    mode: str = "raw"
    zero_policy: str = "reject"
    delimiter: str = ","

    def __post_init__(self):
        if self.mode not in ("raw", "pre-ranked"):
            raise ValidationError(f"mode must be 'raw' or 'pre-ranked', got {self.mode!r}")
        if self.zero_policy not in ("reject", "drop"):
            raise ValidationError(f"zero_policy must be 'reject' or 'drop', got {self.zero_policy!r}")
        if len(self.delimiter) != 1 or not (self.delimiter.isprintable() or self.delimiter == "\t"):
            raise ValidationError(f"delimiter must be a single printable character or tab, got {self.delimiter!r}")


def rank_raw(values: Sequence[float] | np.ndarray, labels: Sequence[str] | None = None) -> RankedSeries:
    """Rank raw values by a stable descending sort.

    Equal values keep their input order and get distinct consecutive
    ranks. All values must be finite and strictly positive; there is no
    drop policy at this level.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError("cannot rank an empty value sequence")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("values must all be finite")
    if not np.all(arr > 0):
        raise ValidationError("values must all be strictly positive")
    order = np.argsort(-arr, kind="stable")
    sorted_labels = None
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != arr.size:
            raise ValidationError(f"got {len(labels)} labels for {arr.size} values")
        sorted_labels = tuple(map(labels.__getitem__, order.tolist()))
    return RankedSeries(arr[order], sorted_labels)


def _parse_value(cell: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"could not parse value {cell!r} as a number", line=line) from None
    if not np.isfinite(value):
        raise ParseError(f"value {cell!r} is not finite", line=line)
    return value


def _parse_rank(cell: str, line: int) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"could not parse rank {cell!r} as an integer", line=line) from None


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def parse_csv(
    text: str, options: IngestOptions | None = None, *, labels: bool = True
) -> tuple[RankedSeries, list[str]]:
    """Parse delimited text into a RankedSeries plus a list of warnings.

    Column layout by mode (detected from the first data row's width):

    * raw:        ``value`` or ``label,value``
    * pre-ranked: ``rank,value`` or ``rank,label,value``

    An optional header row is recognized by its value cell failing numeric
    parse. Under the "drop" policy, rows with non-positive values are
    dropped and reported in the warnings; in pre-ranked mode the surviving
    rows are re-numbered densely after the original ranks have been
    validated as a permutation of 1..n. One leading byte-order mark
    (U+FEFF) is ignored. With ``labels=False`` a label column is still
    checked for width but its cells are not kept, and the series has no
    labels.

    Clean raw-mode tables are parsed column by column, in slices of about
    10^6 characters; pre-ranked input and any input that needs quoting, a
    line-numbered error or a warning go through the row loop.
    """
    if options is None:
        options = IngestOptions()
    parsed = _parse_columns(text, options, labels)
    return parsed if parsed is not None else _parse_rows(text.removeprefix("\ufeff"), options, labels)


# Characters per slice of the column parse. A slice ends just after a
# newline, so it holds whole lines and never splits a CRLF pair; its lines
# and cells are the only per-row objects alive at once.
_SLICE = 1 << 20


def _slices(text: str) -> Iterator[str]:
    start = 1 if text.startswith("\ufeff") else 0  # a byte-order mark is skipped, not copied away
    while start < len(text):
        end = text.find("\n", start + _SLICE - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _parse_columns(text: str, options: IngestOptions, labels: bool) -> tuple[RankedSeries, list[str]] | None:
    """Parse a raw-mode table the row loop would accept without error or warning.

    Returns None unless the input shows that splitting on newlines and the
    delimiter gives the rows ``csv.reader`` would: no quote character, no
    carriage return outside a CRLF pair, no NUL (``csv.reader`` rejects it
    before Python 3.11), no line over the csv field size limit, the same
    width on every non-blank line, and (past an optional header on the
    first non-blank line) every value finite and positive. Blank lines are
    skipped, as the row loop skips them. ``float`` strips less than
    ``str.strip`` (not U+001C..U+001F), so such a cell falls back rather
    than parsing differently. Pre-ranked input always goes through the row
    loop.
    """
    if options.mode != "raw":
        return None
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    limit = csv.field_size_limit()
    delimiter = options.delimiter
    width, header = 0, False
    value_parts: list[np.ndarray] = []
    label_parts: list[list[str]] = []
    for piece in _slices(text):
        lines = list(filter(str.strip, piece.replace("\r\n", "\n").split("\n")))
        if not lines:
            continue
        if max(map(len, lines)) > limit:
            return None
        if not width:
            width = lines[0].count(delimiter) + 1
            if width > 2:
                return None
            header = not _looks_numeric(lines[0].rsplit(delimiter, 1)[-1].strip())
        if set(map(str.count, lines, repeat(delimiter))) != {width - 1}:
            return None
        if header:
            del lines[0]
            header = False
            if not lines:
                continue
        cells = delimiter.join(lines).split(delimiter)
        try:
            values = np.fromiter(map(float, cells[width - 1 :: width]), np.float64, len(lines))
        except ValueError:
            return None
        if not (np.isfinite(values).all() and (values > 0).all()):
            return None
        value_parts.append(values)
        if width == 2 and labels:
            label_parts.append(list(map(str.strip, cells[::2])))
    if not value_parts:
        return None
    return rank_raw(np.concatenate(value_parts), tuple(chain.from_iterable(label_parts)) if label_parts else None), []


def _parse_rows(text: str, options: IngestOptions, labels: bool = True) -> tuple[RankedSeries, list[str]]:
    """Parse row by row with ``csv.reader``: the reference for ``parse_csv``.

    The only path that reads quoted fields, names the line of an error and
    produces drop warnings.
    """
    reader = csv.reader(io.StringIO(text), delimiter=options.delimiter)
    rows: list[tuple[int, list[str]]] = []
    try:
        for cells in reader:
            if not cells or all(c.strip() == "" for c in cells):
                continue
            rows.append((reader.line_num, [c.strip() for c in cells]))
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise ValidationError("input contains no data rows")

    width = len(rows[0][1])
    if options.mode == "raw":
        valid_widths, value_col = (1, 2), width - 1
    else:
        valid_widths, value_col = (2, 3), width - 1
    if width not in valid_widths:
        raise ParseError(
            f"expected {' or '.join(map(str, valid_widths))} columns in {options.mode} mode, found {width}",
            line=rows[0][0],
        )
    if not _looks_numeric(rows[0][1][value_col]):
        rows = rows[1:]  # header row
        if not rows:
            raise ValidationError("input contains no data rows")

    has_labels = labels and width == valid_widths[1]
    warnings: list[str] = []
    parsed: list[tuple[int, float, str | None]] = []  # (rank or line, value, label)
    for line, cells in rows:
        if len(cells) != width:
            raise ParseError(f"expected {width} columns, found {len(cells)}", line=line)
        value = _parse_value(cells[value_col], line)
        key = line if options.mode == "raw" else _parse_rank(cells[0], line)
        label = cells[-2] if has_labels else None
        if value <= 0:
            if options.zero_policy == "reject":
                raise ValidationError(f"non-positive value {value!r}", line=line)
            warnings.append(f"line {line}: dropped non-positive value {value!r}")
            parsed.append((key, value, label))  # kept for rank validation, dropped below
            continue
        parsed.append((key, value, label))

    if options.mode == "pre-ranked":
        expected = set(range(1, len(parsed) + 1))
        seen: set[int] = set()
        for line_row, (rank, _, _) in zip(rows, parsed):
            if rank in seen:
                raise ValidationError(f"duplicate rank {rank}", line=line_row[0])
            seen.add(rank)
        missing = sorted(expected - seen)
        if missing:
            raise ValidationError(f"ranks are not a permutation of 1..{len(parsed)}: missing {missing}")
        parsed.sort(key=lambda item: item[0])

    kept = [(v, lab) for _, v, lab in parsed if v > 0]
    if not kept:
        raise ValidationError("all rows were dropped; no positive values remain")
    values = np.array([v for v, _ in kept], dtype=np.float64)
    kept_labels = tuple(lab for _, lab in kept) if has_labels else None

    if options.mode == "raw":
        return rank_raw(values, kept_labels), warnings
    return RankedSeries(values, kept_labels), warnings
