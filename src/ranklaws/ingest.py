"""Parsing and validation of rank-ordered series.

A RankedSeries is the package's core data shape: values sorted in
decreasing order with dense integer ranks 1..n attached. Raw unordered
values get ranked by a stable descending sort, so ties keep their input
order and still receive distinct consecutive ranks.

``parse_csv`` reads every table in one streaming ``csv.reader`` pass and
keeps per row only what the series needs.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from .errors import Checked, ParseError, ValidationError


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
        values = _as_values(self.values)
        if values.size == 0:
            raise ValidationError("values must not be empty")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values must all be finite")
        if not np.all(values > 0):
            raise ValidationError("values must all be strictly positive")
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
        return f"RankedSeries(n={self.n}, max={float(self.values[0])}, min={float(self.values[-1])})"


@dataclass(frozen=True)
class IngestOptions(Checked):
    """How tabular input is interpreted.

    mode "raw" expects a value column (optionally preceded by a label
    column) and assigns ranks by sorting; mode "pre-ranked" expects an
    explicit rank column and validates it. Non-positive values are either
    rejected (library default) or dropped with a warning.
    """

    mode: str = "raw"
    zero_policy: str = "reject"
    delimiter: str = ","


def _as_values(values) -> np.ndarray:
    """``values`` as a one-dimensional float64 array, not copied if it is one already."""
    try:
        if np.iscomplexobj(values):  # numpy would drop the imaginary parts with only a warning
            raise TypeError("got complex values")
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # not numbers, ragged, or an int past double range
        raise ValidationError(f"values must be real numbers: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(f"values must be one-dimensional, got shape {arr.shape}")
    return arr


def rank_raw(values: Sequence[float] | np.ndarray, labels: Sequence[str] | None = None) -> RankedSeries:
    """Rank raw values by a stable descending sort.

    Equal values keep their input order and get distinct consecutive
    ranks. RankedSeries checks that the values are finite and strictly
    positive; there is no drop policy at this level. Without labels the
    values themselves are sorted, several times faster than sorting their
    indices: equal positive doubles have the same bits, so the series is
    the same.
    """
    arr = _as_values(values)
    if labels is None:
        return RankedSeries(np.sort(arr)[::-1])
    labels = tuple(labels)
    if len(labels) != arr.size:
        raise ValidationError(f"got {len(labels)} labels for {arr.size} values")
    order = np.argsort(-arr, kind="stable")
    return RankedSeries(arr[order], tuple(map(labels.__getitem__, order.tolist())))


def parse_csv(
    text: str, options: IngestOptions | None = None, *, labels: bool = True
) -> tuple[RankedSeries, list[str]]:
    """Parse delimited text into a RankedSeries plus a list of warnings.

    Column layout by mode (detected from the first data row's width):

    * raw:        ``value`` or ``label,value``
    * pre-ranked: ``rank,value`` or ``rank,label,value``

    Blank rows are skipped, and the first non-blank row is a header when
    its value cell does not convert to a float (``inf`` and ``nan`` do, so
    they are errors, not headers). Under the "drop" policy, rows with
    non-positive values are dropped and reported in the warnings; in
    pre-ranked mode the surviving rows are re-numbered densely after the
    original ranks have been validated as a permutation of 1..n. One
    leading byte-order mark (U+FEFF) is ignored. With ``labels=False`` a
    label column is still checked for width but its cells are not kept, and
    the series has no labels.

    The text goes through ``csv.reader`` once, in slices of about 10^6
    characters; each row leaves only its value, rank and kept label behind.
    A malformed CSV record anywhere in the text is reported before an error
    in any cell. Raw rows without kept labels are filtered of dropped rows
    and handed to ``rank_raw``. Other rows are ordered (by validated rank,
    or by ``rank_raw``'s stable sort), filtered of dropped rows and
    gathered, values and labels, once.
    """
    if options is None:
        options = IngestOptions()
    reader = _reader(text, options.delimiter)
    try:
        try:
            values, ranks, row_labels, warnings, header = _read_rows(reader, options, labels)
        except ValidationError:
            for _ in reader:  # a malformed record later in the text is reported first
                pass
            raise
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not values:
        raise ValidationError("input contains no data rows")

    kept = np.frombuffer(values)
    if options.mode == "raw" and row_labels is None:
        if warnings:
            kept = kept[kept > 0]
            if not kept.size:
                raise ValidationError(_ALL_DROPPED)
        return rank_raw(kept), warnings
    if options.mode == "pre-ranked":
        ranks = np.frombuffer(ranks, np.int64)
        order = np.argsort(ranks, kind="stable")
        ordered = ranks[order]
        repeats = order[1:][ordered[1:] == ordered[:-1]]
        if repeats.size:
            line, cells = _find_row(text, options.delimiter, int(repeats.min()) + header)
            raise ValidationError(f"duplicate rank {int(cells[0].strip())}", line=line)
        missing = np.setdiff1d(np.arange(1, kept.size + 1), ordered, assume_unique=True)
        if missing.size:
            more = f" and {missing.size - 10} more" if missing.size > 10 else ""
            raise ValidationError(f"ranks are not a permutation of 1..{kept.size}: "
                                  f"missing {missing[:10].tolist()}{more}")
    else:
        order = np.argsort(-kept, kind="stable")  # rank_raw's sort, carrying the labels
    if warnings:
        order = order[kept[order] > 0]
        if not order.size:
            raise ValidationError(_ALL_DROPPED)
    if row_labels is not None:
        row_labels = tuple(map(row_labels.__getitem__, order.tolist()))
    return RankedSeries(kept[order], row_labels), warnings


# Characters per slice fed to csv.reader. A slice ends just after a
# newline, so the reader sees the same lines as for the whole text, while
# a StringIO (4 bytes per character) holds one slice at a time.
_SLICE = 1 << 20

# A rank of this magnitude or more is stored as _HUGE plus an index per
# distinct value, so that any int fits the int64 rank array.
_HUGE = 1 << 62
_INF = float("inf")
_ALL_DROPPED = "all rows were dropped; no positive values remain"


def _slices(text: str) -> Iterator[str]:
    start = 1 if text.startswith("\ufeff") else 0  # a byte-order mark is skipped, not copied away
    while start < len(text):
        end = text.find("\n", start + _SLICE - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _reader(text: str, delimiter: str):
    return csv.reader(chain.from_iterable(map(io.StringIO, _slices(text))), delimiter=delimiter)


def _read_rows(reader, options: IngestOptions, labels: bool):
    """Convert each row as ``reader`` yields it; returns (values, ranks, labels, warnings, header).

    A row whose cells convert at once to a finite positive value is taken
    without stripping: ``float`` and ``int`` strip a subset of what
    ``str.strip`` does, so they read such a cell as its stripped text. Every
    other row (blank, the first, faulty, or one to drop) is stripped and
    checked in the order that picks which error to report; the first
    non-blank row is the header exactly when ``float`` of its stripped value
    cell raises. Dropped rows stay in the values until their ranks are
    validated.
    """
    pre_ranked = options.mode == "pre-ranked"
    widths = (2, 3) if pre_ranked else (1, 2)
    values = array("d")
    ranks = array("q")
    huge: dict[int, int] = {}
    row_labels: list[str] | None = None
    warnings: list[str] = []
    width, header, rank = None, False, 0
    for cells in reader:
        value = 0.0
        if len(cells) == width:
            try:
                value = float(cells[-1])
                if pre_ranked:
                    rank = int(cells[0])
            except ValueError:
                value = 0.0
        if not 0.0 < value < _INF:
            cells = [c.strip() for c in cells]
            if not any(cells):
                continue
            line = reader.line_num
            if width is None:
                width = len(cells)
                if width not in widths:
                    raise ParseError(
                        f"expected {widths[0]} or {widths[1]} columns in {options.mode} mode, found {width}", line=line
                    )
                if labels and width == widths[1]:
                    row_labels = []
            elif len(cells) != width:
                raise ParseError(f"expected {width} columns, found {len(cells)}", line=line)
            try:
                value = float(cells[-1])
            except ValueError:
                if not (values or header):  # the first non-blank row is a header
                    header = True
                    continue
                raise ParseError(f"could not parse value {cells[-1]!r} as a number", line=line) from None
            if not math.isfinite(value):
                raise ParseError(f"value {cells[-1]!r} is not finite", line=line)
            if pre_ranked:
                try:
                    rank = int(cells[0])
                except ValueError:
                    raise ParseError(f"could not parse rank {cells[0]!r} as an integer", line=line) from None
            if value <= 0:
                if options.zero_policy == "reject":
                    raise ValidationError(f"non-positive value {value!r}", line=line)
                warnings.append(f"line {line}: dropped non-positive value {value!r}")
        values.append(value)
        if pre_ranked:
            ranks.append(rank if -_HUGE < rank < _HUGE else _HUGE + huge.setdefault(rank, len(huge)))
        if row_labels is not None:
            row_labels.append(cells[-2].strip())
    return values, ranks, row_labels, warnings, header


def _find_row(text: str, delimiter: str, index: int) -> tuple[int, list[str]]:
    """Read the text again for the line number and cells of non-blank row ``index``."""
    reader = _reader(text, delimiter)
    rows = ((reader.line_num, cells) for cells in reader if any(map(str.strip, cells)))
    return next(islice(rows, index, None))
