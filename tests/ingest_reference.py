"""The row loop ``parse_csv`` once used: the reference its tests compare against.

``_parse_rows`` lists every row ``csv.reader`` gives before it converts
any, so it reports a malformed record anywhere in the text before an error
in a cell. It expects text without a leading byte-order mark. It holds its
own cell converters, so it does not share code with the parser it checks.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from ranklaws.errors import ParseError, ValidationError
from ranklaws.ingest import IngestOptions, RankedSeries, rank_raw


def _parse_value(cell: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"could not parse value {cell!r} as a number", line=line) from None
    if not math.isfinite(value):
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
