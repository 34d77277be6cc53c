"""RankedSeries construction, raw ranking, and CSV parsing."""

from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ranklaws as rl
import ingest_reference
from ingest_reference import _parse_rows
from ranklaws import ingest

positive_floats = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)


class TestRankedSeries:
    def test_basic_construction(self):
        s = rl.RankedSeries(np.array([5.0, 3.0, 3.0, 1.0]))
        assert s.n == 4
        assert len(s) == 4
        assert s.ranks.tolist() == [1, 2, 3, 4]

    def test_values_are_read_only(self):
        s = rl.RankedSeries(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_does_not_alias_caller_array(self):
        arr = np.array([2.0, 1.0])
        s = rl.RankedSeries(arr)
        arr[0] = 99.0
        assert s.values[0] == 2.0

    def test_entries_iterates_in_rank_order(self):
        s = rl.RankedSeries(np.array([4.0, 2.0]), labels=("x", "y"))
        assert list(s.entries()) == [(1, 4.0, "x"), (2, 2.0, "y")]

    def test_repr_shows_python_floats(self):
        assert repr(rl.RankedSeries([2.0, 1.0])) == "RankedSeries(n=2, max=2.0, min=1.0)"

    def test_equality(self):
        a = rl.RankedSeries(np.array([2.0, 1.0]))
        b = rl.RankedSeries(np.array([2.0, 1.0]))
        c = rl.RankedSeries(np.array([2.0, 0.5]))
        assert a == b
        assert a != c
        assert a != "not a series"

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1.0, 2.0],             # increasing
            [2.0, -1.0],            # non-positive
            [2.0, 0.0],
            [math.inf, 1.0],        # non-finite
            [2.0, math.nan],
        ],
    )
    def test_invariant_violations_rejected(self, values):
        with pytest.raises(rl.ValidationError):
            rl.RankedSeries(np.array(values, dtype=float))

    def test_label_count_must_match(self):
        with pytest.raises(rl.ValidationError, match="labels"):
            rl.RankedSeries(np.array([2.0, 1.0]), labels=("only-one",))


class TestRankRaw:
    def test_ties_keep_input_order_with_distinct_ranks(self):
        s = rl.rank_raw([2, 7, 7, 1], labels=("a", "b", "c", "d"))
        assert s.values.tolist() == [7.0, 7.0, 2.0, 1.0]
        assert s.ranks.tolist() == [1, 2, 3, 4]
        assert s.labels == ("b", "c", "a", "d")

    def test_singleton(self):
        s = rl.rank_raw([3.14])
        assert s.n == 1
        assert s.values[0] == 3.14

    def test_empty_rejected(self):
        with pytest.raises(rl.ValidationError, match="empty"):
            rl.rank_raw([])

    def test_non_positive_rejected(self):
        with pytest.raises(rl.ValidationError, match="positive"):
            rl.rank_raw([3.0, 0.0])

    @pytest.mark.parametrize(
        "values", [[], [math.nan], [math.inf, 1.0], [2.0, 0.0], [2.0, -1.0], [[1.0, 1.0], [1.0, 1.0]]]
    )
    def test_rejects_with_the_series_text(self, values):
        # RankedSeries owns the series checks, so rank_raw fails with its exact text.
        with pytest.raises(rl.ValidationError) as by_series:
            rl.RankedSeries(np.array(values, dtype=float))
        with pytest.raises(rl.ValidationError) as by_rank_raw:
            rl.rank_raw(values)
        assert str(by_rank_raw.value) == str(by_series.value)

    @pytest.mark.parametrize("make", [rl.RankedSeries, rl.rank_raw], ids=["RankedSeries", "rank_raw"])
    @pytest.mark.parametrize("values", [["x", "1"], [[1, 2], [3]], "abc", [1j, 1], np.array([2 + 5j, 1]),
                                        [np.complex128(2 + 5j), 1.0], np.array([2 + 0j, 1]), {"a": 1}, [object()],
                                        [10**400, 1]],
                             ids=["str", "ragged", "bare-str", "complex", "complex-array", "numpy-complex",
                                  "complex-zero-imaginary", "dict", "object", "huge-int"])
    def test_non_numeric_values_are_validation_errors(self, make, values):
        with pytest.raises(rl.ValidationError, match="^values must be real numbers: "):
            make(values)

    @pytest.mark.parametrize("make", [rl.RankedSeries, rl.rank_raw], ids=["RankedSeries", "rank_raw"])
    def test_numeric_strings_accepted(self, make):
        assert make(["3", "1"]).values.tolist() == [3.0, 1.0]

    def test_label_count_must_match(self):
        with pytest.raises(rl.ValidationError) as info:
            rl.rank_raw([2.0, 1.0], labels=["a"])
        assert str(info.value) == "got 1 labels for 2 values"

    @given(st.lists(positive_floats, min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_output_satisfies_series_invariants(self, values):
        s = rl.rank_raw(values)
        assert s.n == len(values)
        assert np.all(np.diff(s.values) <= 0)
        assert np.all(s.values > 0)
        assert np.all(np.isfinite(s.values))

    @given(st.lists(st.sampled_from([1e-300, 5e-324, 0.1, 1.0, 2.0, 3.5, 2.0**60, 1e300]), min_size=1, max_size=80),
           st.sampled_from([None, math.nan, 0.0, -0.0, -2.0]), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_unlabelled_matches_stable_argsort(self, values, bad, where):
        # Without labels rank_raw sorts the values, not their indices: the same series bit for bit on
        # tie-heavy input, and the same error text where an entry is not finite and positive.
        if bad is not None:
            values.insert(where % (len(values) + 1), bad)
        arr = np.array(values)
        try:
            expected = rl.RankedSeries(arr[np.argsort(-arr, kind="stable")])
        except rl.ValidationError as exc:
            with pytest.raises(rl.ValidationError) as info:
                rl.rank_raw(arr)
            assert str(info.value) == str(exc)
        else:
            assert rl.rank_raw(arr).values.tobytes() == expected.values.tobytes()

    @given(st.lists(positive_floats, min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_idempotent_through_round_trip(self, values):
        once = rl.rank_raw(values)
        again = rl.rank_raw(once.values)
        assert once == again


class TestParseCsvRaw:
    def test_values_sorted_and_ranked(self):
        series, warnings = rl.parse_csv("5.0\n1.0\n3.0")
        assert series.values.tolist() == [5.0, 3.0, 1.0]
        assert series.ranks.tolist() == [1, 2, 3]
        assert warnings == []

    def test_label_column(self):
        series, _ = rl.parse_csv("alpha,2.0\nbeta,9.0\n")
        assert series.values.tolist() == [9.0, 2.0]
        assert series.labels == ("beta", "alpha")

    def test_header_detected_by_non_numeric_value_cell(self):
        series, _ = rl.parse_csv("value\n5.0\n3.0")
        assert series.n == 2

    def test_header_with_labels(self):
        series, _ = rl.parse_csv("journal,impact\nA,4.0\nB,6.0")
        assert series.values.tolist() == [6.0, 4.0]
        assert series.labels == ("B", "A")

    def test_drop_policy_warns_with_line_number(self):
        options = rl.IngestOptions(zero_policy="drop")
        series, warnings = rl.parse_csv("4.0\n0.0\n2.0", options)
        assert series.values.tolist() == [4.0, 2.0]
        assert len(warnings) == 1
        assert "line 2" in warnings[0]

    def test_unlabelled_drop_gives_labelled_values(self):
        text = "a,4.0\nb,0\nc,2.0\nd,4.0\ne,-1\nf,2.0\ng,9.5\n"
        options = rl.IngestOptions(zero_policy="drop")
        labelled, labelled_warnings = rl.parse_csv(text, options)
        unlabelled, warnings = rl.parse_csv(text, options, labels=False)
        assert unlabelled.values.tobytes() == labelled.values.tobytes()
        assert unlabelled.labels is None and labelled.labels == ("g", "a", "d", "c", "f")
        assert warnings == labelled_warnings and len(warnings) == 2

    def test_reject_policy_names_line(self):
        with pytest.raises(rl.ValidationError, match="line 2"):
            rl.parse_csv("4.0\n0.0\n2.0", rl.IngestOptions(zero_policy="reject"))

    def test_all_rows_dropped_is_an_error(self):
        with pytest.raises(rl.ValidationError, match="no positive values"):
            rl.parse_csv("0.0\n-1.0", rl.IngestOptions(zero_policy="drop"))

    def test_non_numeric_value_is_parse_error_with_line(self):
        with pytest.raises(rl.ParseError, match="line 2"):
            rl.parse_csv("4.0\nbogus\n2.0")

    def test_non_finite_value_rejected(self):
        with pytest.raises(rl.ParseError, match="finite"):
            rl.parse_csv("4.0\ninf")

    def test_empty_input_rejected(self):
        with pytest.raises(rl.ValidationError, match="no data rows"):
            rl.parse_csv("")

    def test_header_only_input_rejected(self):
        with pytest.raises(rl.ValidationError, match="no data rows"):
            rl.parse_csv("value\n")

    def test_blank_lines_skipped(self):
        series, _ = rl.parse_csv("\n5.0\n\n3.0\n\n")
        assert series.n == 2

    def test_crlf_input(self):
        series, _ = rl.parse_csv("5.0\r\n3.0\r\n")
        assert series.values.tolist() == [5.0, 3.0]

    def test_bare_carriage_return_is_parse_error_with_line(self):
        with pytest.raises(rl.ParseError, match="^line 1: "):
            rl.parse_csv("a\rb,1.0\nc,2.0\n")

    @pytest.mark.parametrize(
        "text, n",
        [
            ("\ufeff5\n3\n2\n1\n", 4),
            ('\ufeff"5"\n3\n2\n1\n', 4),  # quoted: row loop
            ("\ufeffvalue\n5\n3\n2\n", 3),
        ],
    )
    def test_leading_byte_order_mark_ignored(self, text, n):
        series, _ = rl.parse_csv(text)
        assert series.n == n
        assert series.values[0] == 5.0

    def test_tab_delimiter(self):
        options = rl.IngestOptions(delimiter="\t")
        series, _ = rl.parse_csv("x\t2.0\ny\t8.0", options)
        assert series.values.tolist() == [8.0, 2.0]

    def test_scientific_notation_and_padding(self):
        series, _ = rl.parse_csv(" 5e3 \n 2.5 ")
        assert series.values.tolist() == [5000.0, 2.5]

    def test_too_many_columns(self):
        with pytest.raises(rl.ParseError, match="columns"):
            rl.parse_csv("a,b,2.0\nc,d,1.0")

    def test_ragged_row_rejected(self):
        with pytest.raises(rl.ParseError, match="line 2"):
            rl.parse_csv("a,2.0\n3.0")


class TestParseCsvPreRanked:
    OPTIONS = rl.IngestOptions(mode="pre-ranked")

    def test_ties_allowed_when_non_increasing(self):
        series, _ = rl.parse_csv("1,2.0\n2,2.0\n3,0.5", self.OPTIONS)
        assert series.values.tolist() == [2.0, 2.0, 0.5]

    def test_rows_resorted_by_rank(self):
        series, _ = rl.parse_csv("2,1.0\n1,5.0", self.OPTIONS)
        assert series.values.tolist() == [5.0, 1.0]

    def test_rank_label_value_schema(self):
        series, _ = rl.parse_csv("2,second,1.0\n1,first,5.0", self.OPTIONS)
        assert series.labels == ("first", "second")

    def test_duplicate_rank_rejected(self):
        with pytest.raises(rl.ValidationError, match="duplicate rank"):
            rl.parse_csv("1,5.0\n1,3.0", self.OPTIONS)

    def test_gap_in_ranks_rejected(self):
        with pytest.raises(rl.ValidationError, match="permutation"):
            rl.parse_csv("1,5.0\n3,3.0", self.OPTIONS)

    def test_missing_ranks_listed_up_to_ten(self):
        text = "id,impact\n" + "".join(f"{1000 + i},{50 - i}\n" for i in range(50))
        with pytest.raises(rl.ValidationError) as info:
            rl.parse_csv(text, self.OPTIONS)
        assert str(info.value) == (
            "ranks are not a permutation of 1..50: missing [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 40 more")
        with pytest.raises(rl.ValidationError) as info:
            rl.parse_csv("".join(f"{r},{30 - r}\n" for r in range(11, 21)), self.OPTIONS)
        assert str(info.value) == "ranks are not a permutation of 1..10: missing [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"

    def test_increasing_values_rejected(self):
        with pytest.raises(rl.ValidationError, match="non-increasing"):
            rl.parse_csv("1,1.0\n2,5.0", self.OPTIONS)

    def test_non_integer_rank_rejected(self):
        with pytest.raises(rl.ParseError, match="rank"):
            rl.parse_csv("1.5,5.0", self.OPTIONS)

    def test_header_detected(self):
        series, _ = rl.parse_csv("rank,value\n1,5.0\n2,3.0", self.OPTIONS)
        assert series.n == 2

    def test_drop_policy_revalidates_and_renumbers(self):
        options = rl.IngestOptions(mode="pre-ranked", zero_policy="drop")
        series, warnings = rl.parse_csv("1,4.0\n2,0.0\n3,2.0", options)
        assert series.values.tolist() == [4.0, 2.0]
        assert series.ranks.tolist() == [1, 2]
        assert "line 2" in warnings[0]

    def test_dropped_rows_still_count_for_permutation(self):
        options = rl.IngestOptions(mode="pre-ranked", zero_policy="drop")
        with pytest.raises(rl.ValidationError, match="permutation"):
            rl.parse_csv("1,4.0\n5,0.0\n3,2.0", options)


# Value cells the row loop rejects, warns about, or reads otherwise than a plain split and float() would.
ODD_VALUES = st.sampled_from(
    ["0", "-0", "1e-400", "-1.5", "inf", "-inf", "nan", "1e400", "", " ", "x", "1.5.2", "\x1c2", '"3"']
)
CLEAN_VALUES = st.one_of(positive_floats.map(repr), st.sampled_from(["7", " 2.5 ", "1e3", "+4"]))
LABELS = st.text(alphabet="abXY _-.09\u00a0\x00", max_size=4)


@st.composite
def tables(draw):
    """A clean table, then up to three edits that make a row faulty, dropped, quoted or blank."""
    mode = draw(st.sampled_from(["raw", "pre-ranked"]))
    delimiter = draw(st.sampled_from([",", "\t"]))
    options = rl.IngestOptions(mode=mode, zero_policy=draw(st.sampled_from(["reject", "drop"])), delimiter=delimiter)
    width = draw(st.sampled_from((1, 2) if mode == "raw" else (2, 3)))
    n = draw(st.integers(1, 8))
    values = sorted(draw(st.lists(CLEAN_VALUES, min_size=n, max_size=n)), key=float, reverse=True)
    rows = []
    for rank in draw(st.permutations(range(1, n + 1))):
        row = [draw(LABELS) for _ in range(width - 1)] + [values[rank - 1]]
        if mode == "pre-ranked":
            row[0] = str(rank)
        rows.append(row)
    if draw(st.booleans()):
        rows.insert(0, [draw(st.sampled_from(["rank", "label", "value", "", "1"])) for _ in range(width)])
    edits = draw(st.lists(st.sampled_from(["value", "cell", "ragged", "blank", "label", "quote", "cr"]), max_size=3))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    for edit in [e for e in edits if e not in ("quote", "cr")]:
        i = draw(st.integers(0, len(rows) - 1))
        if edit == "label":  # a quoted record over two lines, so slices can cut inside it
            if len(rows[i]) > 1:
                rows[i][-2] = f'"{draw(LABELS)}{delimiter}{draw(LABELS)}{eol}{draw(LABELS)}"'
        elif edit == "value":
            rows[i][-1] = draw(ODD_VALUES)
        elif edit == "cell":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.text(alphabet="0123456789+-.eEinfa x", max_size=5))
        elif edit == "ragged":
            rows[i] = rows[i][:-1] if len(rows[i]) > 1 else rows[i] + ["1"]
        else:
            rows.insert(i, draw(st.sampled_from([[""], [" "], ["", ""]])))
    text = eol.join(delimiter.join(row) for row in rows) + draw(st.sampled_from([eol, ""]))
    for edit in [e for e in edits if e in ("quote", "cr")]:
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + ('"' if edit == "quote" else "\r") + text[pos:]
    return draw(st.sampled_from(["", "\ufeff"])) + text, options


# The default slice, and sizes that cut tables inside headers, blank lines, CRLF pairs and quoted records.
SLICE_SIZES = [ingest._SLICE, 1, 7, 64]


def _outcome(parse, text, options, **kwargs):
    try:
        return parse(text, options, **kwargs)
    except rl.RankLawsError as exc:
        return type(exc), str(exc)


class TestColumnPath:
    """parse_csv against the row loop it replaced, kept in tests/ingest_reference.py."""

    @given(tables())
    @example(("4.0\ninf\n2.0\n", rl.IngestOptions()))
    @example(("a,4.0\nb,0\nc,2.0\n", rl.IngestOptions(zero_policy="drop")))
    @example(("1,4.0\n3,-1\n2,2.0\n", rl.IngestOptions(mode="pre-ranked", zero_policy="drop")))
    @example(("1,4.0\n1,2.0\n", rl.IngestOptions(mode="pre-ranked")))
    @example(("a,2.0\nb,0\nc,2.0\nd,4.0\n", rl.IngestOptions(zero_policy="drop")))  # labels ('d', 'a', 'c')
    @example(("1,a,4.0\n3,b,-1\n2,c,2.0\n", rl.IngestOptions(mode="pre-ranked", zero_policy="drop")))  # ('a', 'c')
    @example(("value\n\n4.0\n2.0\n", rl.IngestOptions()))
    @example(("\t\n \n4.0\n\t \n2.0\n\n", rl.IngestOptions(delimiter="\t")))
    @example(("a\x00b,4.0\nc,2.0\n", rl.IngestOptions()))
    @example(("5,4.0\n2.0\n3,7,1.0\n", rl.IngestOptions()))  # ragged rows with the right cell count
    @example(('"a,b",4.0\nc,2.0\n', rl.IngestOptions()))
    @example(("x" * 200_000 + ",4.0\n", rl.IngestOptions()))
    @example(("4.0\nx\n2.0\na\rb\n", rl.IngestOptions()))  # a malformed record after a bad cell
    @example(("1,4.0\n1,2.0\n3,x\n", rl.IngestOptions(mode="pre-ranked")))  # a bad cell after a duplicate
    @example(('rank,label,value\n2,"a\nb",4.0\n1,c,5.0\n2,d,3.0\n', rl.IngestOptions(mode="pre-ranked")))
    @example(("1,5\n99999999999999999999,4\n99999999999999999999,3\n", rl.IngestOptions(mode="pre-ranked")))
    @example(("1,5\n4611686018427387904,4\n-4611686018427387904,3\n", rl.IngestOptions(mode="pre-ranked")))
    # First rows the header rule decides: a value cell that converts is data or an error, never a header.
    @example(("inf\n2.0\n", rl.IngestOptions()))
    @example(("nan\n2.0\n", rl.IngestOptions()))
    @example(("1e400\n2.0\n", rl.IngestOptions()))
    @example(("journal,\na,4.0\nb,2.0\n", rl.IngestOptions()))  # an empty value cell: a header
    @example(("1_000\n2.0\n", rl.IngestOptions()))
    @example(("x,4.0\n1,2.0\n", rl.IngestOptions(mode="pre-ranked")))  # a rank error, not a header
    @example(("\ufeffjournal,impact\na,4.0\nb,2.0\n", rl.IngestOptions()))
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_row_loop(self, table):
        text, options = table
        expected = _outcome(_parse_rows, text.removeprefix("\ufeff"), options)
        unlabelled = expected
        if not isinstance(expected[0], type):  # an error does not depend on labels
            unlabelled = rl.RankedSeries(expected[0].values), expected[1]
        assert _outcome(_parse_rows, text.removeprefix("\ufeff"), options, labels=False) == unlabelled
        saved = ingest._SLICE
        try:
            for size in SLICE_SIZES:
                ingest._SLICE = size
                assert _outcome(rl.parse_csv, text, options) == expected
                assert _outcome(rl.parse_csv, text, options, labels=False) == unlabelled
        finally:
            ingest._SLICE = saved

    def test_reference_holds_its_own_converters(self):
        tree = ast.parse(Path(ingest_reference.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "ranklaws.ingest" for alias in node.names]
        assert imported and not [name for name in imported if name.startswith("_")]

    @pytest.mark.parametrize(
        "text, options, values, labels",
        [
            ("5.0\n1.0\n3.0\n", rl.IngestOptions(), [5.0, 3.0, 1.0], None),
            ("journal,impact\nA,4.0\nB,6.0\n", rl.IngestOptions(), [6.0, 4.0], ("B", "A")),
            ("5.0\r\n3.0\r\n", rl.IngestOptions(), [5.0, 3.0], None),
            ("x\t2.0\ny\t8.0", rl.IngestOptions(delimiter="\t"), [8.0, 2.0], ("y", "x")),
            ("label,value\n\nA,4.0\n \nB,6.0\n\n", rl.IngestOptions(), [6.0, 4.0], ("B", "A")),
            ("label,value\r\n\r\n\r\nA,4.0\r\nB,6.0\r\n\r\nC,5.0", rl.IngestOptions(), [6.0, 5.0, 4.0], ("B", "C", "A")),
            ("\ufeff\nlabel,value\nA,4.0\n", rl.IngestOptions(), [4.0], ("A",)),
        ],
    )
    def test_clean_tables_at_every_slice_size(self, monkeypatch, text, options, values, labels):
        for slice_chars in SLICE_SIZES:
            monkeypatch.setattr(ingest, "_SLICE", slice_chars)
            series, warnings = rl.parse_csv(text, options)
            assert (series.values.tolist(), series.labels, warnings) == (values, labels, [])
            series, warnings = rl.parse_csv(text, options, labels=False)
            assert (series.values.tolist(), series.labels, warnings) == (values, None, [])

    def test_unlabelled_parse_peak_stays_within_four_times_the_text(self):
        text = "journal,impact\n" + "".join(f"J{i:07d},{v!r}\n" for i, v in enumerate(_impacts()))
        series, peak = _parse_peak(text, rl.IngestOptions())
        assert series.n == 200_000
        assert peak < 2 * len(text)

    def test_dropped_and_quoted_rows_parse_within_twice_the_text(self):
        rows = "".join(f"J{i:07d},{v!r}\n" for i, v in enumerate(_impacts()))
        text = 'journal,impact\n"New, Journal",0\n"Quoted, Journal",1.5\n' + rows
        series, peak = _parse_peak(text, rl.IngestOptions(zero_policy="drop"))
        assert series.n == 200_001
        assert peak < 2 * len(text)

    def test_pre_ranked_parse_peak_stays_within_four_times_the_text(self):
        values = sorted(_impacts(), reverse=True)
        text = "rank,impact\n" + "".join(f"{i + 1},{v!r}\n" for i, v in enumerate(values))
        series, peak = _parse_peak(text, rl.IngestOptions(mode="pre-ranked"))
        assert series.n == 200_000
        assert peak < 4 * len(text)


def _impacts() -> list[float]:
    return np.random.default_rng(7).lognormal(size=200_000).tolist()


def _parse_peak(text, options):
    """Parse as the CLI does, without labels; returns the series and the traced peak in bytes."""
    tracemalloc.start()
    try:
        series, _ = rl.parse_csv(text, options, labels=False)
        return series, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIngestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sorted"},
            {"zero_policy": "ignore"},
            {"delimiter": ",,"},
            {"delimiter": ""},
            {"delimiter": "\x00"},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(rl.ValidationError):
            rl.IngestOptions(**kwargs)

    def test_defaults(self):
        options = rl.IngestOptions()
        assert options.mode == "raw"
        assert options.zero_policy == "reject"
        assert options.delimiter == ","

    def test_every_accepted_delimiter_parses_or_fails_cleanly(self):
        # csv.reader rejects '"' as a delimiter from Python 3.13 on, with a ValueError no caller maps;
        # a character that occurs in numbers would split a value cell into other numbers.
        accepted = []
        for char in ["\t", *map(chr, range(32, 127))]:
            try:
                options = rl.IngestOptions(delimiter=char)
            except rl.ValidationError:
                continue
            accepted.append(char)
            _outcome(rl.parse_csv, f"a{char}4.0\nb{char}2.0\n", options)
            _outcome(rl.parse_csv, f"1{char}4.0\n2{char}2.0\n", rl.IngestOptions(mode="pre-ranked", delimiter=char))
        assert set(map(chr, range(32, 127))) - set(accepted) == {'"', *"0123456789.+-eE_"}
