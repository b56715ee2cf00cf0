import codecs
import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missgraph import (
    Category,
    Dataset,
    ParseError,
    SchemaError,
    VariableMeta,
    VarKind,
    load_schema,
    missing_profile,
    parse_csv,
    write_csv,
)
from missgraph import dataset
from missgraph.dataset import DEFAULT_NA_TOKENS, write_outputs

from .conftest import make_dataset, traced_peak


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCsv:
    def test_mask_marks_na_cells(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,NA\n2.0,3.0\n")
        ds = parse_csv(path, na_tokens={"NA"})
        assert ds.n_rows == 2
        assert ds.names == ["a", "b"]
        assert not ds.mask[0, 1]
        assert ds.mask.sum() == 3
        assert np.isnan(ds.values[0, 1])
        np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0])

    def test_fully_observed_mask_all_true(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n3,4\n5,6\n")
        ds = parse_csv(path)
        assert ds.mask.all()

    def test_lactate_analog_proportion(self, tmp_path):
        # 727 of 1000 cells missing -> proportion 0.727 exactly
        rows = ["v"]
        rows += ["NA"] * 727 + ["1.5"] * 273
        path = write(tmp_path, "\n".join(rows) + "\n")
        ds = parse_csv(path)
        (row,) = missing_profile(ds)
        assert row.missing_proportion == pytest.approx(0.727, abs=0)

    def test_na_tokens_are_case_sensitive(self, tmp_path):
        path = write(tmp_path, "a\nna\n")
        with pytest.raises(ParseError, match="cannot parse"):
            parse_csv(path, na_tokens={"NA"})

    def test_empty_token_and_whitespace_trimming(self, tmp_path):
        path = write(tmp_path, "a,b\n , 1.5 \n2,3\n")
        ds = parse_csv(path)
        assert not ds.mask[0, 0]
        assert ds.values[0, 1] == 1.5

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            parse_csv(path)

    def test_bad_cell_reports_coordinates(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match=r"row 3.*'b'"):
            parse_csv(path)

    def test_infinite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a\ninf\n")
        with pytest.raises(ParseError, match="finite"):
            parse_csv(path)

    @pytest.mark.parametrize(
        "header, position",
        [("a, ,c", 2), ("a,b,", 3), ("a,a, ", 3)],
        ids=["padded_middle", "trailing_comma", "before_duplicates"],
    )
    def test_blank_header_cell_rejected(self, tmp_path, header, position):
        path = write(tmp_path, f"{header}\n1,2,3\n")
        with pytest.raises(ParseError) as raised:
            parse_csv(path)
        assert type(raised.value) is ParseError  # not the duplicates' SchemaError
        assert str(raised.value) == f"{path}: header cell {position} is blank"

    def test_duplicate_header_is_schema_error(self, tmp_path):
        path = write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(SchemaError, match="duplicate"):
            parse_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_csv(tmp_path / "nope.csv")

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            parse_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError, match="empty file"):
            parse_csv(path)

    def test_schema_assigns_categories(self, tmp_path):
        data = write(tmp_path, "hr,age\n80,NA\n72,61\n")
        schema = write(
            tmp_path,
            '{"hr": "VitalPhysiology", "age": "Demographics"}',
            name="schema.json",
        )
        ds = parse_csv(data, schema=load_schema(schema))
        assert ds.metas[0].category is Category.VITAL_PHYSIOLOGY
        assert ds.metas[1].category is Category.DEMOGRAPHICS

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes("\ufeffa,b\n1,NA\n2,3\n".encode("utf-8"))
        ds = parse_csv(data, schema={"a": Category.BLOOD_TESTS})
        assert ds.names == ["a", "b"]
        assert ds.metas[0].category is Category.BLOOD_TESTS

    def test_schema_key_naming_no_column_rejected(self, tmp_path):
        data = write(tmp_path, "hr,age\n80,NA\n72,61\n")
        schema = {"hr": Category.VITAL_PHYSIOLOGY, "agee": Category.DEMOGRAPHICS}
        with pytest.raises(SchemaError, match="agee"):
            parse_csv(data, schema=schema)

    def test_schema_key_naming_no_column_before_a_bad_byte(self, tmp_path):
        # The header's read fails at the bad byte in its first 8 KiB; the
        # schema's fault still comes before the ragged row 3.
        data = tmp_path / "data.csv"
        data.write_bytes(b"a,b\n1,2\n3\n\xe9,4\n")
        with pytest.raises(SchemaError) as raised:
            parse_csv(data, schema={"c": Category.OTHER})
        assert str(raised.value) == f"{data}: schema names no column: c"

    def test_schema_file_with_byte_order_mark(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_bytes(b"\xef\xbb\xbf" + b'{"hr": "VitalPhysiology"}')
        assert load_schema(schema) == {"hr": Category.VITAL_PHYSIOLOGY}

    def test_schema_unknown_category(self, tmp_path):
        schema = write(tmp_path, '{"hr": "Nonsense"}', name="schema.json")
        with pytest.raises(SchemaError, match="unknown category"):
            load_schema(schema)

    @pytest.mark.parametrize(
        "content", [b"a,\xff\n1,2\n", b"a,b\n1,\xff\n", b"a,b\n1,2\n\xe9,3\n"],
        ids=["header", "first_row", "later_row"],
    )
    def test_text_that_is_not_utf8_rejected(self, tmp_path, content):
        path = tmp_path / "latin1.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8")):
            parse_csv(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("3", "row 3 has 1 cells, expected 2"),
            ("3,inf", "row 3, column 'b': cannot parse 'inf' as a finite number"),
        ],
        ids=["ragged_row", "non_finite_cell"],
    )
    def test_fault_before_text_that_is_not_utf8(self, tmp_path, fault, message):
        # The bad byte lies past the first 8 KiB that the header's read
        # decodes, inside the first block: the fault before it, in file
        # order, is the one named.
        path = tmp_path / "late_latin1.csv"
        text = f"a,b\n1,2\n{fault}\n".encode() + b"1,2\n" * 5000 + b"\xe9,3\n"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            parse_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a,b\n1,{}\n", 2),
            ("a,b\n1,{}e-999999\n", 2),
            ('a,b\n1,2\n"3\n",4\n5,{}\n', 5),
        ],
        ids=["first_row", "finite_when_read", "after_multiline_record"],
    )
    def test_cell_over_the_field_size_limit_rejected(self, tmp_path, text, line):
        # The csv reader caps a cell's length; over it, it raises csv.Error.
        path = write(tmp_path, text.format("7" * (csv.field_size_limit() + 1)))
        with pytest.raises(ParseError) as raised:
            parse_csv(path)
        assert str(raised.value).startswith(f"{path}: line {line}: field larger")

    def test_reader_error_after_converted_blocks_names_its_line(
        self, tmp_path, monkeypatch
    ):
        # Rows 2-31 are converted in blocks of about two lines and the row
        # loop's reader starts at the quoted record; the second read, from
        # line 1, names the line in the file.
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", 8)
        text = '"a",b\n' + "1,2\n" * 30 + '"3\n",4\n5,{}\n'
        path = write(tmp_path, text.format("7" * (csv.field_size_limit() + 1)))
        with pytest.raises(ParseError) as raised:
            parse_csv(path)
        assert str(raised.value).startswith(f"{path}: line 34: field larger")

    def test_parse_needs_little_beyond_its_values(self, tmp_path, rng):
        # A Python float per cell would take 7x values.nbytes.
        cells = rng.normal(size=(2_000, 80))
        missing = np.add.outer(np.arange(2_000), np.arange(80)) % 7 == 0
        lines = [",".join(f"v{j}" for j in range(80))]
        lines += [
            ",".join("NA" if gap else repr(x) for x, gap in zip(row, gaps))
            for row, gaps in zip(cells.tolist(), missing.tolist())
        ]
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds, peak = traced_peak(lambda: parse_csv(path))
        np.testing.assert_array_equal(ds.mask, ~missing)
        assert peak <= 3 * ds.values.nbytes

    @pytest.mark.parametrize(
        "content, match",
        [(None, "cannot read"), ("{", "not valid JSON"), ('["hr"]', "JSON object")],
        ids=["missing", "invalid", "not_object"],
    )
    def test_unusable_schema_file(self, tmp_path, content, match):
        schema = tmp_path / "schema.json"
        if content is not None:
            schema.write_text(content)
        with pytest.raises(SchemaError, match=match):
            load_schema(schema)


def reference_parse(path, na_tokens=DEFAULT_NA_TOKENS):
    """Values of a CSV read cell by cell in file order, each line decoded on
    its own when the csv reader asks for it: the header must be a line of
    distinct names, none blank once stripped; a stripped cell that equals a
    stripped NA token is NaN, any other cell must be a finite float; errors
    as parse_csv's, text that is not UTF-8 and a record the csv reader
    rejects among them."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    reader = csv.reader(line.decode() for line in data.splitlines(keepends=True))
    try:
        return _reference_rows(path, reader, frozenset(t.strip() for t in na_tokens))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _reference_rows(path, reader, na):
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    if not header:
        raise ParseError(f"{path}: empty header row")
    if "" in header:
        raise ParseError(f"{path}: header cell {header.index('') + 1} is blank")
    dupes = sorted({h for h in header if header.count(h) > 1})
    if dupes:
        raise SchemaError(f"{path}: duplicate header name(s): {', '.join(dupes)}")
    rows = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for name, cell in zip(header, row):
            trimmed = cell.strip()
            if trimmed in na:
                parsed.append(math.nan)
                continue
            try:
                value = float(trimmed)
            except ValueError:
                value = math.inf
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {row_no}, column {name!r}: "
                    f"cannot parse {cell!r} as a finite number"
                )
            parsed.append(value)
        rows.append(parsed)
    return np.array(rows, dtype=float)


def assert_parses_as_reference(path, **kwargs):
    """parse_csv(path) reads reference_parse's values, bit for bit, and its
    mask, or raises the same error: its class and its message."""
    try:
        expected = reference_parse(path, **kwargs)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_csv(path, **kwargs)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    ds = parse_csv(path, **kwargs)
    np.testing.assert_array_equal(ds.values.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(ds.mask, ~np.isnan(expected))


#: Faults injected into generated CSV texts, besides a ragged record:
#: letters, non-finite numbers and a quoted cell that spans two lines.
CELL_FAULTS = ["abc", "inf", "-inf", "nan", "1e999", '"1\n"']


@st.composite
def csv_texts(draw):
    """A CSV text of 1-4 columns and 1-6 records of finite numbers and NA
    tokens, some padded with spaces, carrying 0-3 injected faults, and now
    and then a fault of the header: a blank name, a duplicate name or a
    blank first line."""
    n_cols = draw(st.integers(1, 4))
    cell = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(sorted(DEFAULT_NA_TOKENS)),
    )
    pad = st.sampled_from(["", " ", "  "])
    rows = [
        [draw(pad) + draw(cell) + draw(pad) for _ in range(n_cols)]
        for _ in range(draw(st.integers(1, 6)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["ragged"] + CELL_FAULTS))
        if fault != "ragged" and row:
            row[draw(st.integers(0, len(row) - 1))] = fault
        elif row and draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    names = [f"v{j}" for j in range(n_cols)]
    header_fault = draw(st.sampled_from([None] * 5 + ["blank", "duplicate", "line"]))
    if header_fault == "blank":
        names[draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from(["", " "]))
    elif header_fault == "duplicate" and n_cols > 1:
        names[-1] = f" {draw(st.sampled_from(names[:-1]))}"
    elif header_fault == "line":
        names = []
    return ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in rows)


@st.composite
def canonical_csv_texts(draw):
    """A CSV text of 1-4 columns and 1-8 records that parse_csv converts in
    blocks: unpadded reprs of finite floats, extremes among them, and
    whole-cell NA tokens, empty cells too, in runs of 1-4; each line ends
    in \\n or \\r\\n, the last one or none."""
    n_cols = draw(st.integers(1, 4))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    ).map(lambda x: [repr(x)])
    # A lone column's empty cell would be a blank line: a record of no cells.
    tokens = sorted(DEFAULT_NA_TOKENS - ({""} if n_cols == 1 else set()))
    run = st.builds(
        lambda token, length: [token] * length,
        st.sampled_from(tokens),
        st.integers(1, 4),
    )
    cells = sum(draw(st.lists(st.one_of(number, run), min_size=1, max_size=16)), [])
    rows = [cells[i : i + n_cols] for i in range(0, len(cells), n_cols)][:8]
    rows[-1] += ["0.5"] * (n_cols - len(rows[-1]))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in rows]
    if draw(st.booleans()):
        ends[-1] = ""
    header = ",".join(f"v{j}" for j in range(n_cols))
    return header + "\r\n" + "".join(
        ",".join(row) + end for row, end in zip(rows, ends)
    )


class TestParseMatchesCellByCellReference:
    CASES = {
        "numbers_and_tokens": (
            "a,b,c\n1, 2 ,NA\n,NaN,null\n-0.0,5e-324,1.7976931348623157e308\n", None
        ),
        "nan_text": ("a,b\n1,2\n3,nan\n", None),
        "minus_inf_text": ("a,b\n1,-inf\n", None),
        "overflow_text": ("a,b\n1,1e999\n", None),
        "letters": ("a,b\n1,abc\n", None),
        "padded_na": ("a,b\n1, NA \n2,3\n", None),
        "float_na_token": ("a,b\n-999,2\n3,-999.0\n -999 ,nan\n", ["-999"]),
        "non_finite_before_letters_in_row": ("a,b,c\n1,inf,abc\n", None),
        "letters_before_non_finite_in_row": ("a,b,c\n1,abc,inf\n", None),
        "non_finite_row_5_letters_row_10": (
            "a,b\n" + "1,2\n" * 3 + "inf,2\n" + "1,2\n" * 4 + "1,abc\n", None
        ),
        "non_finite_row_5_ragged_row_10": (
            "a,b\n" + "1,2\n" * 3 + "1, nan \n" + "1,2\n" * 4 + "1\n", None
        ),
        "non_finite_after_multiline_record": ('a,b\n"1\n",2\n3,-nan\n', None),
        "ragged_before_letters": ("a,b\n1,2\n3\nabc,1\n", None),
        "ragged_first_row": ("a,b\n1\n1,2\n", None),
        "blank_line": ("a,b\n1,2\n\n3,4\n", None),
        "blank_header_and_rows": ("\n\n\n", None),
        "blank_header_then_row": ("\n1,2\n", None),
        "minus_na": ("a,b\n1,-NA\n", None),
        "plus_nan": ("a,b\n1,+NaN\n", None),
        "nan_next_to_token": ("a,b,c\n1,NA,nan\n", None),
        "lone_carriage_returns": ("a,b\r1,2\r3,NA\r", None),
        "underscore_digits": ("a,b\n1_000,2\n", None),
        "arabic_indic_digits": ("a,b\n\u0661\u0662,2\n", None),
        "blank_line_one_column": ("a\n1\n\n2\n", None),
        "blank_cell": ("a,b\n1, \n", None),
        "blank_cell_no_empty_token": ("a,b\n1,\t\n", ["NA"]),
        "nan_token": ("a,b\nnan,NA\n", ["nan", "NA"]),
        "ragged_rows_of_right_total": ("a,b\n1,2,3\n4\n", None),
        "padded_float_na_token": ("a,b\n-999,2\n3, -999 \n", ["-999"]),
        "padded_inf_na_token": ("a,b\n1, inf \n", ["inf"]),
        "nan_token_counted_twice": ("a,b,c\nNA,NaN,NaN\n", ["NA", "nan"]),
        "quoted_token": ('a,b\n"x,1\n', ['"x']),
        "padded_token": ("a,b\n1, NA\n", [" NA"]),
        "token_padded_both_sides": ("a,b\n1, NA \n2,NA\n", [" NA "]),
        "no_final_line_ending": ("a,b\r\n1,NA\r\n,3", None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_and_errors_match(self, case, tmp_path):
        text, na_tokens = self.CASES[case]
        path = write(tmp_path, text)
        kwargs = {} if na_tokens is None else {"na_tokens": na_tokens}
        assert_parses_as_reference(path, **kwargs)

    #: Files of bytes and the fault each names.  Each line is decoded on its
    #: own, so a fault before a bad byte in the same 8 KiB is named first.
    BYTES_CASES = {
        "ragged_row_before_a_bad_byte": (
            b"a,b\n1,2\n3\n\xe9,3\n", "row 3 has 1 cells, expected 2"
        ),
        "ragged_row_40_bytes_before_a_bad_byte_12_kb_in": (
            b"a,b\n" + b"1,2\n" * 3000 + b"3\n" + b"1,2\n" * 9 + b"\xe9,3\n",
            "row 3002 has 1 cells, expected 2",
        ),
        "bad_cell_before_a_bad_byte": (
            b"a,b\n1,2\n3,x\n" + b"1,2\n" * 100 + b"\xe9,3\n",
            "row 3, column 'b': cannot parse 'x' as a finite number",
        ),
        "bad_byte_in_header": (
            b"a,\xe9\n1,2\n", "not UTF-8 text (invalid continuation byte)"
        ),
        "byte_order_mark_and_bad_cell_in_column_1": (
            b"\xef\xbb\xbfa,b\nx,2\n",
            "row 2, column 'a': cannot parse 'x' as a finite number",
        ),
        "blank_header_cell_before_a_bad_byte": (
            b"v0, ,v2\n1,2,3\n4,5,1e999\n\xe9,1,2\n", "header cell 2 is blank"
        ),
        "duplicate_header_before_a_bad_byte": (
            b"a,a\n1,2\n3\n\xe9,1\n", "duplicate header name(s): a"
        ),
        "blank_first_line_before_a_bad_byte": (
            b"\n1,2\n3\n\xe9\n", "empty header row"
        ),
    }

    @pytest.mark.parametrize("case", sorted(BYTES_CASES))
    def test_bytes_name_the_first_fault(self, case, tmp_path):
        content, message = self.BYTES_CASES[case]
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        assert_parses_as_reference(path)
        with pytest.raises(ParseError) as raised:
            parse_csv(path)
        assert str(raised.value) == f"{path}: {message}"

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts())
    def test_generated_texts_match(self, tmp_path_factory, text):
        assert_parses_as_reference(write(tmp_path_factory.mktemp("generated"), text))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_generated_bytes_match(self, tmp_path_factory, data):
        # One byte that is not UTF-8 at the start of a random cell, the
        # header's included, among the text's own faults.
        content = data.draw(csv_texts()).encode()
        starts = [0] + [i + 1 for i, b in enumerate(content[:-1]) if b in b",\n"]
        at = data.draw(st.sampled_from(starts))
        byte = data.draw(st.sampled_from([b"\xe9", b"\xff"]))
        path = tmp_path_factory.mktemp("bytes") / "data.csv"
        path.write_bytes(content[:at] + byte + content[at:])
        assert_parses_as_reference(path)

    @settings(max_examples=150, deadline=None)
    @given(text=canonical_csv_texts(), block_chars=st.sampled_from([8, 64, None]))
    def test_canonical_texts_match(self, tmp_path_factory, text, block_chars):
        path = write(tmp_path_factory.mktemp("canonical"), text)
        with pytest.MonkeyPatch.context() as patch:
            if block_chars is not None:
                patch.setattr(dataset, "_BLOCK_CHARS", block_chars)
            assert_parses_as_reference(path)

    @pytest.mark.parametrize(
        "head, rows, tail",
        [
            (b"a,b\n1,2", 5000, b"\xe9,3\n"),
            (b"a,b\n1,2", 1, b"7," + b"7" * (csv.field_size_limit() + 1) + b"\n"),
            (b'"a",b\n1,2', 5000, b"\xe9,3\n"),
            (b'a,b\n"1",2', 20_000, b"\xe9,3\n"),
        ],
        ids=["not_utf8", "over_field_size_limit", "quoted_header", "in_the_row_loop"],
    )
    def test_non_finite_cell_before_a_fault_of_the_file(
        self, tmp_path, head, rows, tail
    ):
        # Row 3's inf comes before the fault of the file's text or records in
        # file order, so it is the one named.  The bad byte lies past the
        # first 8 KiB that the header's read decodes; in the last case the
        # quoted cell sends every line through the csv reader's row loop,
        # and the byte lies past the first block, so that reader meets it.
        path = tmp_path / "data.csv"
        path.write_bytes(head + b"\n3,inf\n" + b"1,2\n" * rows + tail)
        assert_parses_as_reference(path)
        with pytest.raises(ParseError) as raised:
            parse_csv(path)
        assert str(raised.value) == (
            f"{path}: row 3, column 'b': cannot parse 'inf' as a finite number"
        )

    def test_canonical_file_never_enters_the_row_loop(self, tmp_path, monkeypatch):
        # Only the header goes through the csv reader: every data line is
        # converted in blocks, of four lines each here.
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", 64)
        rows = ["1.5,NA,-0.0", ",NaN,5e-324", "null,NA,NA", "2,,1.7976931348623157e308"]
        path = write(tmp_path, "a,b,c\r\n" + "\r\n".join(rows * 20) + "\r\n")
        reader = csv.reader
        records = []

        def spy(*args):
            for record in reader(*args):
                records.append(record)
                yield record

        monkeypatch.setattr(dataset.csv, "reader", spy)
        ds = parse_csv(path)
        assert records == [["a", "b", "c"]]
        assert ds.mask.sum() == 20 * 5

    @pytest.mark.parametrize(
        "text",
        ["a,b\n1,2\n1_0,3\n", "a,b\n1,2x\n", "a,b\n" + "1,2\n" * 40 + "3,4 5\n"],
        ids=["float_reads_it", "letters", "after_converted_blocks"],
    )
    def test_numpy_1_fromstring_falls_back(self, tmp_path, monkeypatch, text):
        # numpy < 2 warns at text that np.fromstring cannot read and returns
        # what it read before; this stand-in returns zeros of the full
        # length, so only the warning tells the block apart.
        fromstring = np.fromstring

        def numpy_1_fromstring(text, sep):
            try:
                return fromstring(text, sep=sep)
            except ValueError:
                warnings.warn(
                    "string or file could not be read to its end due to"
                    " unmatched data; this will raise a ValueError in the future.",
                    DeprecationWarning,
                    stacklevel=2,
                )
                return np.zeros(text.count(sep) + 1)

        monkeypatch.setattr(dataset, "_BLOCK_CHARS", 64)
        monkeypatch.setattr(np, "fromstring", numpy_1_fromstring)
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert_parses_as_reference(write(tmp_path, text))
        assert escaped == []

    @pytest.mark.parametrize(
        "text, rewritten",
        [
            ("a,b\n1,2\n3,inf\n", "a,b\n1,2\n3,4\n"),
            ("a,b\n1,2\n3,inf\n", "a,b\n"),
            ("a,b\n1,2\n3,inf\n", None),
            ("a,a\n1,2\n", "a,b\n1,2\n"),
        ],
        ids=["repaired", "truncated", "deleted", "repaired_header"],
    )
    def test_file_changed_before_the_second_read(
        self, text, rewritten, tmp_path, monkeypatch
    ):
        path = write(tmp_path, text)
        first_fault = dataset._first_fault

        def change_then_read(*args):
            if rewritten is None:
                path.unlink()
            else:
                path.write_text(rewritten)
            return first_fault(*args)

        monkeypatch.setattr(dataset, "_first_fault", change_then_read)
        with pytest.raises(ParseError) as raised:
            parse_csv(path)
        assert str(raised.value) == f"{path}: changed while it was being read"


class TestRecords:
    @pytest.mark.parametrize(
        "kind, parent, match",
        [
            (VarKind.COMPLETENESS, None, "needs a parent"),
            (VarKind.OBSERVATION, "v", "cannot have a parent"),
        ],
        ids=["indicator_without_parent", "observation_with_parent"],
    )
    def test_variable_meta_parent_rules(self, kind, parent, match):
        with pytest.raises(ValueError, match=match):
            VariableMeta(name="x", kind=kind, parent=parent)

    @pytest.mark.parametrize(
        "names, values, mask, match",
        [
            (["a"], [1.0, 2.0], [True, True], "2-D"),
            (["a"], [[1.0], [2.0]], [[True]], "equal shape"),
            (["a"], np.empty((0, 1)), np.empty((0, 1), dtype=bool), "one row"),
            (["a", "b"], [[1.0]], [[True]], "one VariableMeta"),
            (["a", "a"], [[1.0, 2.0]], [[True, True]], "unique"),
            (["a"], [[np.nan]], [[True]], "observed cells finite"),
            (["a"], [[1.0]], [[False]], "masked cells must be NaN"),
        ],
        ids=[
            "one_dimensional", "mask_shape", "no_rows", "meta_count",
            "duplicate_names", "nan_observed", "value_under_mask",
        ],
    )
    def test_dataset_rejects_inconsistent_input(self, names, values, mask, match):
        metas = [VariableMeta(name=name) for name in names]
        with pytest.raises(ValueError, match=match):
            Dataset(metas=metas, values=values, mask=mask)


class TestMissingProfile:
    def test_fully_observed_is_zero(self):
        ds = make_dataset({"age": [50.0, 61.0, 70.0]})
        (row,) = missing_profile(ds)
        assert row.missing_proportion == 0.0

    def test_all_missing_is_one(self):
        ds = make_dataset({"v": [None, None], "w": [1.0, 2.0]})
        rows = missing_profile(ds)
        assert rows[0].missing_proportion == 1.0

    def test_half_missing(self):
        ds = make_dataset({"v": [1.0, None]})
        (row,) = missing_profile(ds)
        assert row.missing_proportion == 0.5

    def test_row_order_matches_columns(self):
        ds = make_dataset({"b": [1.0], "a": [None]})
        assert [r.name for r in missing_profile(ds)] == ["b", "a"]


class TestRoundTrip:
    def test_observed_plus_missing_counts(self):
        ds = make_dataset({"a": [1.0, None, 2.0], "b": [None, None, 5.0]})
        assert ds.mask.sum() + (~ds.mask).sum() == ds.n_rows * ds.n_cols

    @settings(max_examples=25, deadline=None)
    @given(
        table=st.lists(
            st.lists(
                st.one_of(
                    st.none(),
                    st.floats(
                        allow_nan=False, allow_infinity=False, width=64
                    ),
                ),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_parse_serialize_parse_is_identity(self, tmp_path_factory, table):
        tmp = tmp_path_factory.mktemp("roundtrip")
        cols = {
            "c0": [row[0] for row in table],
            "c1": [row[1] for row in table],
        }
        ds = make_dataset(cols)
        path = tmp / "ds.csv"
        write_csv(ds, path)
        back = parse_csv(path)
        np.testing.assert_array_equal(back.mask, ds.mask)
        assert np.array_equal(back.values, ds.values, equal_nan=True)
        # and once more: serialization is stable
        path2 = tmp / "ds2.csv"
        write_csv(back, path2)
        assert path.read_text() == path2.read_text()


def test_interrupted_write_removes_its_files_and_propagates(tmp_path):
    # Only an OSError becomes a ConfigError; an interrupt after a partial
    # write still removes every file the call opened, and escapes as it was.
    interrupt = KeyboardInterrupt()

    def write_half_then_interrupt(path):
        path.write_text("a,b\n1.0,")
        raise interrupt

    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt) as info:
        write_outputs(
            out, [("report.json", "{}"), ("dataset.csv", write_half_then_interrupt)]
        )
    assert info.value is interrupt
    assert list(out.iterdir()) == []
