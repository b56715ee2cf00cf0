"""Tabular container with a per-cell observation mask, CSV I/O and JSON input.

A :class:`Dataset` stores an ``(n_rows, n_cols)`` float matrix together with a
boolean mask (``True`` = observed).  Missing cells hold ``NaN`` as a sentinel
and must never be consumed as values.  Parsing is strict: every non-missing
cell has to be a finite number, and structural problems are reported with row
and column coordinates.
"""

from __future__ import annotations

import codecs
import csv
import enum
import json
import math
import re
import warnings
from array import array
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, MissgraphError, ParseError, SchemaError, stage

#: Cell texts (after stripping) treated as missing when no explicit set is given.
DEFAULT_NA_TOKENS = frozenset({"", "NA", "NaN", "null"})

#: Cell text the CSV writers put at a missing cell.
NA_TOKEN = "NA"

# parse_csv reads a missing cell as this NaN, whose payload float() never
# returns, so one pass over the parsed array tells it from a "nan" text.
_NA_BITS = 0x7FF8_0000_0000_0A0A
_NA = np.array([_NA_BITS], dtype=np.uint64).view(float)[0].item()

# Characters of data lines that parse_csv converts in one np.fromstring call:
# a block's texts then stay small beside the values it parses to.
_BLOCK_CHARS = 1 << 16

# A cell of whitespace alone, which np.fromstring reads as -1.0.
_BLANK_CELL = re.compile(",[ \t\v\f]+,")


class Category(str, enum.Enum):
    """Reporting category of a variable."""

    VITAL_PHYSIOLOGY = "VitalPhysiology"
    BLOOD_TESTS = "BloodTests"
    DEMOGRAPHICS = "Demographics"
    MORTALITY = "Mortality"
    ICU_MANAGEMENT = "IcuManagement"
    OTHER = "Other"


class VarKind(str, enum.Enum):
    """Whether a variable is a measured quantity or a completeness indicator."""

    OBSERVATION = "Observation"
    COMPLETENESS = "Completeness"


@dataclass(frozen=True)
class VariableMeta:
    """Name, category and kind of one variable.

    Completeness indicators carry ``parent``, the name of the observation
    variable whose presence they record.
    """

    name: str
    category: Category = Category.OTHER
    kind: VarKind = VarKind.OBSERVATION
    parent: str | None = None

    def __post_init__(self):
        if self.kind is VarKind.COMPLETENESS and not self.parent:
            raise ValueError(f"completeness variable {self.name!r} needs a parent")
        if self.kind is VarKind.OBSERVATION and self.parent is not None:
            raise ValueError(f"observation variable {self.name!r} cannot have a parent")


@dataclass(frozen=True)
class ProfileRow:
    name: str
    category: Category
    missing_proportion: float


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric table with a per-cell observation mask.

    Attributes
    ----------
    metas : list of VariableMeta, one per column, names unique.
    values : float array (n_rows, n_cols); NaN exactly at masked cells.
    mask : bool array, same shape; True = observed.
    """

    metas: tuple[VariableMeta, ...]
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        object.__setattr__(self, "metas", tuple(self.metas))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        if values.ndim != 2 or mask.shape != values.shape:
            raise ValueError("values and mask must be 2-D arrays of equal shape")
        if values.shape[0] < 1:
            raise ValueError("a Dataset needs at least one row")
        if values.shape[1] != len(self.metas):
            raise ValueError("one VariableMeta per column required")
        names = [m.name for m in self.metas]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        # Sentinel discipline: NaN exactly where masked-missing.
        if not (np.isnan(values) | mask).all() or not (np.isfinite(values) | ~mask).all():
            raise ValueError("masked cells must be NaN, observed cells finite")
        values.setflags(write=False)
        mask.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.metas]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


def read_json(path: str | Path, what: str, error: type[MissgraphError] = ConfigError):
    """The JSON value in the UTF-8 file ``path`` (a leading BOM is skipped);
    ``error``, naming the file ``what``, if it cannot be read or is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also an integer over the digit limit, or not UTF-8
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def load_schema(path: str | Path) -> dict[str, Category]:
    """Read a JSON file mapping variable name -> category name."""
    raw = read_json(path, "schema file", SchemaError)
    if not isinstance(raw, dict):
        raise SchemaError(f"schema file {path} must hold a JSON object")
    schema = {}
    for name, cat in raw.items():
        try:
            schema[name] = Category(cat)
        except ValueError:
            valid = ", ".join(c.value for c in Category)
            raise SchemaError(
                f"schema file {path}: unknown category {cat!r} for {name!r}"
                f" (expected one of {valid})"
            ) from None
    return schema


def parse_csv(
    path: str | Path,
    na_tokens: Iterable[str] = DEFAULT_NA_TOKENS,
    schema: dict[str, Category] | None = None,
) -> Dataset:
    """Parse an RFC-4180-style CSV with a mandatory header into a Dataset.

    Parameters
    ----------
    path : file to read; UTF-8 (a leading byte-order mark is skipped), comma
        separated, header row first.
    na_tokens : cell texts, matched case-sensitively after trimming, that mark
        a missing cell.  Defaults to ``{"", "NA", "NaN", "null"}``.
    schema : optional map from variable name to :class:`Category`; unmapped
        variables fall back to ``Category.OTHER``, and every key must name
        a header column.

    Raises
    ------
    ParseError for a missing file or a header with no data rows below it;
    else the first fault in file order, as :func:`_first_fault` names it:
    an empty file, a blank first line or header cell, duplicate header names
    or schema keys naming no column (each a SchemaError), text that is not
    UTF-8 (met at its own line), a record the CSV reader rejects (with its
    line), a ragged row (with its number) or a cell that is not a finite
    number (with row/column coordinates).
    """
    path = Path(path)
    na = frozenset(str(t).strip() for t in na_tokens)
    schema = schema or {}
    if not path.is_file():
        raise ParseError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as handle:
        try:
            header = [h.strip() for h in next(csv.reader(handle), [])]
        except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            header = []
        # The header's read failed, or the header breaks a rule.
        names = set(header)
        if not names or "" in names or len(names) != len(header) or set(schema) - names:
            raise _first_fault(path, na, schema)
        n_cols = len(header)
        # The parsed cells, row after row, 8 bytes each (a missing cell is
        # _NA), in one buffer.  Blocks of plain records are converted whole;
        # from the first block that is not, the csv reader reads the rest
        # and each row is parsed by one comprehension.  Any fault (text that
        # is not UTF-8, a record the reader rejects, a ragged row, a cell
        # float() rejects) only stops the loop: _first_fault reads the file
        # again to name the first one in file order.
        cells = array("d")
        lines: list[str] = []
        tokens = _bulk_tokens(na)
        try:
            while tokens is not None and (lines := handle.readlines(_BLOCK_CHARS)):
                block = _bulk_block(lines, n_cols, tokens)
                if block is None:
                    break
                cells.frombytes(block.view(np.uint8))
            for row in csv.reader(chain(lines, handle)):
                if len(row) != n_cols:
                    raise ValueError("ragged row")
                cells.extend([_NA if (t := c.strip()) in na else float(t) for c in row])
        except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            raise _first_fault(path, na, schema) from None
    if not cells:
        raise ParseError(f"{path}: no data rows below the header")
    values = np.frombuffer(cells, dtype=float).reshape(len(cells) // n_cols, n_cols)
    mask = values.view(np.uint64) != _NA_BITS
    if (mask & ~np.isfinite(values)).any():
        raise _first_fault(path, na, schema)
    values[~mask] = np.nan
    metas = tuple(
        VariableMeta(name=name, category=schema.get(name, Category.OTHER))
        for name in header
    )
    return Dataset(metas=metas, values=values, mask=mask)


def _bulk_tokens(na: frozenset[str]) -> list[str] | None:
    """The NA tokens that ``_bulk_block`` rewrites: those a cell of a plain
    line can equal, without a comma.  None if a token is a
    number other than NaN, which a padded cell of it, left as it is, would
    parse to, or is ``nan``, the text it is rewritten to, which a second
    pass would count again."""
    if "nan" in na:
        return None
    for token in na:
        with suppress(ValueError):
            if not math.isnan(float(token)):
                return None
    return [t for t in sorted(na) if "," not in t]


def _bulk_block(lines: list[str], n_cols: int, tokens: list[str]) -> np.ndarray | None:
    r"""The cells of the data lines ``lines``, _NA at a missing one, converted
    by one ``np.fromstring`` call; None unless that gives, bit for bit, what
    parse_csv's row loop would read.

    Each line must not be blank, hold no ``"`` and exactly ``n_cols - 1``
    commas, and be no longer than ``csv.field_size_limit()``.  Its cells are
    then the texts between its commas once its ending is dropped: ``\n``,
    ``\r\n`` or ``\r``, where the file's text is split into lines, or none
    at its end.  A cell that equals one of ``tokens`` is rewritten to
    ``nan`` and counted.  Any other NaN (a ``nan`` cell, or a padded token),
    a cell of whitespace alone and any text that ``np.fromstring`` cannot read,
    which ``float()`` may (``1_0``), returns None.  Every number that
    ``np.fromstring`` reads, ``float()`` reads the same: both round by
    ``PyOS_string_to_double``.
    """
    if (
        # A blank line is a record of no cells.
        any(map(lines.__contains__, ("\n", "\r\n", "\r")))
        or max(map(len, lines)) > csv.field_size_limit()
        or set(map(str.count, lines, repeat(","))) != {n_cols - 1}
    ):
        return None
    # Every cell between two commas, for a pattern to match whole cells.
    text = ",".join(chain([""], map(str.rstrip, lines, repeat("\r\n")), [""]))
    if '"' in text or (
        any(map(text.__contains__, " \t\v\f")) and _BLANK_CELL.search(text)
    ):
        return None
    rewritten = 0
    for token in tokens:
        if not all(map(text.__contains__, token)):
            continue
        pattern = f",{token},"
        # Matches do not overlap: of a run of tokens, each pass rewrites
        # every other one.
        for _ in range(2):
            found = text.count(pattern)
            if not found:
                break
            rewritten += found
            text = text.replace(pattern, ",nan,")
    try:
        with warnings.catch_warnings():
            # numpy < 2 warns at text it cannot read, and stops there.
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text[1:], sep=",")
    except (ValueError, DeprecationWarning):
        return None
    missing = np.isnan(values)
    if values.size != len(lines) * n_cols or np.count_nonzero(missing) != rewritten:
        return None
    values[missing] = _NA
    return values


def _first_fault(
    path: Path, na: frozenset[str], schema: dict[str, Category]
) -> ParseError:
    """Error of the first fault of ``path`` in file order, read again with
    each line decoded on its own: on any line, text that is not UTF-8 or a
    record the csv reader rejects (with its line); in the header, an empty
    file, a blank first line or cell, then duplicate names and ``schema``
    keys naming no column (each a SchemaError); in a data record, a wrong
    length (before its cells), then a cell that is neither an NA token nor a
    finite number once trimmed; or else that the file changed since."""
    with suppress(OSError), path.open("rb") as handle:
        # bytes.splitlines ends a line where the csv reader does: \n, \r\n, \r.
        lines = (line for piece in handle for line in piece.splitlines(keepends=True))
        records = csv.reader(codecs.iterdecode(lines, "utf-8-sig"))
        try:
            header = next(records, None)
            if header is None:
                return ParseError(f"{path}: empty file, expected a header row")
            if not header:  # a blank first line
                return ParseError(f"{path}: empty header row")
            header = [h.strip() for h in header]
            if "" in header:
                return ParseError(
                    f"{path}: header cell {header.index('') + 1} is blank"
                )
            if dupes := ", ".join(sorted({h for h in header if header.count(h) > 1})):
                return SchemaError(f"{path}: duplicate header name(s): {dupes}")
            if unknown := ", ".join(sorted(schema.keys() - set(header))):
                return SchemaError(f"{path}: schema names no column: {unknown}")
            for row_no, row in enumerate(records, start=2):
                if len(row) != len(header):
                    return ParseError(
                        f"{path}: row {row_no} has {len(row)} cells,"
                        f" expected {len(header)}"
                    )
                for column, cell in zip(header, row):
                    with suppress(ValueError):
                        if (t := cell.strip()) in na or math.isfinite(float(t)):
                            continue
                    return ParseError(
                        f"{path}: row {row_no}, column {column!r}: "
                        f"cannot parse {cell!r} as a finite number"
                    )
        except UnicodeDecodeError as exc:
            return ParseError(f"{path}: not UTF-8 text ({exc.reason})")
        except csv.Error as exc:
            return ParseError(f"{path}: line {records.line_num}: {exc}")
    return ParseError(f"{path}: changed while it was being read")


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV; observed floats use shortest round-trip repr."""
    write_matrix_csv(dataset.values, dataset.names, Path(path))


def write_matrix_csv(matrix: np.ndarray, names: list[str], path: Path) -> None:
    """Write a matrix under a header row, shortest round-trip reprs, NaN as
    ``NA_TOKEN``."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in matrix:
            writer.writerow(
                [NA_TOKEN if math.isnan(v) else repr(v) for v in row.tolist()]
            )


def write_outputs(
    outdir: Path, files: Iterable[tuple[str, str | Callable[[Path], object]]]
) -> list[Path]:
    """Create ``outdir`` and write each ``(file name, text or writer of a path)``.

    Returns the paths in order.  On any failure every file this call opened is
    removed, the partly written one included; an OSError becomes a ConfigError
    tagged with stage ``write``.
    """
    written: list[Path] = []
    path = outdir
    with stage("write"):
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for name, content in files:
                path = outdir / name
                written.append(path)  # before opening: a partial file goes too
                if isinstance(content, str):
                    path.write_text(content, encoding="utf-8")
                else:
                    content(path)
        except BaseException as exc:
            for created in written:
                with suppress(OSError):
                    created.unlink()
            if isinstance(exc, OSError):
                raise ConfigError(f"cannot write {path}: {exc}") from exc
            raise
    return written


def missing_profile(dataset: Dataset) -> list[ProfileRow]:
    """Per-variable missing proportion, in column order."""
    missing = (~dataset.mask).mean(axis=0)
    return [
        ProfileRow(meta.name, meta.category, float(missing[j]))
        for j, meta in enumerate(dataset.metas)
    ]
