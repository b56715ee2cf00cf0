"""Records to and from JSON, and the analysis report's renderings.

``json_record`` writes a dataclass record as JSON, ``read_dataclass`` reads
one back with every value's type checked.  Each list of the report holds the
records the pipeline computed, so
``read_dataclass(AnalysisReport, json.loads(report.to_json()), "report")``
reproduces a report exactly.  All volatile run information (wall-clock
timestamp, elapsed seconds) lives under ``meta["runtime"]``; everything else
is a pure function of config and seed, which is what makes repeated runs
byte-comparable.

``AnalysisReport.to_json`` writes exactly the text of
``json.dumps(json_record(report), indent=2, ensure_ascii=False) + "\\n"``,
and ``render_graph_json`` that of its graph, without the per-value Python
encoder that ``indent`` selects.  A list of flat records, whose class's type
hints make every field a JSON scalar (a string, a number, a bool, an enum
deriving from one of these, or one of these or None), is written in one
pass: every field value of the list is encoded in one call of the C encoder
with a NUL between values, the result is split on NUL, and the pieces fill an
indent-2 template of the record class.  The split is exact because the
encoder escapes every control character inside a string, so a raw NUL is
only ever a separator.  Every other member goes through
``json.dumps(..., indent=2)`` and is indented by two more spaces, which is
exact because encoded JSON holds no raw newline.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
import operator
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path, PurePath

from .dataset import ProfileRow, VariableMeta, VarKind
from .errors import ConfigError
from .pooling import MissingnessArc, MnarFinding, PooledEdge

ARC_CSV_COLUMNS = (
    "obs_var",
    "comp_var",
    "rho",
    "p",
    "counterpart_rho",
    "counterpart_p",
    "sign",
)


def json_record(record) -> dict:
    """JSON form of a dataclass record, its fields in order.

    Converts the other way round from ``read_dataclass``: an enum becomes
    its value, a path a string, a frozenset a sorted list, and a list or a
    tuple a list with each record in it in its JSON form.  Other values are
    kept as they are, not copied.
    """
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)}


def _json_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, PurePath):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [json_record(v) if is_dataclass(v) else v for v in value]
    return value


# Field type -> (test of a JSON value, its name in error messages).
_JSON_TYPES = {
    Path: (lambda v: isinstance(v, (str, Path)), "a path string"),
    float: (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "a number",
    ),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    frozenset: (
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        "a list of strings",
    ),
    list: (lambda v: isinstance(v, list), "a list"),
    tuple: (lambda v: isinstance(v, list), "a list"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def _json_type(kind):
    """``_JSON_TYPES`` entry of a field type; a dataclass is read from an
    object, an enum from one of its values."""
    if is_dataclass(kind):
        return _JSON_TYPES[dict]
    if issubclass(kind, enum.Enum):
        values = [member.value for member in kind]
        return (lambda v: v in values, "one of " + ", ".join(values))
    return _JSON_TYPES[kind]


def read_dataclass(cls, values, what: str = "config", defaults: bool = True):
    """Build dataclass ``cls`` from a parsed JSON object keyed by field name.

    Each value must have its field's JSON type (``null`` only where the type
    allows None); a non-object, an unknown or missing key, a wrong type or a
    ValueError of the record's own checks is a ConfigError whose message
    names ``what``.  An absent key takes its field's default, unless
    ``defaults`` is False, as for a report, whose writer ``json_record``
    writes every key: then every key of ``cls`` and its nested records is
    required.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, got {values!r}")
    hints, required = _record_plan(cls)
    unknown = sorted(values.keys() - hints.keys())
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [name for name in (required if defaults else hints) if name not in values]
    if missing:
        raise ConfigError(f"missing {what} keys: {', '.join(missing)}")
    kwargs = {k: _coerce(k, hints[k], v, what, defaults) for k, v in values.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


@functools.cache
def _record_plan(cls) -> tuple[dict, tuple[str, ...]]:
    """Field types of ``cls`` and the names of its fields without a default,
    worked out once: a report holds thousands of edges."""
    required = tuple(
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    )
    return typing.get_type_hints(cls), required


def _options(hint) -> tuple[bool, list]:
    """Whether field type ``hint`` admits None, and its other options."""
    union = typing.get_origin(hint) is types.UnionType
    options = typing.get_args(hint) if union else (hint,)
    return type(None) in options, [o for o in options if o is not type(None)]


@functools.cache
def _coerce_plan(hint) -> tuple[bool, tuple, str]:
    """How ``_coerce`` reads a value of field type ``hint``, worked out once
    per type: whether None is allowed, ``(kind, type arguments, JSON type
    test, whether kind is a record)`` for each other option, and the
    options' names for messages."""
    nullable, options = _options(hint)
    kinds = [typing.get_origin(o) or o for o in options]
    readers = tuple(
        (kind, typing.get_args(option), _json_type(kind)[0], is_dataclass(kind))
        for option, kind in zip(options, kinds)
    )
    return nullable, readers, " or ".join(_json_type(k)[1] for k in kinds)


def _coerce(name: str, hint, value, what: str, defaults: bool):
    """Check ``value`` against the JSON type of field ``name`` and convert it.

    A ``list[X]``, ``tuple[X, ...]`` or ``dict[str, X]`` has its items read
    as ``X``; a bare ``list`` or ``dict`` is kept as parsed.
    """
    nullable, readers, described = _coerce_plan(hint)
    if value is None and nullable:
        return None
    for kind, args, test, record in readers:
        if test(value):
            break
    else:
        raise ConfigError(f"{what} key {name!r} must be {described}, got {value!r}")
    if record:
        return read_dataclass(kind, value, name, defaults)
    if kind is dict and args:
        return {
            k: _coerce(f"{name}.{k}", args[1], v, what, defaults)
            for k, v in value.items()
        }
    if kind in (list, tuple) and args:
        items = [
            _coerce(f"{name}[{i}]", args[0], v, what, defaults)
            for i, v in enumerate(value)
        ]
        return items if kind is list else tuple(items)
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(
            f"{what} key {name!r} must be a number within the float range,"
            f" got {value!r}"
        ) from None


@dataclass
class AnalysisReport:
    """End-to-end analysis result: the records the pipeline computed.

    ``meta`` holds the package and library versions, the seed, the row
    count, the config and the volatile ``runtime``.
    """

    meta: dict
    variables: list[VariableMeta]
    missing_profile: list[ProfileRow]
    excluded_constant: list[str]
    warnings: list[str]
    lambdas: list[float]
    edges: list[PooledEdge]
    arcs: list[MissingnessArc]
    mnar_findings: list[MnarFinding]

    def to_json(self) -> str:
        return _dump_object((f.name, getattr(self, f.name)) for f in fields(self))

    def names(self, kind: VarKind) -> list[str]:
        return [v.name for v in self.variables if v.kind is kind]


# Puts a NUL between the encoded values of a flat record list.  A string's
# control characters come out escaped, so a raw NUL is only ever a separator.
_SPLIT_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=("\0", ": "))
_SCALARS = (str, int, float, bool)


def _dump_object(members) -> str:
    """``json.dumps(..., indent=2, ensure_ascii=False) + "\\n"`` of the JSON
    form of an object given as ``(key, value)`` pairs; see the module
    docstring."""
    lines = [
        f"  {json.dumps(key, ensure_ascii=False)}: {_dump_member(value)}"
        for key, value in members
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _dump_member(value) -> str:
    """Indent-2 text of a member value of a top-level object."""
    if isinstance(value, list) and value:
        cls = type(value[0])
        plan = _flat_plan(cls)
        if plan is not None and set(map(type, value)) == {cls}:
            return _dump_flat(value, *plan)
    text = json.dumps(_json_value(value), indent=2, ensure_ascii=False)
    return text.replace("\n", "\n  ")


@functools.cache
def _flat_plan(cls) -> tuple[tuple[str, ...], str, list[str]] | None:
    """The template of a record class whose every field is a JSON scalar.

    Returns the field names, the text before a record's first value and the
    texts after each of its values up to the next record's first; None for
    any other class.  An enum counts as a scalar when it derives from one,
    as ``Category`` derives from str: the encoder then writes its value.
    """
    if not is_dataclass(cls) or not fields(cls):
        return None
    names = tuple(f.name for f in fields(cls))
    hints = _record_plan(cls)[0]
    for name in names:
        for kind in _options(hints[name])[1]:
            enum_scalar = isinstance(kind, enum.EnumMeta) and issubclass(kind, _SCALARS)
            if kind not in _SCALARS and not enum_scalar:
                return None
    keys = [f"\n      {json.dumps(name, ensure_ascii=False)}: " for name in names]
    opening = "\n    {" + keys[0]
    between = [f",{key}" for key in keys[1:]] + ["\n    }," + opening]
    return names, opening, between


def _dump_flat(records: list, names: tuple[str, ...], opening: str,
               between: list[str]) -> str:
    """Indent-2 text of a list of flat records of one class."""
    k = len(names)
    values = [None] * (len(records) * k)
    for i, name in enumerate(names):
        values[i::k] = map(operator.attrgetter(name), records)
    parts = _SPLIT_ENCODER.encode(values)[1:-1].split("\0")
    text = [None] * (2 * len(parts))
    text[::2] = parts
    text[1::2] = between * len(records)
    text[-1] = "\n    }\n  ]"
    return "[" + opening + "".join(text)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(report: AnalysisReport) -> str:
    """Bipartite DOT graph: observation nodes left, completeness right.

    Positive arcs are green, negative red, labels carry the pooled partial
    correlation and p-value.  The file stays valid with zero arcs: both node
    columns are always emitted.
    """
    lines = ["graph missingness {", "  rankdir=LR;", "  node [shape=box];"]
    lines.append("  subgraph cluster_observation {")
    lines.append('    label="Observation";')
    for name in report.names(VarKind.OBSERVATION):
        lines.append(f"    {_dot_quote(name)};")
    lines.append("  }")
    lines.append("  subgraph cluster_completeness {")
    lines.append('    label="Completeness";')
    for name in report.names(VarKind.COMPLETENESS):
        lines.append(f"    {_dot_quote(name)};")
    lines.append("  }")
    for arc in report.arcs:
        color = "green" if arc.sign == "positive" else "red"
        label = f"ρ={arc.rho:.4g}, p={arc.p:.3g}"
        lines.append(
            f"  {_dot_quote(arc.obs_var)} -- {_dot_quote(arc.comp_var)}"
            f' [color={color}, label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_arcs_csv(report: AnalysisReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ARC_CSV_COLUMNS)
    for arc in report.arcs:
        writer.writerow([_csv_cell(getattr(arc, key)) for key in ARC_CSV_COLUMNS])
    return buf.getvalue()


def _csv_cell(value) -> str:
    """Text as is, a number as its shortest round-trip repr, None as empty."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def render_graph_json(report: AnalysisReport) -> str:
    nodes = {
        "observation": report.names(VarKind.OBSERVATION),
        "completeness": report.names(VarKind.COMPLETENESS),
    }
    return _dump_object([("nodes", nodes), ("edges", report.arcs)])


EXPORT_FORMATS = {"dot": render_dot, "json": render_graph_json, "csv": render_arcs_csv}


def export_graph(report: AnalysisReport, fmt: str) -> str:
    """Render the arc graph in one of the supported formats."""
    if fmt not in EXPORT_FORMATS:
        known = ", ".join(EXPORT_FORMATS)
        raise ConfigError(f"unknown export format {fmt!r}, expected one of {known}")
    return EXPORT_FORMATS[fmt](report)
