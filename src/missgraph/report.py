"""Records to and from JSON, and the analysis report's renderings.

``json_record`` writes a dataclass record as JSON, ``read_dataclass`` reads
one back with every value's type checked.  Each list of the report holds the
records the pipeline computed, so
``read_dataclass(AnalysisReport, json.loads(report.to_json()), "report")``
reproduces a report exactly.  All volatile run information (wall-clock
timestamp, elapsed seconds) lives under ``meta["runtime"]``; everything else
is a pure function of config and seed, which is what makes repeated runs
byte-comparable.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
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


def read_dataclass(cls, values, what: str = "config"):
    """Build dataclass ``cls`` from a parsed JSON object keyed by field name.

    Each value must have its field's JSON type (``null`` only where the type
    allows None); a non-object, an unknown or missing key, a wrong type or a
    ValueError of the record's own checks is a ConfigError whose message
    names ``what``.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, got {values!r}")
    hints = _type_hints(cls)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in values
        and f.default is MISSING
        and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"missing {what} keys: {', '.join(missing)}")
    kwargs = {k: _coerce(k, hints[k], v, what) for k, v in values.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


@functools.cache
def _type_hints(cls) -> dict:
    """Field types of ``cls``, resolved once: a report holds thousands of edges."""
    return typing.get_type_hints(cls)


def _coerce(name: str, hint, value, what: str):
    """Check ``value`` against the JSON type of field ``name`` and convert it.

    A ``list[X]``, ``tuple[X, ...]`` or ``dict[str, X]`` has its items read
    as ``X``; a bare ``list`` or ``dict`` is kept as parsed.
    """
    union = typing.get_origin(hint) is types.UnionType
    options = typing.get_args(hint) if union else (hint,)
    if value is None and type(None) in options:
        return None
    options = [o for o in options if o is not type(None)]
    kinds = [typing.get_origin(o) or o for o in options]
    for option, kind in zip(options, kinds):
        if _json_type(kind)[0](value):
            break
    else:
        described = " or ".join(_json_type(k)[1] for k in kinds)
        raise ConfigError(f"{what} key {name!r} must be {described}, got {value!r}")
    args = typing.get_args(option)
    if is_dataclass(kind):
        return read_dataclass(kind, value, name)
    if kind is dict and args:
        return {k: _coerce(f"{name}.{k}", args[1], v, what) for k, v in value.items()}
    if kind in (list, tuple) and args:
        items = [_coerce(f"{name}[{i}]", args[0], v, what) for i, v in enumerate(value)]
        return items if kind is list else tuple(items)
    return kind(value)


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
        return json.dumps(json_record(self), indent=2, ensure_ascii=False) + "\n"

    def names(self, kind: VarKind) -> list[str]:
        return [v.name for v in self.variables if v.kind is kind]


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
    payload = {
        "nodes": {
            "observation": report.names(VarKind.OBSERVATION),
            "completeness": report.names(VarKind.COMPLETENESS),
        },
        "edges": [json_record(arc) for arc in report.arcs],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


EXPORT_FORMATS = {"dot": render_dot, "json": render_graph_json, "csv": render_arcs_csv}


def export_graph(report: AnalysisReport, fmt: str) -> str:
    """Render the arc graph in one of the supported formats."""
    if fmt not in EXPORT_FORMATS:
        known = ", ".join(EXPORT_FORMATS)
        raise ConfigError(f"unknown export format {fmt!r}, expected one of {known}")
    return EXPORT_FORMATS[fmt](report)
