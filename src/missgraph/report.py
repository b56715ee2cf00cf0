"""Analysis report container and its JSON / CSV / DOT renderings.

The report is a plain data bag: every field is JSON-serializable as-is, so
``AnalysisReport.from_json(report.to_json())`` reproduces the report exactly.
All volatile run information (wall-clock timestamp, elapsed seconds) lives
under ``meta["runtime"]``; everything else is a pure function of config and
seed, which is what makes repeated runs byte-comparable.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass, fields
from pathlib import PurePath

from .errors import ConfigError

EXPORT_FORMATS = ("dot", "json", "csv")

#: Report keys of an arc, in ``MissingnessArc`` field order.
ARC_FIELDS = (
    "obs_var",
    "comp_var",
    "rho",
    "p",
    "sign",
    "counterpart_rho",
    "counterpart_p",
)

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
    """JSON form of a dataclass or named-tuple record, its fields in order.

    Converts the other way round from ``pipeline.read_dataclass``: an enum
    becomes its value, a path a string, a frozenset a sorted list and a
    tuple a list.  Other values are kept as they are, not copied.
    """
    if isinstance(record, tuple):
        items = record._asdict()
    else:
        items = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: _json_value(value) for name, value in items.items()}


def _json_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, PurePath):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass
class AnalysisReport:
    """End-to-end analysis result in JSON-ready form."""

    meta: dict
    variables: list[dict]
    missing_profile: list[dict]
    excluded_constant: list[str]
    warnings: list[str]
    lambdas: list[float]
    edges: list[dict]
    arcs: list[dict]
    mnar_findings: list[dict]

    def to_dict(self) -> dict:
        return json_record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))

    def observation_names(self) -> list[str]:
        return [v["name"] for v in self.variables if v["kind"] == "Observation"]

    def completeness_names(self) -> list[str]:
        return [v["name"] for v in self.variables if v["kind"] == "Completeness"]


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
    for name in report.observation_names():
        lines.append(f"    {_dot_quote(name)};")
    lines.append("  }")
    lines.append("  subgraph cluster_completeness {")
    lines.append('    label="Completeness";')
    for name in report.completeness_names():
        lines.append(f"    {_dot_quote(name)};")
    lines.append("  }")
    for arc in report.arcs:
        color = "green" if arc["sign"] == "positive" else "red"
        label = f"ρ={arc['rho']:.4g}, p={arc['p']:.3g}"
        lines.append(
            f"  {_dot_quote(arc['obs_var'])} -- {_dot_quote(arc['comp_var'])}"
            f' [color={color}, label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_arcs_csv(report: AnalysisReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ARC_CSV_COLUMNS)
    for arc in report.arcs:
        writer.writerow([_csv_cell(arc[key]) for key in ARC_CSV_COLUMNS])
    return buf.getvalue()


def _csv_cell(value) -> str:
    """Text as is, a number as its shortest round-trip repr, None as empty."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def render_graph_json(report: AnalysisReport) -> str:
    payload = {
        "nodes": {
            "observation": report.observation_names(),
            "completeness": report.completeness_names(),
        },
        "edges": [{key: arc[key] for key in ARC_FIELDS} for arc in report.arcs],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def export_graph(report: AnalysisReport, fmt: str) -> str:
    """Render the arc graph in one of the supported formats."""
    if fmt == "dot":
        return render_dot(report)
    if fmt == "json":
        return render_graph_json(report)
    if fmt == "csv":
        return render_arcs_csv(report)
    raise ConfigError(
        f"unknown export format {fmt!r}, expected one of {', '.join(EXPORT_FORMATS)}"
    )
