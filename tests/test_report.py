"""The report writers against their reference: ``json.dumps`` of the JSON form."""

import json
import math
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from missgraph import (
    AnalysisReport,
    Category,
    MissingnessArc,
    MnarFinding,
    ProfileRow,
    VariableMeta,
    VarKind,
)
from missgraph.pooling import PooledEdge
from missgraph.report import json_record, render_graph_json


def reference_json(value) -> str:
    """The text both writers must produce, byte for byte."""
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def reference_graph_json(report: AnalysisReport) -> str:
    return reference_json(
        {
            "nodes": {
                "observation": report.names(VarKind.OBSERVATION),
                "completeness": report.names(VarKind.COMPLETENESS),
            },
            "edges": [json_record(arc) for arc in report.arcs],
        }
    )


# NUL, other control characters, JSON's escapes, '%', non-ASCII and U+2028.
texts = st.text(
    st.sampled_from(["\0", "\x01", "\x1f", "\x7f", "\n", "\t", '"', "\\", "%",
                     "s", "é", "λ", "😀", "\u2028", "a", " "])
    | st.characters(),
    max_size=6,
)
floats = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                       1.7976931348623157e308])
    | st.integers(-(10**30), 10**30)
)
ints = st.integers(-(2**70), 2**70) | st.booleans()
lists = {"max_size": 4}

variables = st.one_of(
    st.builds(VariableMeta, texts, st.sampled_from(Category)),
    st.builds(
        VariableMeta,
        texts,
        st.sampled_from(Category),
        st.just(VarKind.COMPLETENESS),
        texts.filter(bool),
    ),
)
reports = st.builds(
    AnalysisReport,
    meta=st.dictionaries(texts, st.none() | floats | texts | st.lists(ints), **lists),
    variables=st.lists(variables, **lists),
    missing_profile=st.lists(
        st.builds(ProfileRow, texts, st.sampled_from(Category), floats), **lists
    ),
    excluded_constant=st.lists(texts, **lists),
    warnings=st.lists(texts, **lists),
    lambdas=st.lists(floats, **lists),
    edges=st.lists(st.builds(PooledEdge, texts, texts, floats, floats, ints), **lists),
    arcs=st.lists(
        st.builds(
            MissingnessArc,
            texts,
            texts,
            floats,
            floats,
            texts,
            st.none() | floats,
            st.none() | floats,
        ),
        **lists,
    ),
    mnar_findings=st.lists(
        st.builds(MnarFinding, texts, floats, floats, st.tuples(texts, texts)), **lists
    ),
)


@settings(max_examples=75, deadline=None)
@given(report=reports)
def test_writers_match_json_dumps(report):
    assert report.to_json() == reference_json(json_record(report))
    assert render_graph_json(report) == reference_graph_json(report)


def test_a_list_mixing_record_classes_matches_json_dumps():
    @dataclass(frozen=True)
    class TaggedArc(MissingnessArc):
        tag: str = "extra"

    arcs = [
        MissingnessArc("a", "b__observed", 0.1, 1e-4, "positive", None, None),
        TaggedArc("c", "b__observed", -0.2, 1e-3, "negative", 0.3, 0.5),
    ]
    report = AnalysisReport({}, [], [], [], [], [], [], arcs, [])
    assert report.to_json() == reference_json(json_record(report))
    assert render_graph_json(report) == reference_graph_json(report)
