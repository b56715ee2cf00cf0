"""Outside-in tracing of missgraph's public functions.

The benchmark does not edit the package.  It replaces, for the duration of
an analysis, the module attributes through which the package calls its own
stages (``missgraph.pipeline.fit_precision``, ``missgraph.ggm.glasso_fit``,
...) with wrappers that record one span per call.  A span holds its name,
start and end (``time.perf_counter`` seconds), the index of the enclosing
span and the id of the analysis it belongs to.  Spans stay in memory and are
written out once, when the run ends.

Work inside a function (solver sweeps, inner lasso passes) is invisible from
here; only the call boundaries listed in ``TARGETS`` are.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import missgraph.cli
import missgraph.dataset
import missgraph.ggm
import missgraph.pipeline
import missgraph.report

def _indicator_cols(args, kwargs, result):
    return len(result.indicator_metas)


def _cells_drawn(args, kwargs, result):
    augmented = args[0] if args else kwargs["augmented"]
    return int((~augmented.base.mask).sum())


def _columns(args, kwargs, result):
    return int(result.values.shape[1])


def _ric_shape(args, kwargs, result):
    t = args[0] if args else kwargs["t"]
    values = getattr(t, "values", t)
    rotations = args[1] if len(args) > 1 else kwargs.get("n_rotations", 20)
    n, p = values.shape
    return (int(n), int(p), int(rotations))


def _arcs(args, kwargs, result):
    return len(result)


# (namespace the caller looks the name up in, attribute, span name, note)
# ``note`` is a function of (args, kwargs, result) whose small return value is
# stored with the span; it runs after the span's end time is taken.
TARGETS = (
    (missgraph.cli, "main", "cli.main", None),
    (missgraph.cli, "run_analysis", "pipeline.run_analysis", None),
    (missgraph.pipeline, "load_schema", "dataset.load_schema", None),
    (missgraph.dataset, "parse_csv", "dataset.parse_csv", None),
    (missgraph.pipeline, "analyze_dataset", "pipeline.analyze_dataset", None),
    (
        missgraph.pipeline,
        "make_completeness_indicators",
        "augment.make_completeness_indicators",
        _indicator_cols,
    ),
    (missgraph.pipeline, "hot_deck_impute", "impute.hot_deck_impute", _cells_drawn),
    (
        missgraph.pipeline,
        "nonparanormal_transform",
        "npn.nonparanormal_transform",
        _columns,
    ),
    (missgraph.pipeline, "select_lambda_ric", "ggm.select_lambda_ric", _ric_shape),
    (missgraph.pipeline, "fit_precision", "ggm.fit_precision", None),
    (missgraph.ggm, "correlation_matrix", "ggm.correlation_matrix", None),
    (missgraph.ggm, "glasso_fit", "ggm.glasso_fit", None),
    (
        missgraph.pipeline,
        "pool_partial_correlations",
        "pooling.pool_partial_correlations",
        None,
    ),
    (missgraph.pipeline, "edge_p_values", "pooling.edge_p_values", None),
    (
        missgraph.pipeline,
        "extract_missingness_arcs",
        "pooling.extract_missingness_arcs",
        _arcs,
    ),
    (missgraph.pipeline, "detect_mnar", "pooling.detect_mnar", None),
    (missgraph.report.AnalysisReport, "to_json", "report.to_json", None),
    (missgraph.pipeline, "render_arcs_csv", "report.render_arcs_csv", None),
    (missgraph.pipeline, "render_dot", "report.render_dot", None),
)


# Span record layout (lists are cheaper to build than dicts or objects).
NAME, START, END, PARENT, ANALYSIS, NOTE = range(6)


class Tracer:
    """In-memory span recorder; ``installed()`` swaps the wrappers in and out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.analysis: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.analysis, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, analysis_id: int):
        """Wrap every target for one analysis, then restore the originals."""
        saved = []
        self.analysis = analysis_id
        try:
            for owner, attr, name, note in TARGETS:
                original = owner.__dict__.get(attr)
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.analysis = None

    def records(self) -> list[dict]:
        return [
            {
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "analysis": s[ANALYSIS],
                "note": s[NOTE],
            }
            for s in self.spans
        ]


@contextmanager
def capture_glasso(calls: list):
    """Record (sigma_hat, lam, theta_hat) of every ``glasso_fit`` call.

    Used in every run, traced or not, so that the solver's certificate and
    the screening structure can be computed after the timed analysis.
    """
    original = missgraph.ggm.glasso_fit

    @functools.wraps(original)
    def recording(sigma_hat, lam, *args, **kwargs):
        theta = original(sigma_hat, lam, *args, **kwargs)
        calls.append((sigma_hat, lam, theta))
        return theta

    missgraph.ggm.glasso_fit = recording
    try:
        yield calls
    finally:
        missgraph.ggm.glasso_fit = original


def layer_times(spans: list[list], analysis_id: int) -> dict[str, float]:
    """Per-layer seconds of one analysis, from its spans.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (single-threaded calls).
    """
    own = [i for i, s in enumerate(spans) if s[ANALYSIS] == analysis_id]
    duration = {i: spans[i][END] - spans[i][START] for i in own}
    children_time = dict.fromkeys(own, 0.0)
    for i in own:
        parent = spans[i][PARENT]
        if parent in children_time:
            children_time[parent] += duration[i]

    def total(*names):
        return sum(duration[i] for i in own if spans[i][NAME] in names)

    def self_time(*names):
        return sum(
            duration[i] - children_time[i] for i in own if spans[i][NAME] in names
        )

    def under(name, parent_name):
        return sum(
            duration[i]
            for i in own
            if spans[i][NAME] == name
            and spans[i][PARENT] is not None
            and spans[spans[i][PARENT]][NAME] == parent_name
        )

    return {
        "dataset.parse_s": total("dataset.parse_csv", "dataset.load_schema"),
        "augment.indicators_s": total("augment.make_completeness_indicators"),
        "impute.hot_deck_s": total("impute.hot_deck_impute"),
        "npn.transform_s": total("npn.nonparanormal_transform"),
        "ggm.select_lambda_s": total("ggm.select_lambda_ric"),
        "ggm.ric_correlation_s": under("ggm.correlation_matrix", "ggm.select_lambda_ric"),
        "ggm.fit_precision_s": self_time("ggm.fit_precision"),
        "ggm.correlation_s": under("ggm.correlation_matrix", "ggm.fit_precision"),
        "ggm.glasso_s": total("ggm.glasso_fit"),
        "pooling.pool_s": total(
            "pooling.pool_partial_correlations", "pooling.edge_p_values"
        ),
        "pooling.inference_s": total(
            "pooling.extract_missingness_arcs", "pooling.detect_mnar"
        ),
        "report.render_s": total(
            "report.to_json", "report.render_arcs_csv", "report.render_dot"
        ),
        "pipeline.self_s": self_time(
            "pipeline.run_analysis", "pipeline.analyze_dataset"
        ),
        "cli.self_s": self_time("cli.main"),
    }


def layer_counts(spans: list[list], analysis_id: int) -> dict[str, float]:
    """Work counts of one analysis, from the notes stored with its spans."""
    notes: dict[str, list] = {}
    for s in spans:
        if s[ANALYSIS] == analysis_id and s[NOTE] is not None:
            notes.setdefault(s[NAME], []).append(s[NOTE])
    ric = notes.get("ggm.select_lambda_ric", [])
    return {
        "augment.indicator_cols": sum(
            notes.get("augment.make_completeness_indicators", [])
        ),
        "impute.cells_drawn": sum(notes.get("impute.hot_deck_impute", [])),
        "npn.columns": sum(notes.get("npn.nonparanormal_transform", [])),
        "ggm.ric_permutations": sum(r * p for n, p, r in ric),
        # computed, not counted: R*n*p^2 multiply-adds per lambda selection
        "ggm.ric_corr_flops": sum(r * n * p * p for n, p, r in ric),
        "ggm.glasso_calls": sum(
            1 for s in spans if s[ANALYSIS] == analysis_id and s[NAME] == "ggm.glasso_fit"
        ),
        "pooling.arcs": sum(notes.get("pooling.extract_missingness_arcs", [])),
    }
