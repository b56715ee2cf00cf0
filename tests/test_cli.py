import csv
import errno
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import missgraph.cli
import missgraph.ggm
import missgraph.pipeline
from missgraph import (
    AnalysisReport,
    ConfigError,
    VarKind,
    VariableMeta,
    export_graph,
    fit_precision,
    nonparanormal_transform,
    pool_partial_correlations,
)
from missgraph.cli import main
from missgraph.report import read_dataclass

DATA = Path(__file__).resolve().parent.parent / "data"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, out, err, message):
    """One JSON line on stderr, of kind config and stage usage, and exit 2."""
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["code"], payload["kind"], payload["stage"]) == (
        2,
        "config",
        "usage",
    )
    assert message in payload["message"]


#: Cell texts that fuzzed CSVs carry, besides a ragged row, a stray byte that
#: is not UTF-8 and the whole file written in UTF-16.
FUZZED_CELLS = ["inf", "1e999", "abc", "\0", '"1\n2"']


@st.composite
def fuzzed_csv_bytes(draw):
    """The bytes of a CSV of 1-4 columns and 0-40 rows of small integers and
    NA cells (1 in 20), carrying 0-3 faults.  The cells come from a Random
    of a drawn seed, which keeps the draw cheap."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 40))
    kinds = ["ragged", "stray_byte", "utf_16", *FUZZED_CELLS]
    faults = draw(st.lists(st.sampled_from(kinds), max_size=3))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    draws = rnd.choices(range(-9, 11), k=n_rows * n_cols)
    cells = [str(x) if x < 10 else "NA" for x in draws]
    rows = [cells[i : i + n_cols] for i in range(0, len(cells), n_cols)]
    for fault in faults:
        if rows and fault == "ragged":
            rnd.choice(rows).append("1")
        elif rows and fault in FUZZED_CELLS:
            rnd.choice(rows)[rnd.randrange(n_cols)] = fault
    header = ",".join(f"v{j}" for j in range(n_cols))
    text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    data = text.encode("utf-16" if "utf_16" in faults else "utf-8")
    if "stray_byte" in faults:
        at = rnd.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]
    return data


#: Values that replace one entry of a fuzzed report, spec or config file, or
#: fill a key added to it; none makes a run grow.
FUZZED_VALUES = [None, "abc", -1, 0, 1, 0.5, True, [], {}]


def json_paths(node, path=()):
    """The path (keys and indices) of ``node`` and of every entry within it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, (*path, key))


@st.composite
def mutated_json(draw, document):
    """A copy of the JSON ``document`` with one entry replaced by one of
    FUZZED_VALUES or dropped, or with an unknown key of such a value added to
    one of its objects."""
    document = json.loads(json.dumps(document))
    path = draw(st.sampled_from(list(json_paths(document))))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    value = draw(st.sampled_from(FUZZED_VALUES))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else document
    if isinstance(node, dict) and (action == "add" or not path):
        node["unknown_key"] = value
    elif action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


def strip_volatile(text: str) -> str:
    """Drop the run-clock lines; everything else must be byte-identical."""
    return "\n".join(
        line
        for line in text.splitlines()
        if '"timestamp"' not in line and '"elapsed_seconds"' not in line
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed")


@pytest.fixture(scope="module")
def json_fuzz(tmp_path_factory):
    """A directory holding a 50-row spec, the table it simulates, a config
    that analyzes that table and the report of that analysis, with each
    file's command line, which names the files relative to the directory."""
    root = tmp_path_factory.mktemp("json_fuzz")
    spec = {
        "n": 50,
        "seed": 3,
        "names": ["a", "b"],
        "precision": {"type": "ar1", "p": 2, "rho": 0.5},
        "mechanisms": [{"kind": "MNAR", "target": "a", "rate": 0.3, "slope": 1.5}],
    }
    config = {
        "input": "sim/dataset.csv", "out": "run", "n_imputations": 2,
        "lambda_value": 0.2,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    (root / "config.json").write_text(json.dumps(config))
    commands = {
        "spec.json": ["simulate", "--spec", "spec.json", "--out", "sim"],
        "config.json": ["analyze", "--config", "config.json"],
        "report.json": ["export", "--report", "report.json", "--format", "csv"],
    }
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(io.StringIO()):
        patch.chdir(root)
        assert main(commands["spec.json"]) == 0
        assert main(commands["config.json"]) == 0
    (root / "report.json").write_text((root / "run" / "report.json").read_text())
    documents = {
        name: json.loads((root / name).read_text()) for name in sorted(commands)
    }
    return root, commands, documents


@pytest.fixture(scope="module")
def mnar_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mnar_run")
    code = main(
        [
            "analyze",
            "--input", str(DATA / "mnar_example.csv"),
            "--out", str(out),
            "--seed", "1",
            "--imputations", "10",
        ]
    )
    assert code == 0
    return out


class TestAnalyze:
    def test_outputs_exist(self, mnar_run):
        for name in ("report.json", "arcs.csv", "graph.dot"):
            assert (mnar_run / name).is_file()

    def test_mnar_fixture_yields_finding(self, mnar_run):
        report = json.loads((mnar_run / "report.json").read_text())
        assert len(report["mnar_findings"]) >= 1
        finding = report["mnar_findings"][0]
        assert finding["variable"] == "lab_value"
        assert "vital_sign" in finding["witnesses"]

    def test_arcs_csv_rows_match_report(self, mnar_run):
        report = json.loads((mnar_run / "report.json").read_text())
        alpha = report["meta"]["config"]["alpha"]
        significant = [e for e in report["edges"] if e["p_value"] < alpha]
        mixed = []
        kinds = {v["name"]: v["kind"] for v in report["variables"]}
        for e in significant:
            if (kinds[e["var_a"]] == "Completeness") != (
                kinds[e["var_b"]] == "Completeness"
            ):
                mixed.append(e)
        rows = list(
            csv.DictReader(io.StringIO((mnar_run / "arcs.csv").read_text()))
        )
        assert len(rows) == len(mixed) == len(report["arcs"])

    def test_report_round_trips_through_json(self, mnar_run):
        text = (mnar_run / "report.json").read_text()
        report = read_dataclass(AnalysisReport, json.loads(text), "report")
        assert report.to_json() == text

    def test_determinism_modulo_timestamps(self, tmp_path, capsys):
        args = [
            "analyze",
            "--input", str(DATA / "mcar_example.csv"),
            "--seed", "77",
            "--imputations", "4",
        ]
        code_a, _, _ = run(args + ["--out", str(tmp_path / "a")], capsys)
        code_b, _, _ = run(args + ["--out", str(tmp_path / "b")], capsys)
        assert code_a == code_b == 0
        ra = (tmp_path / "a" / "report.json").read_text()
        rb = (tmp_path / "b" / "report.json").read_text()
        assert strip_volatile(ra) == strip_volatile(rb)
        assert (tmp_path / "a" / "arcs.csv").read_text() == (
            tmp_path / "b" / "arcs.csv"
        ).read_text()
        assert (tmp_path / "a" / "graph.dot").read_text() == (
            tmp_path / "b" / "graph.dot"
        ).read_text()

    def test_no_missing_cells_warns_and_reports_empty(self, tmp_path, capsys):
        data = tmp_path / "full.csv"
        data.write_text(
            "a,b\n" + "\n".join(f"{i},{i * 2 + 1}" for i in range(20)) + "\n"
        )
        code, out, err = run(
            [
                "analyze",
                "--input", str(data),
                "--out", str(tmp_path / "out"),
                "--imputations", "2",
            ],
            capsys,
        )
        assert code == 0
        assert "no completeness indicators generated" in err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["arcs"] == []
        assert report["warnings"] == ["no completeness indicators generated"]

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": str(DATA / "mcar_example.csv"),
                    "seed": 5,
                    "n_imputations": 2,
                    "alpha": 0.5,
                }
            )
        )
        code, _, _ = run(
            [
                "analyze",
                "--config", str(cfg),
                "--alpha", "0.001",
                "--out", str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["meta"]["config"]["alpha"] == 0.001  # flag wins
        assert report["meta"]["config"]["seed"] == 5  # config file beats default
        assert report["meta"]["config"]["n_imputations"] == 2

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        text = json.dumps(
            {"input": str(DATA / "mcar_example.csv"), "seed": 5, "n_imputations": 2}
        )
        cfg.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        code, _, _ = run(
            ["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["meta"]["config"]["seed"] == 5

    def test_schema_file_with_byte_order_mark(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_bytes(b"\xef\xbb\xbf" + b'{"lab_value": "BloodTests"}')
        code, _, _ = run(
            [
                "analyze",
                "--input", str(DATA / "mnar_example.csv"),
                "--schema", str(schema),
                "--imputations", "2",
                "--out", str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["variables"][0]["name"] == "lab_value"
        assert report["variables"][0]["category"] == "BloodTests"

    def test_na_token_order_and_repeats_leave_outputs_unchanged(
        self, tmp_path, capsys
    ):
        # Every other missing cell is written "?", the rest "NA".
        lines = (DATA / "mnar_example.csv").read_text().splitlines()
        cells = [line.split(",") for line in lines]
        missing = [
            (r, c)
            for r, row in enumerate(cells)
            for c, value in enumerate(row)
            if value == "NA"
        ]
        for r, c in missing[::2]:
            cells[r][c] = "?"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(",".join(row) for row in cells) + "\n")
        base = ["analyze", "--input", str(data), "--imputations", "3", "--seed", "1"]
        orders = (["?", "NA"], ["NA", "?", "?"])
        for name, tokens in zip("ab", orders):
            flags = [arg for token in tokens for arg in ("--na-token", token)]
            code, _, _ = run(base + flags + ["--out", str(tmp_path / name)], capsys)
            assert code == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert strip_volatile((a / "report.json").read_text()) == strip_volatile(
            (b / "report.json").read_text()
        )
        for name in ("arcs.csv", "graph.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        report = json.loads((a / "report.json").read_text())
        assert report["meta"]["config"]["na_tokens"] == ["?", "NA"]
        # Both tokens were read as missing: lab_value has all 679 holes.
        assert report["missing_profile"][0]["missing_proportion"] == pytest.approx(
            len(missing) / (len(lines) - 1)
        )

    def test_padded_na_token_is_trimmed_like_the_cells(self, tmp_path, capsys):
        # The report's config keeps the token as given.
        code, _, _ = run(
            [
                "analyze", "--input", str(DATA / "mnar_example.csv"),
                "--imputations", "2", "--lambda-value", "0.2",
                "--na-token", " NA ", "--out", str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["meta"]["config"]["na_tokens"] == [" NA "]
        assert report["missing_profile"][0]["missing_proportion"] > 0

    def test_outdir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MISSGRAPH_OUTDIR", str(tmp_path / "envout"))
        code, _, _ = run(
            [
                "analyze",
                "--input", str(DATA / "mcar_example.csv"),
                "--imputations", "2",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "envout" / "report.json").is_file()

    def test_dump_members(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "analyze",
                "--input", str(DATA / "mcar_example.csv"),
                "--out", str(tmp_path / "out"),
                "--imputations", "3",
                "--dump-members",
            ],
            capsys,
        )
        assert code == 0
        members = sorted((tmp_path / "out").glob("member_*.csv"))
        assert len(members) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # The input has an imputed, a fully observed and an indicator column,
        # so the shared-column transform and the per-member one both count.
        missing = [row["missing_proportion"] for row in report["missing_profile"]]
        assert min(missing) == 0.0 < max(missing)
        assert "Completeness" in {v["kind"] for v in report["variables"]}
        # The members and their lambdas give back the pooled table exactly,
        # each member after the first started from member 1's estimate.
        names = members[0].read_text().splitlines()[0].split(",")
        fits = []
        for path, lam in zip(members, report["lambdas"]):
            fits.append(
                fit_precision(
                    nonparanormal_transform(
                        np.loadtxt(path, delimiter=",", skiprows=1)
                    ),
                    lam,
                    start=fits[0].theta if fits else None,
                )
            )
        table = pool_partial_correlations(fits)
        for edge in report["edges"]:
            i, j = names.index(edge["var_a"]), names.index(edge["var_b"])
            assert edge["pooled_rho"] == float(table.pooled_rho[i, j])
            assert edge["support_count"] == int(table.support_count[i, j])

    def test_fixed_lambda_skips_permutation_null(self, tmp_path, capsys, monkeypatch):
        def no_ric(*args, **kwargs):
            raise AssertionError("select_lambda_ric called under a fixed lambda")

        monkeypatch.setattr(missgraph.pipeline, "select_lambda_ric", no_ric)
        code, _, _ = run(
            [
                "analyze",
                "--input", str(DATA / "mnar_example.csv"),
                "--out", str(tmp_path / "out"),
                "--imputations", "3",
                "--lambda-value", "0.05",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["lambdas"] == [0.05, 0.05, 0.05]
        assert report["meta"]["config"]["lambda_value"] == 0.05


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--seed", "abc"], "invalid int value: 'abc'"),
            ([], "required: command"),
        ],
        ids=["bad_seed", "no_subcommand"],
    )
    def test_usage_error_prints_one_json_line(self, argv, message, capsys):
        assert_usage_error(*run(argv, capsys), message)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_bad_alpha_is_config_error(self, tmp_path, capsys):
        code, _, err = run(
            [
                "analyze",
                "--input", str(DATA / "mcar_example.csv"),
                "--out", str(tmp_path),
                "--alpha", "2.0",
            ],
            capsys,
        )
        assert code == 2
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "config"
        assert payload["code"] == 2

    def test_negative_lambda_is_config_error(self, tmp_path, capsys):
        code, _, err = run(
            [
                "analyze",
                "--input", str(DATA / "mcar_example.csv"),
                "--out", str(tmp_path / "out"),
                "--lambda-value", "-0.1",
            ],
            capsys,
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "config"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_is_config_error(self, value, tmp_path, capsys):
        code, _, err = run(
            [
                "analyze",
                "--input", str(DATA / "mcar_example.csv"),
                "--out", str(tmp_path / "out"),
                "--lambda-value", value,
            ],
            capsys,
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["kind"] == "config"
        assert "finite" in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "65_bits"])
    def test_seed_outside_64_bits_is_config_error(self, seed, tmp_path, capsys):
        # split_seed reads a seed modulo 2**64: -1 would run as 2**64 - 1.
        out = tmp_path / "out"
        code, stdout, err = run(
            [
                "analyze",
                "--input", str(DATA / "mnar_example.csv"),
                "--out", str(out),
                "--seed", str(seed),
            ],
            capsys,
        )
        assert (code, stdout) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["kind"] == "config"
        assert payload["message"] == f"seed must be inside [0, 2**64), got {seed}"
        assert not out.exists()

    def test_sweep_budget_is_convergence_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(missgraph.ggm, "MAX_SWEEPS", 1)
        code, _, err = run(
            [
                "analyze",
                "--input", str(DATA / "mnar_example.csv"),
                "--out", str(tmp_path / "out"),
                "--imputations", "2",
            ],
            capsys,
        )
        assert code == 5
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("convergence", "fit")

    @pytest.mark.parametrize(
        "entry",
        [
            {"alpha": "abc"},
            {"dump_members": "false"},
            {"na_tokens": "NA"},
            {"seed": 1.7},
            {"lambda_method": "ric"},
            {"lambda_value": 10**400},
        ],
        ids=lambda entry: next(iter(entry)),
    )
    def test_wrong_config_value_type_is_config_error(self, entry, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "out"
        code, _, err = run(
            [
                "analyze",
                "--input", str(DATA / "mnar_example.csv"),
                "--config", str(cfg),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["kind"] == "config"
        assert next(iter(entry)) in payload["message"]
        assert not out.exists()

    def test_missing_input_is_parse_error(self, tmp_path, capsys):
        code, _, err = run(
            ["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "parse"
        assert payload["stage"] == "parse"

    def test_bad_cell_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,x\n")
        code, _, err = run(
            ["analyze", "--input", str(bad), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 3
        assert "'b'" in json.loads(err.strip().splitlines()[-1])["message"]

    def test_csv_that_is_not_utf8_is_parse_error(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"a,b\n1,\xff\n")
        code, out, err = run(
            ["analyze", "--input", str(latin1), "--out", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("parse", "parse")
        assert f"{latin1}: not UTF-8" in payload["message"]

    def test_cell_over_the_field_size_limit_is_parse_error(self, tmp_path, capsys):
        long = tmp_path / "long.csv"
        long.write_text("a,b\n1," + "7" * 200_000 + "\n")
        code, out, err = run(
            ["analyze", "--input", str(long), "--out", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("parse", "parse")
        assert payload["message"].startswith(f"{long}: line 2: field larger")

    @pytest.mark.parametrize(
        "content", ["\n1,2\n", "\n\n\n"], ids=["then_row", "blank_lines_only"]
    )
    def test_blank_header_is_parse_error(self, content, tmp_path, capsys):
        data = tmp_path / "blank.csv"
        data.write_text(content)
        code, out, err = run(
            ["analyze", "--input", str(data), "--out", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("parse", "parse")
        assert payload["message"] == f"{data}: empty header row"

    @pytest.mark.parametrize(
        "header, position", [("a, ,c", 2), ("a,b,", 3)], ids=["padded", "trailing"]
    )
    def test_blank_header_cell_is_parse_error(self, header, position, tmp_path, capsys):
        data = tmp_path / "blank_cell.csv"
        data.write_text(f"{header}\n1,2,3\n4,5,6\n")
        code, out, err = run(
            ["analyze", "--input", str(data), "--out", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("parse", "parse")
        assert payload["message"] == f"{data}: header cell {position} is blank"

    def test_duplicate_header_before_a_bad_byte_is_parse_error(self, tmp_path, capsys):
        # The bad byte lies in the first 8 KiB, which the header's read
        # decodes, and after a ragged row 3: the header's fault comes first.
        data = tmp_path / "dupes.csv"
        data.write_bytes(b"a,a\n1,2\n3\n\xe9,3\n")
        code, out, err = run(
            ["analyze", "--input", str(data), "--out", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("parse", "parse")
        assert payload["message"] == f"{data}: duplicate header name(s): a"

    def test_schema_key_naming_no_column_is_parse_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"lab_valu": "BloodTests"}')
        argv = [
            "analyze",
            "--input", str(DATA / "mnar_example.csv"),
            "--schema", str(schema),
            "--out", str(tmp_path / "o"),
        ]
        code, _, err = run(argv, capsys)
        assert code == 3
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "parse"
        assert payload["stage"] == "parse"
        assert "lab_valu" in payload["message"]

    def test_column_named_like_an_indicator_is_parse_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_impute(*args, **kwargs):
            raise AssertionError("a member was imputed before the name check")

        monkeypatch.setattr(missgraph.pipeline, "hot_deck_draws", no_impute)
        data = tmp_path / "data.csv"
        rows = "\n".join(f"{'NA' if i % 4 else i},{i % 7},{i % 3}" for i in range(20))
        data.write_text("a,b,a__observed\n" + rows + "\n")
        code, _, err = run(
            ["analyze", "--input", str(data), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 3
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("parse", "augment")
        assert "'a__observed'" in payload["message"] and "'a'" in payload["message"]

    @pytest.mark.parametrize(
        "case, content",
        [
            ("config", None),
            ("config", "{alpha: 0.1}"),
            ("config", "[1]"),
            ("spec", "not json"),
            ("report", "{"),
            ("outdir", None),
            ("config", '{"alpha": 1' + "0" * 5000 + "}"),
        ],
        ids=[
            "missing_config",
            "config_not_json",
            "config_not_object",
            "spec_not_json",
            "report_not_json",
            "no_outdir",
            "config_int_beyond_digit_limit",
        ],
    )
    def test_unusable_json_file_is_config_error(
        self, case, content, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(missgraph.cli.ENV_OUTDIR, raising=False)
        path = tmp_path / "file.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        analyze = ["analyze", "--input", str(DATA / "mnar_example.csv")]
        argv = {
            "config": analyze + ["--config", str(path), "--out", str(out)],
            "spec": ["simulate", "--spec", str(path), "--out", str(out)],
            "report": ["export", "--report", str(path), "--format", "dot"],
            "outdir": analyze,
        }[case]
        code, _, err = run(argv, capsys)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["kind"] == "config"
        named = missgraph.cli.ENV_OUTDIR if case == "outdir" else str(path)
        assert named in payload["message"]

    def test_constant_column_is_numeric_error(self, tmp_path, capsys):
        const = tmp_path / "const.csv"
        rows = "\n".join("5.0,%d" % i for i in range(20))
        const.write_text("c,v\n" + rows + "\n")
        code, _, err = run(
            ["analyze", "--input", str(const), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 4
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "numeric"
        assert payload["stage"] == "transform"
        assert "'c'" in payload["message"]

    @pytest.mark.parametrize(
        "cells, stage",
        [(["5.0", "NA"] * 10, "transform"), (["NA"] * 20, "impute")],
        ids=["constant-observed-cells", "all-missing"],
    )
    def test_unusable_imputed_column_is_numeric_error(
        self, cells, stage, tmp_path, capsys
    ):
        data = tmp_path / "data.csv"
        rows = "\n".join(f"{cell},{i},{i % 7}" for i, cell in enumerate(cells))
        data.write_text("c,v,w\n" + rows + "\n")
        code, _, err = run(
            ["analyze", "--input", str(data), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 4
        payload = json.loads(err.strip().splitlines()[-1])
        assert (payload["kind"], payload["stage"]) == ("numeric", stage)
        assert "'c'" in payload["message"]

    @staticmethod
    def writing_argv(command, out, tmp_path, mnar_run):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 200,
                    "names": ["a", "b"],
                    "precision": {"type": "identity", "p": 2},
                    "mechanisms": [{"kind": "MCAR", "target": "a", "rate": 0.3}],
                }
            )
        )
        return {
            "analyze": [
                "analyze",
                "--input", str(DATA / "mnar_example.csv"),
                "--imputations", "2",
                "--dump-members",
                "--out", str(out),
            ],
            "simulate": ["simulate", "--spec", str(spec), "--out", str(out)],
            "export": [
                "export",
                "--report", str(mnar_run / "report.json"),
                "--format", "dot",
                "--out", str(out / "graph.dot"),
            ],
        }[command]

    @staticmethod
    def assert_write_error(code, err):
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("config", "write")
        assert payload["message"].startswith("cannot write ")

    @pytest.mark.parametrize("command", ["analyze", "simulate", "export"])
    def test_out_under_regular_file_is_write_error(
        self, command, mnar_run, tmp_path, capsys, monkeypatch
    ):
        def no_impute(*args, **kwargs):
            raise AssertionError("a member was imputed before the write check")

        # analyze creates its output directory before the first member
        monkeypatch.setattr(missgraph.pipeline, "hot_deck_draws", no_impute)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = self.writing_argv(command, blocker / "out", tmp_path, mnar_run)
        code, out, err = run(argv, capsys)
        self.assert_write_error(code, err)
        assert "wrote:" not in out
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "command, writer_module",
        [("simulate", missgraph.cli), ("analyze", missgraph.pipeline)],
        ids=["simulate", "analyze_dump_members"],
    )
    def test_failed_write_removes_every_output_file(
        self, command, writer_module, mnar_run, tmp_path, capsys, monkeypatch
    ):
        def write_half_then_fail(matrix, names, path, *args):
            path.write_text(",".join(names) + "\n1.0,")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(writer_module, "write_matrix_csv", write_half_then_fail)
        out = tmp_path / "out"
        argv = self.writing_argv(command, out, tmp_path, mnar_run)
        code, _, err = run(argv, capsys)
        self.assert_write_error(code, err)
        assert out.is_dir()
        assert [path for path in out.rglob("*") if path.is_file()] == []

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,x\n")
        out = tmp_path / "out"
        code, _, _ = run(["analyze", "--input", str(bad), "--out", str(out)], capsys)
        assert code == 3
        assert not out.exists() or not list(out.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed_csv_bytes())
    def test_any_csv_exits_0_or_with_one_json_line(self, fuzz_dir, data):
        # Each example overwrites the last one's input and outputs; a new
        # directory per example added about 0.4 s to the 200 examples.
        path = fuzz_dir / "data.csv"
        path.write_bytes(data)
        argv = [
            "analyze", "--input", str(path), "--out", str(fuzz_dir / "out"),
            "--imputations", "2", "--lambda-value", "0.2",
        ]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        if code != 0:
            assert code in (2, 3, 4)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["code"] == code

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_report_spec_or_config_exits_0_or_with_one_json_line(
        self, json_fuzz, data
    ):
        # Each example overwrites the last one's file and outputs.
        root, commands, documents = json_fuzz
        name = data.draw(st.sampled_from(sorted(documents)))
        (root / name).write_text(json.dumps(data.draw(mutated_json(documents[name]))))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(commands[name])
        if code != 0:
            assert code in (2, 3, 4)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["code"] == code


class TestSimulate:
    def spec_file(self, tmp_path, mechanisms, n=10_000, seed=3):
        spec = {
            "n": n,
            "seed": seed,
            "names": ["a", "b"],
            "precision": {"type": "identity", "p": 2},
            "mechanisms": mechanisms,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_mcar_rate_hits_profile(self, tmp_path, capsys):
        from missgraph import missing_profile, parse_csv

        spec = self.spec_file(
            tmp_path, [{"kind": "MCAR", "target": "a", "rate": 0.3}]
        )
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--spec", str(spec), "--out", str(out)], capsys)
        assert code == 0
        profile = missing_profile(parse_csv(out / "dataset.csv"))
        assert profile[0].missing_proportion == pytest.approx(0.3, abs=0.02)
        assert profile[1].missing_proportion == 0.0

    def test_repeated_seed_identical_files(self, tmp_path, capsys):
        spec = self.spec_file(
            tmp_path, [{"kind": "MCAR", "target": "a", "rate": 0.2}], n=500
        )
        for sub in ("s1", "s2"):
            code, _, _ = run(
                ["simulate", "--spec", str(spec), "--out", str(tmp_path / sub)],
                capsys,
            )
            assert code == 0
        for name in ("dataset.csv", "truth.json", "probabilities.csv"):
            assert (tmp_path / "s1" / name).read_bytes() == (
                tmp_path / "s2" / name
            ).read_bytes()

    def test_truth_marks_mnar_kind(self, tmp_path, capsys):
        spec = self.spec_file(
            tmp_path,
            [{"kind": "MNAR", "target": "a", "rate": 0.3, "slope": 1.5}],
            n=200,
        )
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--spec", str(spec), "--out", str(out)], capsys)
        assert code == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["mechanisms"][0]["kind"] == "MNAR"
        assert truth["mechanisms"][0]["target"] == "a"

    def test_spec_file_with_byte_order_mark(self, tmp_path, capsys):
        spec = self.spec_file(
            tmp_path, [{"kind": "MCAR", "target": "a", "rate": 0.2}], n=200
        )
        spec.write_bytes(b"\xef\xbb\xbf" + spec.read_bytes())
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--spec", str(spec), "--out", str(out)], capsys)
        assert code == 0
        assert json.loads((out / "truth.json").read_text())["n"] == 200

    def test_invalid_spec_lists_missing_fields(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 10}))
        code, _, err = run(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        message = json.loads(err.strip().splitlines()[-1])["message"]
        assert "names" in message and "precision" in message and "mechanisms" in message

    def test_truth_json_is_a_spec(self, tmp_path, capsys):
        spec = self.spec_file(
            tmp_path,
            [
                {"kind": "MNAR", "target": "a", "rate": 0.3, "slope": 1.5},
                {"kind": "MCAR", "target": "b", "rate": 0.2, "seed": 99},
            ],
            n=300,
        )
        first, second = tmp_path / "first", tmp_path / "second"
        code, _, _ = run(["simulate", "--spec", str(spec), "--out", str(first)], capsys)
        assert code == 0
        code, _, _ = run(
            ["simulate", "--spec", str(first / "truth.json"), "--out", str(second)],
            capsys,
        )
        assert code == 0
        for name in ("dataset.csv", "truth.json", "probabilities.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    MALFORMED = {
        "n_string": {"n": "abc"},
        "n_float": {"n": 200.7},
        "seed_float": {"seed": 1.7},
        "names_string": {"names": "ab"},
        "matrix_row_not_a_list": {"precision": [[1.0, 0.0], 1.0]},
        "template_without_p": {"precision": {"type": "identity"}},
        "ar1_without_rho": {"precision": {"type": "ar1", "p": 2}},
        "unknown_template": {"precision": {"type": "band", "p": 2}},
        "categories_list": {"categories": ["Other"]},
        "unknown_category": {"categories": {"a": "Lab"}},
        "mechanism_not_object": {"mechanisms": [5]},
        "rate_string": {"mechanisms": [{"kind": "MCAR", "target": "a", "rate": "0.3"}]},
        "rate_beyond_float": {
            "mechanisms": [{"kind": "MCAR", "target": "a", "rate": 10**400}]
        },
        "mechanism_typo": {
            "mechanisms": [{"kind": "MNAR", "target": "a", "rate": 0.3, "sloep": 1.5}]
        },
        "unknown_kind": {"mechanisms": [{"kind": "MBAR", "target": "a", "rate": 0.3}]},
        "unknown_spec_key": {"sed": 3},
        "top_level_not_object": None,
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_spec_is_config_error(self, case, tmp_path, capsys):
        path = self.spec_file(
            tmp_path, [{"kind": "MCAR", "target": "a", "rate": 0.3}], n=50
        )
        patch = self.MALFORMED[case]
        spec = [1, 2] if patch is None else {**json.loads(path.read_text()), **patch}
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code, _, err = run(["simulate", "--spec", str(path), "--out", str(out)], capsys)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch",
        [
            {"n": 0},
            {"n": -5},
            {"names": ["a", "a"]},
            {"precision": [[1.0, 0.0], [0.0]]},
            {"precision": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            {"precision": {"type": "identity", "p": -1}},
            {"mechanisms": [{"kind": "MCAR", "target": "a", "rate": 1.5}]},
            {"categories": {"lactat": "BloodTests"}},
            {"precision": {"type": "ar1", "p": 2, "rho": 1.0}},
            {
                "mechanisms": [
                    {"kind": "MAR", "target": "a", "driver": "z", "rate": 0.3}
                ]
            },
            {
                "mechanisms": [
                    {"kind": "MCAR", "target": "a", "rate": 0.3},
                    {"kind": "MNAR", "target": "a", "rate": 0.3, "slope": 1.0},
                ]
            },
            {"mechanisms": [{"kind": "MCAR", "target": "a", "rate": 0.3, "seed": -5}]},
            # json.dumps writes the tokens Infinity and NaN, which json reads.
            {"precision": [[float("inf"), 0.0], [0.0, 1.0]]},
            {"precision": [[1.0, float("nan")], [float("nan"), 1.0]]},
            {"precision": [[1e-320, 0.0], [0.0, 1.0]]},
            {"seed": -1},
            {"seed": 2**64},
        ],
        ids=[
            "n_zero", "n_negative", "duplicate_names", "ragged", "non_square",
            "negative_p", "rate_out_of_range", "unknown_category", "ar1_rho_one",
            "unknown_driver", "two_mechanisms_one_target", "negative_mechanism_seed",
            "infinite_precision", "nan_precision", "precision_inverse_overflows",
            "negative_seed", "seed_of_65_bits",
        ],
    )
    def test_bad_spec_value_is_numeric_error(self, patch, tmp_path, capsys):
        path = self.spec_file(
            tmp_path, [{"kind": "MCAR", "target": "a", "rate": 0.3}], n=50
        )
        path.write_text(json.dumps({**json.loads(path.read_text()), **patch}))
        out = tmp_path / "out"
        code, _, err = run(["simulate", "--spec", str(path), "--out", str(out)], capsys)
        assert code == 4
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("numeric", "simulate")
        assert not out.exists()

    def test_simulated_dataset_feeds_analyze(self, tmp_path, capsys):
        spec = self.spec_file(
            tmp_path,
            [{"kind": "MCAR", "target": "a", "rate": 0.3}],
            n=400,
        )
        out = tmp_path / "sim"
        run(["simulate", "--spec", str(spec), "--out", str(out)], capsys)
        code, _, _ = run(
            [
                "analyze",
                "--input", str(out / "dataset.csv"),
                "--out", str(tmp_path / "an"),
                "--imputations", "2",
            ],
            capsys,
        )
        assert code == 0


class TestExport:
    def report_path(self, mnar_run):
        return mnar_run / "report.json"

    def test_dot_positive_green_negative_red(self, mnar_run, capsys):
        code, out, _ = run(
            ["export", "--report", str(self.report_path(mnar_run)), "--format", "dot"],
            capsys,
        )
        assert code == 0
        assert out.startswith("graph missingness {")
        # fixture has one positive self arc and one negative covariate arc
        assert "color=green" in out
        assert "color=red" in out
        assert "ρ=" in out and "p=" in out

    def test_empty_arcs_still_valid_dot(self, tmp_path, capsys):
        report = AnalysisReport(
            meta={},
            variables=[
                VariableMeta(name="a"),
                VariableMeta(name="a__observed", kind=VarKind.COMPLETENESS, parent="a"),
            ],
            missing_profile=[],
            excluded_constant=[],
            warnings=[],
            lambdas=[],
            edges=[],
            arcs=[],
            mnar_findings=[],
        )
        dot = export_graph(report, "dot")
        assert "cluster_observation" in dot
        assert "cluster_completeness" in dot
        assert '"a"' in dot and '"a__observed"' in dot
        assert "--" not in dot.replace("__observed", "")

    def test_unknown_format_is_config_error(self, mnar_run):
        data = json.loads(self.report_path(mnar_run).read_text())
        report = read_dataclass(AnalysisReport, data, "report")
        with pytest.raises(ConfigError, match="unknown export format 'svg'"):
            export_graph(report, "svg")

    def test_csv_and_json_formats(self, mnar_run, capsys):
        code, out, _ = run(
            ["export", "--report", str(self.report_path(mnar_run)), "--format", "csv"],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "obs_var,comp_var,rho,p,counterpart_rho,counterpart_p,sign"
        code, out, _ = run(
            ["export", "--report", str(self.report_path(mnar_run)), "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["nodes"]) == {"observation", "completeness"}

    def test_export_to_file(self, mnar_run, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        code, _, _ = run(
            [
                "export",
                "--report", str(self.report_path(mnar_run)),
                "--format", "dot",
                "--out", str(target),
            ],
            capsys,
        )
        assert code == 0
        assert target.read_text().startswith("graph missingness {")

    def test_export_creates_missing_directories(self, mnar_run, tmp_path, capsys):
        target = tmp_path / "new" / "dir" / "arcs.csv"
        code, out, _ = run(
            [
                "export",
                "--report", str(self.report_path(mnar_run)),
                "--format", "csv",
                "--out", str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == f"wrote: {target}\n"
        assert target.read_text() == (mnar_run / "arcs.csv").read_text()

    @pytest.mark.parametrize(
        "fmt, damage, field",
        [
            ("dot", lambda r: r["arcs"][0].pop("sign"), "arcs[0] keys: sign"),
            (
                "csv",
                lambda r: r["arcs"][0].pop("counterpart_rho"),
                "arcs[0] keys: counterpart_rho",
            ),
            ("csv", lambda r: r.update(arcs=5), "'arcs' must be a list"),
            ("dot", lambda r: r.update(variables=[1]), "'variables[0]' must be an object"),
            ("json", lambda r: r.update(arcs=5), "'arcs' must be a list"),
            ("csv", lambda r: r["arcs"][0].update(rho="abc"), "arcs[0] key 'rho' must be"),
            ("json", lambda r: r["arcs"][0].update(rho="abc"), "arcs[0] key 'rho' must be"),
            ("json", lambda r: r["arcs"][0].update(p=None), "arcs[0] key 'p' must be"),
            (
                "dot",
                lambda r: [v.pop("kind") for v in r["variables"]],
                "missing variables[0] keys: kind",
            ),
            (
                "csv",
                lambda r: r["variables"][0].pop("kind"),
                "missing variables[0] keys: kind",
            ),
            ("csv", lambda r: r.update(edges="x"), "report key 'edges' must be a list"),
            (
                "json",
                lambda r: r["variables"][2].update(parent=None),
                "variables[2]: completeness variable 'lab_value__observed' needs",
            ),
            (
                "csv",
                lambda r: r.update(mnar_findings=[{"variable": 3}]),
                "missing mnar_findings[0] keys",
            ),
            (
                "dot",
                lambda r: r["mnar_findings"][0].update(witnesses="w"),
                "'witnesses' must be a list",
            ),
            ("csv", lambda r: r.update(meta=[]), "'meta' must be an object"),
            (
                "json",
                lambda r: r["arcs"][0].update(rho=10**400),
                "arcs[0] key 'rho' must be a number within the float range",
            ),
        ],
        ids=[
            "arc_without_sign",
            "arc_without_counterpart_rho",
            "arcs_number",
            "variables_numbers",
            "arcs_number_json",
            "rho_text_csv",
            "rho_text_json",
            "p_null_json",
            "variables_without_kind",
            "observation_without_kind",
            "edges_text",
            "indicator_without_parent",
            "finding_number_variable",
            "witnesses_text",
            "meta_list",
            "rho_beyond_float",
        ],
    )
    def test_malformed_report_is_config_error(
        self, fmt, damage, field, mnar_run, tmp_path, capsys
    ):
        report = json.loads(self.report_path(mnar_run).read_text())
        damage(report)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, out, err = run(["export", "--report", str(path), "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["kind"], payload["stage"]) == ("config", "export")
        assert f"report {path} is not a valid report: " in payload["message"]
        assert field in payload["message"]

    def test_unknown_format_is_usage_error(self, mnar_run, capsys):
        result = run(
            [
                "export",
                "--report", str(self.report_path(mnar_run)),
                "--format", "svg",
            ],
            capsys,
        )
        assert_usage_error(*result, "invalid choice: 'svg'")


def test_cli_import_leaves_scipy_stats_out():
    # The package calls scipy.special directly; scipy.stats, which takes
    # about a second to import, is only the tests' oracle, and so is
    # scipy.sparse's connected_components for the glasso screening.
    src = str(Path(missgraph.cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys, missgraph.cli;"
        " print([m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
