from __future__ import annotations

import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from slicemetrics import (
    Count, EvalContext, MetricsError, Sum, compute_on, parse, print_metric, read_csv, to_sql,
)
from slicemetrics.cli import main
from slicemetrics.dsl import set_n_rep
from slicemetrics.metrics import bind

from helpers import FIG2_CSV, connect, load_table, random_pipeline, values_close


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_sql_mode_agrees(capsys, path, program, split_by=""):
    """Run sql mode's statements in order in one sqlite session; each agrees with compute_on."""
    code, out, err = run_cli(capsys, "--input", str(path), "--metric", program,
                             "--split-by", split_by, "--mode", "sql")
    assert (code, err) == (0, "")
    table = read_csv(path.read_bytes())
    split = tuple(c for c in split_by.split(",") if c)
    con = connect()
    load_table(con, path.stem, table)
    scripts = out.rstrip("\n").split(";\n\n")
    metrics = parse(program).metrics
    assert len(scripts) == len(metrics)
    for metric, script in zip(metrics, scripts):
        *preamble, final = script.split(";\n")
        for statement in preamble:
            con.execute(statement)
        rows = con.execute(final).fetchall()
        frame = compute_on(metric, table, split)
        assert [tuple(row[:-1]) for row in rows] == [key for key, _ in frame.rows]
        for row, (_, (value,)) in zip(rows, frame.rows):
            assert values_close(math.nan if row[-1] is None else row[-1], value, 1e-9)
    con.close()


class TestComputeMode:
    def test_churn_csv_row(self, capsys, fig2_csv_path):
        code, out, err = run_cli(
            capsys,
            "--metric", 'sum(lost)/count(lost) as "churn"',
            "--input", fig2_csv_path,
            "--mode", "compute",
        )
        assert code == 0 and err == ""
        assert out == "churn\n0.5\n"

    def test_csv_output_matches_library_bytes(self, capsys, fig2_csv_path, fig2):
        code, out, _ = run_cli(
            capsys,
            "--metric", "sum(lost); count(lost)",
            "--input", fig2_csv_path,
            "--split-by", "region",
        )
        frame = compute_on([Sum("lost"), Count("lost")], fig2, ("region",))
        assert code == 0
        assert out == frame.to_csv()

    def test_table_format(self, capsys, fig2_csv_path):
        code, out, _ = run_cli(
            capsys,
            "--metric", "sum(lost)",
            "--input", fig2_csv_path,
            "--format", "table",
        )
        assert code == 0
        assert "sum_lost" in out.splitlines()[0]

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", SimpleNamespace(buffer=io.BytesIO(FIG2_CSV))
        )
        code, out, _ = run_cli(
            capsys, "--metric", "count(lost)", "--input", "-"
        )
        assert code == 0
        assert out == "count_lost\n6.0\n"

    def test_metric_from_file(self, capsys, fig2_csv_path, tmp_path):
        program = tmp_path / "metric.dsl"
        program.write_text('sum(lost)/count(lost) as "churn"')
        code, out, _ = run_cli(
            capsys, "--metric", f"@{program}", "--input", fig2_csv_path
        )
        assert code == 0 and out == "churn\n0.5\n"

    def test_split_by_flag(self, capsys, fig2_csv_path):
        code, out, _ = run_cli(
            capsys,
            "--metric", "count(lost)",
            "--input", fig2_csv_path,
            "--split-by", "region",
        )
        assert code == 0
        assert out == "region,count_lost\nEU,2.0\nUS,4.0\n"

    @pytest.mark.parametrize("csv, out", [
        (b"g,x\na,1e999\na,-1e999\nb,2\n", "g,sum_x,mean_x\na,NaN,NaN\nb,2.0,2.0\n"),
        (b"g,x\na,1e308\na,1e308\n", "g,sum_x,mean_x\na,inf,inf\n"),
    ], ids=["inf_minus_inf", "overflow"])
    def test_non_finite_sums_follow_ieee(self, capsys, tmp_path, csv, out):
        path = tmp_path / "big.csv"
        path.write_bytes(csv)
        code, got, err = run_cli(capsys, "--input", str(path), "--metric", "sum(x); mean(x)",
                                 "--split-by", "g")
        assert (code, got, err) == (0, out, "")

    def test_seed_changes_bootstrap_output(self, capsys, fig2_csv_path):
        args = ["--metric", "mean(lost) | bootstrap(30)", "--input", fig2_csv_path]
        _, out_a, _ = run_cli(capsys, *args, "--seed", "1")
        _, out_b, _ = run_cli(capsys, *args, "--seed", "1")
        _, out_c, _ = run_cli(capsys, *args, "--seed", "2")
        assert out_a == out_b
        assert out_a != out_c


class TestSqlMode:
    def test_group_by_present(self, capsys, fig2_csv_path):
        code, out, _ = run_cli(
            capsys,
            "--metric", "sum(lost)",
            "--input", fig2_csv_path,
            "--mode", "sql",
            "--split-by", "region",
        )
        assert code == 0
        assert "GROUP BY" in out and "region" in out

    def test_table_name_from_input_stem(self, capsys, fig2_csv_path):
        code, out, _ = run_cli(
            capsys, "--metric", "sum(lost)", "--input", fig2_csv_path, "--mode", "sql"
        )
        assert code == 0
        assert "FROM events" in out

    def test_sql_mode_without_input_uses_data(self, capsys):
        code, out, _ = run_cli(capsys, "--metric", "sum(lost)", "--mode", "sql")
        assert code == 0
        assert out == "SELECT SUM(lost) AS sum_lost FROM data\n"

    def test_preamble_comes_first(self, capsys, fig2_csv_path):
        code, out, _ = run_cli(
            capsys,
            "--metric", "mean(lost) | bootstrap(10)",
            "--input", fig2_csv_path,
            "--mode", "sql",
        )
        assert code == 0
        assert out.startswith("DROP TABLE IF EXISTS temp.Data;\nCREATE TEMP TABLE Data AS")

    def test_googlesql_dialect_and_n_rep_override(self, capsys, fig2_csv_path):
        code, out, _ = run_cli(
            capsys,
            "--metric", "mean(lost) | bootstrap(10)",
            "--input", fig2_csv_path,
            "--mode", "sql",
            "--dialect", "googlesql",
            "--n-rep", "77",
        )
        assert code == 0
        assert "UNNEST(GENERATE_ARRAY(1, 77))" in out

    @pytest.mark.parametrize("csv, metric, split_by", [
        (b"g,row_number\na,1\na,2\nb,4\n", "mean(row_number) | bootstrap(5)", "g"),
        (b"g,sample_idx\na,1\na,2\nb,4\n", "mean(sample_idx) | bootstrap(5)", "g"),
    ], ids=["read_row_number", "read_sample_idx"])
    def test_bootstrap_reads_columns_named_like_its_own(self, capsys, tmp_path, csv, metric,
                                                         split_by):
        path = tmp_path / "events.csv"
        path.write_bytes(csv)
        assert_sql_mode_agrees(capsys, path, metric, split_by)

    @pytest.mark.parametrize("program, split_by", [
        ('sum(lost) as "experiment" | distribution(experiment)', ""),
        ('sum(lost) as "Region" | percent_change(experiment, "control")', "region"),
        ('sum(lost) as "REGION" | bootstrap(5)', "region"),
    ], ids=["child_experiment", "child_Region", "child_REGION"])
    def test_value_named_like_a_key_agrees(self, capsys, fig2_csv_path, program, split_by):
        assert_sql_mode_agrees(capsys, Path(fig2_csv_path), program, split_by)

    def test_split_column_named_rand_runs(self, capsys, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"rand,x\na,1\na,2\nb,4\nb,7\n")
        assert_sql_mode_agrees(capsys, path, "mean(x) | bootstrap(5)", "rand")

    @pytest.mark.parametrize("stem", ["t", "base"])
    def test_input_named_like_a_cte_runs_and_agrees(self, capsys, tmp_path, stem):
        path = tmp_path / f"{stem}.csv"
        path.write_bytes(b"g,x\na,1\nb,2\n")
        assert_sql_mode_agrees(capsys, path, 'sum(x) | percent_change(g, "a")')

    def test_two_bootstraps_run_in_one_session(self, capsys, tmp_path):
        # Each statement's preamble replaces the temp table Data of the last.
        path = tmp_path / "events.csv"
        path.write_bytes(b"g,x\na,1\na,2\nb,4\nb,7\na,3\n")
        assert_sql_mode_agrees(capsys, path, "mean(x) | bootstrap(5); sum(x) | bootstrap(5)")
        assert_sql_mode_agrees(capsys, path, "mean(x) | bootstrap(5); sum(x) | bootstrap(7)", "g")

    def test_input_named_data_is_read_after_a_bootstrap(self, capsys, tmp_path):
        # The temp table takes another name, so a later statement reads the input.
        path = tmp_path / "data.csv"
        path.write_bytes(b"g,x,y\na,1,5\na,2,6\nb,4,7\nb,7,8\n")
        assert_sql_mode_agrees(capsys, path, "mean(x) | bootstrap(5); sum(y)")
        assert_sql_mode_agrees(capsys, path, "mean(x) | bootstrap(5); sum(y) | bootstrap(3)", "g")

    def test_multiple_metrics_emit_multiple_queries(self, capsys):
        code, out, _ = run_cli(
            capsys, "--metric", "sum(a); count(b)", "--mode", "sql"
        )
        assert code == 0
        assert out.count("SELECT") == 2


class TestErrors:
    def test_unknown_split_column_is_user_error(self, capsys, fig2_csv_path):
        code, _, err = run_cli(
            capsys,
            "--metric", "sum(lost)",
            "--input", fig2_csv_path,
            "--split-by", "nosuchcol",
        )
        assert code == 1
        assert "nosuchcol" in err and err.count("\n") == 1

    def test_dsl_error_has_position(self, capsys, fig2_csv_path):
        code, _, err = run_cli(
            capsys, "--metric", "sum(", "--input", fig2_csv_path
        )
        assert code == 1
        assert "1:5" in err

    def test_missing_input_for_compute(self, capsys):
        code, _, err = run_cli(capsys, "--metric", "sum(lost)")
        assert code == 1
        assert "--input" in err

    def test_missing_file_is_user_error(self, capsys):
        code, _, err = run_cli(
            capsys, "--metric", "sum(lost)", "--input", "/nonexistent.csv"
        )
        assert code == 1

    @pytest.mark.parametrize("body, message", [
        pytest.param(b"x,y\n1,2\n3,\xff\n", "error: row 2 is not valid UTF-8",
                     id="invalid-utf8"),
        pytest.param(b"x,y\n1,2\n3," + b"a" * 200_000 + b"\n",
                     "error: row 2: field larger than field limit (131072)", id="long-field"),
    ])
    def test_bad_input_bytes_are_user_errors(self, capsys, tmp_path, body, message):
        # Quoting a cell sends the file to csv.reader; the outcome is the same.
        for data in (body, body.replace(b"\n3,", b'\n"3",')):
            path = tmp_path / "bad.csv"
            path.write_bytes(data)
            for mode in ("compute", "sql"):
                code, out, err = run_cli(capsys, "--metric", "sum(x)", "--input", str(path),
                                         "--mode", mode)
                assert (code, out, err) == (1, "", message + "\n")

    def test_text_aggregation_is_user_error(self, capsys, fig2_csv_path):
        code, _, err = run_cli(
            capsys, "--metric", "sum(region)", "--input", fig2_csv_path
        )
        assert code == 1
        assert "region" in err

    def test_unknown_flag_is_user_error(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["--metric", "sum(x)", "--bogus"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["--metric", 'sum(lost); sum(lost) | percent_change(experiment, "control")'],
        ["--metric", "sum(lost)", "--split-by", "region,region"],
        ["--metric", "sum(lost) | distribution(region)", "--split-by", "region"],
        ["--metric", "sum(lost) | distribution(region)", "--split-by", "region",
         "--mode", "sql"],
        ["--metric", "sum(lost); sum(lost)"],
        ["--metric", 'sum(lost) as "region"', "--split-by", "region"],
        ["--metric", 'sum(lost) | distribution(experiment) as "experiment"'],
        ["--metric", 'sum(lost) | distribution(experiment) as "experiment"', "--mode", "sql"],
    ])
    def test_unbindable_program_is_user_error(self, capsys, fig2_csv_path, argv):
        code, out, err = run_cli(capsys, *argv, "--input", fig2_csv_path)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_n_rep_below_one_is_user_error(self, capsys, fig2_csv_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--metric", "mean(lost) | bootstrap(10)", "--input", fig2_csv_path,
                  "--n-rep", "0"])
        err = capsys.readouterr().err
        assert excinfo.value.code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: argument --n-rep: must be at least 1, got 0"
        ]

    def test_warnings_go_to_stderr(self, capsys, fig2_csv_path):
        code, out, err = run_cli(
            capsys,
            "--metric", 'sum(lost) | percent_change(experiment, "treatment2")',
            "--input", fig2_csv_path,
            "--split-by", "region",
        )
        assert code == 0
        assert "EU,control,NaN" in out
        prefix = "warning: missing_baseline: no experiment='treatment2' row for slice"
        assert err.splitlines() == [
            f"{prefix} ('EU', 'control')",
            f"{prefix} ('EU', 'treatment3')",
        ]

    def test_internal_error_exits_2(self, capsys, fig2_csv_path, monkeypatch):
        import slicemetrics.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("kaput")

        monkeypatch.setattr(cli_module, "compute_on", boom)
        code, _, err = run_cli(
            capsys, "--metric", "sum(lost)", "--input", fig2_csv_path
        )
        assert code == 2
        assert "internal error" in err


RANDOM_CSV = b"""alpha,beta,gamma
0,2.5,base
1,,zero
2,2.5,zero
0,1.5,base
3,0,x
,2.5,base
"""


def test_random_argv_exits_0_or_1(capsys, tmp_path):
    path = tmp_path / "random.csv"
    path.write_bytes(RANDOM_CSV)
    rng = random.Random(2024)
    columns = ["alpha", "beta", "gamma"]
    for _ in range(400):
        argv = ["--input", str(path), "--metric", print_metric(random_pipeline(rng))]
        split = rng.sample(columns, rng.randint(0, 2))
        if split and rng.random() < 0.2:
            split.append(split[0])
        argv += ["--split-by", ",".join(split), "--mode", rng.choice(["compute", "sql"])]
        if rng.random() < 0.7:
            argv += ["--n-rep", str(rng.choice([0, 1, 3, 20]))]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad flag value
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, err)
        if code == 1:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1, (argv, err)


MUTATION_ALPHABET = '0123456789eeee..+-*/()|;,"_ abcmnlstu'


def _mutate(rng: random.Random, text: str) -> str:
    """One to three random character edits, half of them at or just after a digit."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        digits = [i for i, c in enumerate(chars) if c.isdigit()]
        if digits and rng.random() < 0.5:
            at = rng.choice(digits) + rng.randint(0, 1)
        else:
            at = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 1 / 3 and at < len(chars):
            del chars[at]
        elif roll < 2 / 3 and at < len(chars):
            chars[at] = rng.choice(MUTATION_ALPHABET)
        else:
            chars.insert(at, rng.choice(MUTATION_ALPHABET))
    return "".join(chars)


def test_mutated_programs_raise_only_metrics_errors(capsys, tmp_path):
    path = tmp_path / "random.csv"
    path.write_bytes(RANDOM_CSV)
    rng = random.Random(1)
    for i in range(2000):
        source = _mutate(rng, print_metric(random_pipeline(rng)))
        try:
            parse(source)
        except MetricsError:
            pass
        if i % 5:
            continue
        # --n-rep 2, because an edit can turn a replicate count into a huge one.
        code = main(["--input", str(path), "--metric", source, "--n-rep", "2",
                     "--split-by", rng.choice(["", "alpha", "gamma"]),
                     "--mode", rng.choice(["compute", "sql"])])
        err = capsys.readouterr().err
        assert code in (0, 1), (source, err)


# alpha, beta and gamma are the columns random_pipeline reads; note (text),
# score (float) and mixed (digits and words, so text) are only read when split by.
PROJECTION_CSV = b"""alpha,note,beta,score,gamma,mixed
0,first,2.5,0.25,base,1
1,,,1.5,zero,two
2,"a, b",2.5,-3.0,zero,3
0,first,1.5,,base,
3,last,0,2.0,x,two
,first,2.5,0.75,base,1
"""


def _library_run(source, table, table_name, split_by, mode, fmt):
    """What the CLI prints for a program, from the library on the fully read table."""
    ctx = EvalContext()
    try:
        metrics = [set_n_rep(one, 3) for one in parse(source).metrics]
        for one in metrics:  # compute mode binds the schema, SQL mode the header's names
            bind(one, split_by, table.schema if mode == "compute" else table.column_names)
        if mode == "sql":
            texts = [to_sql(one, table_name, split_by).render() for one in metrics]
            return 0, ";\n\n".join(texts) + "\n", ""
        frame = compute_on(metrics if len(metrics) > 1 else metrics[0], table, split_by, ctx)
    except MetricsError as err:
        return 1, "", f"error: {err}\n"
    out = frame.to_csv() if fmt == "csv" else frame.to_text()
    return 0, out, "".join(f"warning: {w.kind}: {w.message}\n" for w in ctx.warnings)


def test_projected_input_gives_the_full_read_output(capsys, tmp_path, monkeypatch):
    path = tmp_path / "events.csv"
    path.write_bytes(PROJECTION_CSV)
    table = read_csv(PROJECTION_CSV)
    rng = random.Random(21)
    for _ in range(400):
        source = print_metric(random_pipeline(rng))
        if rng.random() < 0.2:
            source += "; " + print_metric(random_pipeline(rng))
        dims = ("note", "score", "mixed") if rng.random() < 0.7 else table.column_names + ("nope",)
        split_by = tuple(rng.sample(dims, rng.randint(0, 2)))
        mode, fmt = rng.choice(["compute", "sql"]), rng.choice(["csv", "table"])
        if rng.random() < 0.5:
            monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=io.BytesIO(PROJECTION_CSV)))
            input_arg, table_name = "-", "data"
        else:
            input_arg, table_name = str(path), "events"
        got = run_cli(capsys, "--input", input_arg, "--metric", source, "--n-rep", "3",
                      "--split-by", ",".join(split_by), "--mode", mode, "--format", fmt)
        want = _library_run(source, table, table_name, split_by, mode, fmt)
        assert got == want, (source, split_by, mode)


@pytest.mark.parametrize("mode", ["compute", "sql"])
@pytest.mark.parametrize("data, split_by, message", [
    (b"alpha,note,note\n1,a,b\n", "", "duplicate column name: 'note'"),
    (b"alpha,,beta\n1,a,2\n", "", "column names must be non-empty"),
    (b"alpha,note\n1,a\n2\n", "", "row 2 has 1 fields, expected 2"),
    (b"alpha,note\n1,a\n", "nope", "no such column: 'nope'"),
], ids=["duplicate_unread_name", "empty_unread_name", "ragged_row", "missing_split"])
def test_unread_columns_are_still_checked(capsys, tmp_path, mode, data, split_by, message):
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    got = run_cli(capsys, "--metric", "sum(alpha)", "--input", str(path), "--mode", mode,
                  "--split-by", split_by)
    assert got == (1, "", f"error: {message}\n")


def test_sql_mode_parses_no_cell(capsys, tmp_path, monkeypatch):
    def no_parse(name, cells):
        raise AssertionError(f"parsed column {name!r}")

    monkeypatch.setattr("slicemetrics.table._typed", no_parse)
    path = tmp_path / "edge.csv"
    path.write_bytes(b"alpha,note\n1,a\n")
    code, out, err = run_cli(capsys, "--metric", "sum(alpha)", "--input", str(path),
                             "--mode", "sql", "--split-by", "note")
    assert (code, err) == (0, "") and "FROM edge" in out


def test_text_in_a_read_column_is_still_a_type_mismatch(capsys, tmp_path):
    path = tmp_path / "edge.csv"
    path.write_bytes(b"alpha,note\n1,a\noops,b\n")
    got = run_cli(capsys, "--metric", "sum(alpha)", "--input", str(path))
    assert got == (1, "", "error: cannot aggregate text column 'alpha' with sum\n")


def test_text_value_column_counts_but_does_not_sum(capsys, tmp_path):
    path = tmp_path / "edge.csv"
    path.write_bytes(b"g,x\na,1\nb,oops\n")
    assert run_cli(capsys, "--metric", "count(x)", "--input", str(path), "--split-by", "g") == (
        0, "g,count_x\na,1.0\nb,1.0\n", "")
    assert run_cli(capsys, "--metric", "sum(x)", "--input", str(path), "--split-by", "g") == (
        1, "", "error: cannot aggregate text column 'x' with sum\n")


def test_program_reading_no_column_keeps_the_row_count(capsys, tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(FIG2_CSV)
    assert run_cli(capsys, "--metric", "2 | bootstrap(5)", "--input", str(path)) == (
        0, "se_2\n0.0\n", "")
    path.write_bytes(b"region,lost\n")
    assert run_cli(capsys, "--metric", "2 | bootstrap(5)", "--input", str(path)) == (
        1, "", "error: bootstrap requires at least one row\n")


def test_integer_baseline_is_exact(capsys, tmp_path):
    # 2**53 + 1 has no float; through float it would select the 2**53 row.
    path = tmp_path / "ids.csv"
    path.write_bytes(b"id,x\n9007199254740992,1\n9007199254740993,10\n")
    metric = "sum(x) | absolute_change(id, 9007199254740993)"
    assert run_cli(capsys, "--metric", metric, "--input", str(path)) == (
        0, "id,abs_change_of_sum_x\n9007199254740992,-9.0\n9007199254740993,0.0\n", "")
    metric = f"sum(x) | absolute_change(id, {'9' * 400})"
    code, out, _ = run_cli(capsys, "--metric", metric, "--input", str(path), "--mode", "sql")
    assert code == 0 and f"WHERE id = {'9' * 400}" in out


# Region "b" has no control row, so the change warns, in the point estimate
# and in every bootstrap replicate that draws a "b" row.
DETERMINISM_CSV = b"""region,arm,x
a,control,1
a,t,2.5
b,t,3
b,t1,4
a,t1,5
c,control,6
,t,0.5
c,t,2
"""


def test_output_is_byte_identical_under_any_hash_seed(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(DETERMINISM_CSV)
    program = ('sum(x) | percent_change(arm, "control");'
               ' mean(x) / count(x) as "per" | percent_change(arm, "control") | bootstrap(20)')
    # Draws within each region, in the order of its text and numeric columns.
    boot = "mean(x) | distribution(arm) | bootstrap(15)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = {"csv": (program, ["--format", "csv"]), "table": (program, ["--format", "table"]),
            "sql": (program, ["--mode", "sql"]), "bootstrap": (boot, ["--format", "csv"])}
    for mode, (metric, flags) in runs.items():
        outcomes = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "slicemetrics", "--input", str(path), "--metric", metric,
                 "--split-by", "region", "--seed", "3", *flags],
                capture_output=True, env=env, timeout=60,
            )
            outcomes.append((done.returncode, done.stdout, done.stderr))
        assert outcomes[0] == outcomes[1], mode
        code, out, err = outcomes[0]
        assert code == 0, err
        if mode == "sql":
            assert out.count(b" ORDER BY 1, 2") == 2 and err == b""
        elif mode == "bootstrap":
            assert out.startswith(b"region,arm,se_distribution_of_mean_x\n") and err == b""
        else:
            assert b"missing_baseline" in err and out.count(b"\nb ") + out.count(b"\nb,") == 2
