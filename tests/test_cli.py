from __future__ import annotations

import io
import random
from types import SimpleNamespace

import pytest

from slicemetrics import Count, Sum, compute_on, print_metric
from slicemetrics.cli import main

from helpers import FIG2_CSV, random_pipeline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert out == "region,count_lost\nUS,4.0\nEU,2.0\n"

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
        assert out.startswith("CREATE TEMP TABLE Data AS")
        assert ";\n" in out

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
        ["--metric", 'sum(lost) as "experiment" | distribution(experiment)'],
        ["--metric", 'sum(lost) as "experiment" | distribution(experiment)', "--mode", "sql"],
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
