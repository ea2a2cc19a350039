"""Command-line interface: subcommands, config handling, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import dense_hitting_probability

from rarepath import cli, exact, sampling
from rarepath.cli import main
from rarepath.model import MarkovModel
from rarepath.zoo import two_type_unbalanced


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------- subcommands

def test_module_runs_from_a_checkout():
    """``python -m rarepath`` works with only ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rarepath", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "preprocess" in proc.stdout


def test_preprocess_reports_graph_summary(capsys):
    code, out, _ = run_cli(
        capsys, "preprocess", "--model", "chain", "--epsilon", "0.1"
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["model"] == "chain"
    assert report["d_sg"] == 4
    assert report["p_delta"] == pytest.approx(1e-4)
    assert report["gamma_size"] == 0
    assert report["hpc_count"] == 0


def test_exact_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "exact", "--model", "chain", "--epsilon", "0.1")
    assert code == 0
    (entry,) = json.loads(out)
    rho = 9.0
    assert entry["probability"] == pytest.approx(
        (1.0 - rho) / (1.0 - rho**5), rel=1e-9
    )


def test_exact_solves_the_reduced_chain(capsys, monkeypatch):
    """The full chain's order-0 cycle takes ~20k sweeps at this epsilon;
    the reduced chain gives the dense solve's value in a few."""
    monkeypatch.setattr(exact, "MAX_SWEEPS", 100)
    code, out, _ = run_cli(
        capsys, "exact", "--model", "two-type-unbalanced", "--epsilon", "0.001"
    )
    assert code == 0
    (entry,) = json.loads(out)
    model = two_type_unbalanced(epsilon=0.001)
    reference = dense_hitting_probability(model)[model.initial_state]
    assert entry["probability"] == pytest.approx(reference, rel=1e-9)


def test_exact_unreachable_goal_prints_zero(capsys, monkeypatch):
    class Unreachable(MarkovModel):
        emits_rates = False
        initial_state = "a"

        def is_goal(self, state):
            return state == "g"

        def is_taboo(self, state):
            return state == "t"

        def successors(self, state):
            return ["t"], [1.0], [0]

    monkeypatch.setattr(cli, "build_model", lambda *args: Unreachable())
    code, out, _ = run_cli(capsys, "exact", "--model", "chain", "--epsilon", "0.1")
    assert code == 0
    assert json.loads(out)[0]["probability"] == 0.0


def test_exact_budget_caps_states(capsys):
    code, _out, err = run_cli(
        capsys, "exact", "--model", "two-type-unbalanced", "--epsilon", "0.001",
        "--budget", "10",
    )
    assert code == 3
    assert "states" in err


@pytest.mark.parametrize("command", ["preprocess", "exact"])
@pytest.mark.parametrize("budget, expected", [("5", 0), ("4", 3)])
def test_budget_counts_non_terminal_states(capsys, command, budget, expected):
    """The birth-death chain has five non-terminal states; g and t are
    free, and the preprocessing report does not count them either."""
    code, out, err = run_cli(
        capsys, command, "--model", "chain", "--epsilon", "0.1", "--budget", budget
    )
    assert code == expected, err
    if command == "preprocess" and code == 0:
        assert json.loads(out)[0]["states_discovered"] == 5


def test_estimate_emits_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--model", "chain", "--epsilon", "0.1",
        "--method", "zva-delta", "--runs", "500", "--seed", "0",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "model", "method", "variant", "epsilon", "N", "M", "estimate",
        "ci_half_width_pct", "p_delta", "q_delta", "runtime_ms", "wnvr",
    ]
    (row,) = rows
    assert row[0] == "chain"
    assert row[1] == "zva-delta"
    assert row[4] == "500"
    assert float(row[6]) == pytest.approx(1.3548e-4, rel=0.05)


def test_estimate_multiple_epsilons_and_methods(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--model", "chain",
        "--epsilon", "0.1", "--epsilon", "0.2",
        "--method", "mc", "--method", "zva-delta",
        "--runs", "200",
    )
    assert code == 0
    _header, rows = parse_csv(out)
    assert len(rows) == 4
    assert [(r[1], r[3]) for r in rows] == [
        ("mc", "0.1"), ("zva-delta", "0.1"), ("mc", "0.2"), ("zva-delta", "0.2"),
    ]


def test_compare_puts_mc_baseline_first(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--model", "chain", "--epsilon", "0.2",
        "--method", "zva-delta", "--runs", "2000", "--seed", "0",
    )
    assert code == 0
    _header, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["mc", "zva-delta"]
    assert float(rows[0][11]) == 1.0  # MC vs itself
    assert rows[1][11] != ""


def test_compare_markdown_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--model", "chain", "--epsilon", "0.2",
        "--method", "zva-delta", "--runs", "100", "--format", "md",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| model | method |")
    assert set(lines[1]) <= {"|", "-"}
    assert len(lines) == 4


def test_missing_rare_event_rendered_as_placeholder(capsys):
    """MC never observes the rare event at small runs: '---' cells."""
    code, out, _ = run_cli(
        capsys,
        "estimate", "--model", "two-type", "--epsilon", "0.001",
        "--method", "mc", "--runs", "100", "--seed", "0",
    )
    assert code == 0
    _header, (row,) = parse_csv(out)
    assert float(row[6]) == 0.0
    assert row[7] == "---"


# -------------------------------------------------------- reproducibility

def test_identical_configuration_gives_identical_tables(capsys):
    argv = (
        "estimate", "--model", "chain", "--epsilon", "0.1",
        "--method", "zva-delta", "--variant", "plusplus",
        "--runs", "1000", "--seed", "7", "--workers", "2",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    header, rows_a = parse_csv(out_a)
    _header, rows_b = parse_csv(out_b)
    runtime_col = header.index("runtime_ms")
    for a, b in zip(rows_a, rows_b):
        a[runtime_col] = b[runtime_col] = "x"  # wall time may differ
        assert a == b


@pytest.mark.parametrize("workers", ["1", "2"])
def test_tables_do_not_depend_on_the_hash_seed(workers):
    """Two processes with different string hashing print the same rows,
    wall time and wnvr aside, on a model with cycle removal.  Its states
    are tuples of ints, whose hashes do not depend on the hash seed, so
    this guards what is keyed by strings on the way, such as measures."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    tables = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "rarepath", "compare", "--model", "two-type-deferred",
             "--epsilon", "0.1", *(f"--method={m}" for m in sampling.MEASURES),
             "--variant", "plusplus", "--runs", "300", "--seed", "5",
             "--workers", workers, "--format", "csv"],
            env=env | {"PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = parse_csv(proc.stdout)
        masked = [header.index("runtime_ms"), header.index("wnvr")]
        tables.append([[v for j, v in enumerate(row) if j not in masked] for row in rows])
    assert len(tables[0]) == len(sampling.MEASURES)
    assert tables[0] == tables[1]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys,
        "estimate", "--model", "chain", "--epsilon", "0.1",
        "--runs", "100", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("model,method,")


def test_out_flag_to_an_unwritable_path_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run_cli(
        capsys,
        "estimate", "--model", "chain", "--epsilon", "0.1",
        "--runs", "100", "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert "cannot write output file" in err and str(target) in err


# --------------------------------------------------------------- config

def test_config_file_supplies_defaults(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "# experiment\nmodel = chain\nepsilon = 0.1\nruns = 300\nseed = 0\n"
    )
    code, out, _ = run_cli(capsys, "estimate", "--config", str(conf))
    assert code == 0
    _header, (row,) = parse_csv(out)
    assert row[0] == "chain"
    assert row[4] == "300"


def test_flags_override_config(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("model = chain\nepsilon = 0.1\nruns = 300\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--config", str(conf), "--runs", "120"
    )
    assert code == 0
    _header, (row,) = parse_csv(out)
    assert row[4] == "120"


def test_config_list_values_split_on_commas(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("model = chain\nepsilon = 0.1, 0.2\nruns = 100\n")
    code, out, _ = run_cli(capsys, "estimate", "--config", str(conf))
    assert code == 0
    _header, rows = parse_csv(out)
    assert [r[3] for r in rows] == ["0.1", "0.2"]


# ------------------------------------------------------------ exit codes

def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    """Keys that name no option are rejected, also those that name the
    parser's own attributes."""
    conf = tmp_path / "exp.conf"
    for key, value in (
        ("nonsense", "1"), ("command", "exact"), ("func", "nothing"),
        ("config", "other.conf"), ("__class__", "1"),
    ):
        conf.write_text(f"model = chain\nepsilon = 0.1\n{key} = {value}\n")
        code, _out, err = run_cli(capsys, "estimate", "--config", str(conf))
        assert code == 2, key
        assert repr(key) in err


def test_missing_model_is_a_config_error(capsys):
    code, _out, err = run_cli(capsys, "estimate", "--epsilon", "0.1")
    assert code == 2
    assert "model" in err


def test_unknown_model_parameter_is_a_config_error(capsys):
    code, _out, err = run_cli(
        capsys,
        "estimate", "--model", "chain", "--epsilon", "0.1",
        "--param", "bogus=1", "--runs", "10",
    )
    assert code == 2
    assert "bogus" in err


def test_bad_epsilon_is_a_config_error(capsys):
    code, _out, _err = run_cli(
        capsys, "exact", "--model", "chain", "--epsilon", "lots"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, conf, option",
    [
        pytest.param(
            ("estimate", "--model", "chain", "--runs", "abc"), None, "--runs",
            id="runs",
        ),
        pytest.param(
            ("estimate", "--model", "chain", "--seed", "x"), None, "--seed",
            id="seed",
        ),
        pytest.param(
            ("estimate", "--model", "chain", "--budget", "1e3"), None, "--budget",
            id="budget",
        ),
        pytest.param(
            ("estimate", "--model", "chain", "--time-budget", "fast"), None,
            "--time-budget", id="time-budget",
        ),
        pytest.param(
            ("compare", "--model", "chain", "--workers", "two"), None, "--workers",
            id="workers",
        ),
        pytest.param(
            ("exact", "--model", "chain", "--budget", "x"), None, "--budget",
            id="exact-budget",
        ),
        pytest.param(
            ("preprocess", "--model", "two-type", "--param", "k1=x"), None, "k1",
            id="param",
        ),
        pytest.param(
            ("estimate",), "model = chain\nruns = 1.5\n", "--runs", id="config",
        ),
    ],
)
def test_malformed_number_is_a_config_error(tmp_path, capsys, argv, conf, option):
    """A number that does not parse ends in exit code 2, naming the option."""
    argv = (*argv, "--epsilon", "0.1")
    if conf is not None:
        path = tmp_path / "exp.conf"
        path.write_text(conf)
        argv = (*argv, "--config", str(path))
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2
    assert option in err


@pytest.mark.parametrize("budget", ["nan", "inf", "-5"])
def test_time_budget_that_never_expires_is_a_config_error(capsys, budget):
    code, _out, err = run_cli(
        capsys, "estimate", "--model", "chain", "--epsilon", "0.1",
        "--time-budget", budget,
    )
    assert code == 2
    assert "time budget" in err


@pytest.mark.parametrize(
    "flags",
    [["--workers", "0"], ["--workers", "-2"], ["--time-budget", "100", "--workers", "4"]],
)
def test_workers_below_one_or_beside_a_time_budget_is_a_config_error(capsys, flags):
    code, _out, err = run_cli(
        capsys, "estimate", "--model", "chain", "--epsilon", "0.1", *flags
    )
    assert code == 2
    assert "workers" in err


def test_state_budget_exhaustion_exit_code(capsys):
    code, _out, err = run_cli(
        capsys,
        "preprocess", "--model", "two-type", "--epsilon", "0.01",
        "--budget", "3",
    )
    assert code == 3
    assert "states" in err


def test_unknown_method_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main([
            "estimate", "--model", "chain", "--epsilon", "0.1",
            "--method", "quantum",
        ])
