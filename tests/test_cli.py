import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flmlab.cli import main
from flmlab.serialize import parse_levels_csv, parse_replicates_csv


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_main(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_main(capsys, "bounds", "--benchmark", "onemax", "--n", "10", "--wat")
    assert code == 2


def test_validation_failure_exits_1(capsys):
    code, _, err = run_main(capsys, "bounds", "--benchmark", "jump", "--n", "10", "--k", "1")
    assert code == 1
    assert "error" in err


def test_bounds_onemax_contract_keys(capsys):
    code, out, _ = run_main(
        capsys, "bounds", "--benchmark", "onemax", "--n", "100", "--from", "50", "--to", "100",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    for key in ("tilde_T", "tilde_T_plus", "tilde_T_minus", "thm_lower", "e_n"):
        assert key in doc
    assert doc["tilde_T_minus"] <= doc["tilde_T"] <= doc["tilde_T_plus"]
    assert all("theorem" in entry for entry in doc["bounds"])


def test_bounds_longpath_flags_unproven_reference(capsys):
    code, out, _ = run_main(capsys, "bounds", "--benchmark", "longpath", "--n", "12", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["reference_bound_unproven"] is True


def test_oracle_emits_chain_summary_schema(capsys):
    code, out, _ = run_main(capsys, "oracle", "--benchmark", "onemax", "--n", "8", "--p", "1/8")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == 9
    assert len(doc["p"]) == 8
    assert len(doc["v"]) == 9
    assert doc["expected_T"] > 0
    assert doc["v"][-1] == pytest.approx(1.0)


def test_oracle_leadingones_uses_full_state(capsys):
    code, out, _ = run_main(capsys, "oracle", "--benchmark", "leadingones", "--n", "6", "--p", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] == "full-state"
    for v in doc["v"][:-1]:
        assert v == pytest.approx(0.5, abs=1e-9)
    # the visit/leave identity reproduces the expected runtime
    identity = sum(v / p for v, p in zip(doc["v"][:-1], doc["p"]))
    assert identity == pytest.approx(doc["expected_T"], abs=1e-9)


def test_oracle_full_state_rows_give_its_own_expected_time(capsys):
    # per-level p and v of the same solve: one p per level below the top
    code, out, _ = run_main(capsys, "oracle", "--benchmark", "jump", "--n", "8", "--k", "3", "--full-state")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["p"]) == doc["levels"] - 1
    identity = sum(v / p for v, p in zip(doc["v"], doc["p"]) if v > 0)
    assert identity == pytest.approx(doc["expected_T"], rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        "bounds --benchmark leadingones --n 6 --init level:3",
        "bounds --benchmark leadingones --n 6 --init arbitrary",
        "bounds --benchmark longpath --n 12 --k 4 --init level:20",
        "bounds --benchmark longpath --n 12 --k 4 --init arbitrary",
        # level 4 and the all-ones point are the optimum of Jump(10, 3): no valley left
        "bounds --benchmark jump --n 10 --k 3 --init level:4",
        "bounds --benchmark jump --n 10 --k 3 --init point:1111111111",
        # levels the benchmark does not have
        "bounds --benchmark jump --n 12 --k 2 --init level:4",
        "bounds --benchmark jump --n 12 --k 2 --init level:0",
        "bounds --benchmark onemax --n 10 --init level:11",
    ],
)
def test_bounds_refuse_starts_they_are_not_stated_for(capsys, argv):
    code, out, err = run_main(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # the long k-path bounds are stated for p <= 1/2; the exact value is not
        "compare --benchmark longpath --n 6 --k 2 --p 0.6 --replicates 20 --seed 1",
        # a run started at the optimum has no valley left to jump
        "compare --benchmark jump --n 10 --k 3 --init level:4 --replicates 20 --seed 1",
    ],
)
def test_compare_where_bounds_are_not_stated_has_only_the_exact_row(capsys, argv):
    code, out, _ = run_main(capsys, *argv.split())
    assert code in (0, 3)
    doc = json.loads(out)
    assert doc["bounds"] == []
    assert [row["quantity"] for row in doc["report"]["rows"]] == ["mean_runtime_vs_exact"]


def test_compare_longpath_from_a_later_position_has_only_the_exact_row(capsys):
    # the visit and runtime bounds are stated for a run from path position 0
    code, out, _ = run_main(
        capsys, "compare", "--benchmark", "longpath", "--n", "12", "--k", "4",
        "--init", "level:20", "--replicates", "200", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"] == []
    assert [row["quantity"] for row in doc["report"]["rows"]] == ["mean_runtime_vs_exact"]


def test_path_check_reports_point_count(capsys):
    code, out, _ = run_main(capsys, "path-check", "--n", "8", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "points=31"  # k 2^(n/k) - k + 1
    assert len(lines) == 32
    assert lines[0] == "0" * 8
    assert set("".join(lines[:-1])) == {"0", "1"}


def test_path_check_dump_to_file(tmp_path, capsys):
    out_file = tmp_path / "path.txt"
    code, out, _ = run_main(capsys, "path-check", "--n", "6", "--k", "3", "--out", str(out_file))
    assert code == 0
    assert out.strip() == "points=10"
    assert len(out_file.read_text().strip().splitlines()) == 10


def test_simulate_csv_round_trip(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    code, _, _ = run_main(
        capsys, "simulate", "--benchmark", "onemax", "--n", "8", "--p", "1/n",
        "--replicates", "40", "--seed", "7", "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    runtimes, hits = parse_replicates_csv(out_file.read_text())
    assert len(runtimes) == 40
    levels = parse_levels_csv((tmp_path / "runs.levels.csv").read_text())
    assert len(levels["level"]) == 9
    assert levels["visit_freq"][-1] == 1.0


def test_simulate_deterministic_across_thread_counts(tmp_path, capsys):
    args = [
        "simulate", "--benchmark", "jump", "--n", "12", "--k", "3", "--p", "1/n",
        "--replicates", "150", "--seed", "42", "--format", "csv",
    ]
    for threads, name in (("1", "a"), ("4", "b")):
        code, _, _ = run_main(capsys, *args, "--threads", threads, "--out", str(tmp_path / f"{name}.csv"))
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.levels.csv").read_bytes() == (tmp_path / "b.levels.csv").read_bytes()


def test_simulate_json_stdout_deterministic(capsys):
    args = ("simulate", "--benchmark", "leadingones", "--n", "6", "--p", "1/n",
            "--replicates", "50", "--seed", "3")
    _, first, _ = run_main(capsys, *args)
    _, second, _ = run_main(capsys, *args)
    assert first == second


def test_compare_passes_on_leadingones(capsys):
    code, out, _ = run_main(
        capsys, "compare", "--benchmark", "leadingones", "--n", "8", "--p", "1/8",
        "--replicates", "2000", "--seed", "17",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["failed"] is False
    quantities = [row["quantity"] for row in doc["report"]["rows"]]
    assert any(q.startswith("visit_freq") for q in quantities)


def test_compare_leadingones_exact_is_the_level_sum(capsys):
    from flmlab.bounds import flm_upper_visit
    from flmlab.formulas import leadingones_exact, leadingones_leave_probs

    _, out, _ = run_main(
        capsys, "compare", "--benchmark", "leadingones", "--n", "12", "--p", "1/12",
        "--replicates", "2", "--max-iterations", "1",
    )
    doc = json.loads(out)
    level_sum = flm_upper_visit(leadingones_leave_probs(12, 1 / 12), np.full(12, 0.5)).value
    closed = leadingones_exact(12, 1 / 12)
    assert doc["exact"] == level_sum
    assert abs(doc["exact"] - closed) <= 1e-13 * closed
    # the closed form is the bound the level sum is checked against
    checks = {row["quantity"]: row for row in doc["report"]["rows"] if row["quantity"].startswith("exact_vs_")}
    assert set(checks) == {"exact_vs_leadingones-exact[upper]", "exact_vs_leadingones-exact[lower]"}
    assert all(row["theoretical"] == closed and row["verdict"] == "PASS" for row in checks.values())


def test_compare_exact_vs_bound_row_allows_relative_rounding(capsys):
    # the exact inputs' sum v/p rounds 1.4e-9 (3.6e-16 relative) above the backward recursion
    _, out, _ = run_main(
        capsys, "compare", "--benchmark", "onemax", "--n", "600", "--p", "10/n",
        "--replicates", "2", "--max-iterations", "1", "--format", "csv",
    )
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    row = rows["exact_vs_flm-lower-visit[lower]"]
    assert float(row[2]) > float(row[1]) and row[3] == "PASS"


def test_compare_fail_verdict_exits_3(monkeypatch, capsys):
    # an impossible lower bound forces a FAIL row
    import flmlab.cli as cli_module

    def broken_inputs(args, p):
        from flmlab.bounds import BoundResult

        return [BoundResult(10**9, "lower", "impossible")], None, {}

    monkeypatch.setattr(cli_module, "_compare_inputs", broken_inputs)
    code, out, _ = run_main(
        capsys, "compare", "--benchmark", "onemax", "--n", "6", "--p", "1/n",
        "--replicates", "100", "--seed", "1",
    )
    assert code == 3


@pytest.mark.parametrize("seed", ["1", "3", "4"])
def test_compare_visit_row_with_zero_frequency_passes(seed, capsys):
    # some OneMax level is never visited in 300 replicates; its empirical SE
    # is 0, so the row's slack comes from the bound's own binomial SE
    code, out, _ = run_main(
        capsys, "compare", "--benchmark", "onemax", "--n", "10", "--replicates", "300",
        "--seed", seed, "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    visit_rows = [row for row in rows if row[0].startswith("visit_freq")]
    assert any(float(row[1]) == 0.0 for row in visit_rows)
    assert all(row[3] == "PASS" for row in rows)


def test_oracle_over_memory_exits_1(monkeypatch, capsys):
    import flmlab.chains as chains_module

    monkeypatch.setattr(chains_module, "_physical_memory", lambda: 2**20)
    for argv in (
        ("oracle", "--benchmark", "onemax", "--n", "12", "--full-state"),
        ("oracle", "--benchmark", "longpath", "--n", "24", "--k", "3"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "physical memory" in err
        assert len(err.strip().splitlines()) == 1


def test_level_chain_over_memory_exits_1_before_allocating(monkeypatch, capsys):
    import tracemalloc

    import flmlab.chains as chains_module

    # an 8 GiB machine: OneMax n = 100000 needs (n+1)^2 float64 matrices of 80 GB each
    monkeypatch.setattr(chains_module, "_physical_memory", lambda: 8 * 2**30)
    for argv in (
        ("oracle", "--benchmark", "onemax", "--n", "100000"),
        ("oracle", "--benchmark", "jump", "--n", "100000", "--k", "3"),
        ("compare", "--benchmark", "onemax", "--n", "100000", "--replicates", "2"),
    ):
        tracemalloc.start()
        try:
            code, out, err = run_main(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: level chain over 100001") and "physical memory" in err
        assert len(err.strip().splitlines()) == 1
        assert peak < 2**20, argv


def test_compare_checks_monte_carlo_flags_before_the_chain(capsys):
    # n = 100000 would trip the chain's memory guard; the replicate count answers first
    for flag, value, named in (
        ("--replicates", "0", "replicates"),
        ("--seed", "-1", "seed"),
        ("--max-iterations", "0", "max_iterations"),
    ):
        code, out, err = run_main(capsys, "compare", "--benchmark", "onemax", "--n", "100000", flag, value)
        assert code == 1, flag
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert len(err.strip().splitlines()) == 1


def test_config_file_mirrors_flags(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "benchmark": "onemax", "n": 8, "p": "1/n", "replicates": 30, "seed": 5,
    }))
    code, out, _ = run_main(capsys, "simulate", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8
    assert doc["replicates"] == 30
    # explicit flags still win over the config file
    code, out, _ = run_main(capsys, "simulate", "--config", str(config), "--replicates", "10")
    assert json.loads(out)["replicates"] == 10


def test_config_file_loses_to_abbreviated_flags(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"replicates": 100}))
    base = ("simulate", "--benchmark", "onemax", "--n", "6", "--config", str(config))
    for spelling in (["--rep", "5"], ["--rep=5"], ["--replicates", "5"]):
        code, out, _ = run_main(capsys, *base, *spelling)
        assert code == 0
        assert json.loads(out)["replicates"] == 5, spelling


def test_flm_threads_environment_default(monkeypatch, capsys):
    monkeypatch.setenv("FLM_THREADS", "3")
    code, out, _ = run_main(
        capsys, "simulate", "--benchmark", "onemax", "--n", "6", "--p", "1/n",
        "--replicates", "20", "--seed", "2",
    )
    assert code == 0


def test_oracle_validation_failure_exits_1(capsys):
    # full-state oracle is capped at n = 14
    code, _, err = run_main(capsys, "oracle", "--benchmark", "leadingones", "--n", "20", "--p", "1/2")
    assert code == 1
    assert "error" in err


def test_bounds_leadingones_overflow_exits_1(capsys):
    # the exact runtime overflows a double inside math.expm1
    code, out, err = run_main(capsys, "bounds", "--benchmark", "leadingones", "--n", "100000", "--p", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert err == "error: LeadingOnes expected runtime at n=100000, p=0.5 overflows a double\n"


def test_compare_leadingones_overflow_is_the_bounds_message(capsys):
    # p(1-p)^i underflows to 0 from i = 1075, but the closed form's overflow
    # is reported first, in the line that bounds prints
    argv = ("--benchmark", "leadingones", "--n", "2000", "--p", "0.5")
    code, out, err = run_main(capsys, "compare", *argv, "--replicates", "2")
    assert (code, out) == (1, "")
    assert err == "error: LeadingOnes expected runtime at n=2000, p=0.5 overflows a double\n"
    assert run_main(capsys, "bounds", *argv) == (1, "", err)


def test_bounds_longpath_overflow_exits_1(capsys):
    # the path length 2^(n/k) is too large to convert to a float
    code, out, err = run_main(capsys, "bounds", "--benchmark", "longpath", "--n", "2400", "--k", "2", "--p", "1/n")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert err == "error: long k-path length k*2^(n/k) at n=2400, k=2 overflows a double\n"


@pytest.mark.parametrize(
    "init,code,message",
    [("random", 0, None), ("level:0", 0, None), ("level:5", 1, "stated for")],
)
def test_bounds_longpath_builds_no_path(capsys, init, code, message):
    # the (60, 2) path would have 2^31 - 1 points, over the point cap: bounds
    # decides from the flags alone
    got, out, err = run_main(capsys, "bounds", "--benchmark", "longpath", "--n", "60", "--k", "2", "--init", init)
    assert got == code
    if message is None:
        assert json.loads(out)["bounds"][0]["theorem"] == "longpath-visit-lower"
    else:
        assert out == "" and message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    ["simulate --replicates 5", "compare --replicates 5", "oracle", "oracle --full-state", "bounds"],
)
def test_init_is_parsed_before_any_path_is_built(monkeypatch, capsys, command):
    import flmlab.benchmarks as benchmarks_module

    def no_path(n, k):
        raise AssertionError("a long k-path was built before --init was parsed")

    monkeypatch.setattr(benchmarks_module, "build_long_k_path", no_path)
    code, out, err = run_main(capsys, *command.split(), "--benchmark", "longpath", "--n", "54", "--k", "3", "--init", "bogus")
    assert code == 1
    assert out == ""
    assert err.startswith("error: init must be 'random'") and len(err.strip().splitlines()) == 1


def test_oracle_without_k_exits_1(capsys):
    for benchmark in ("jump", "longpath"):
        code, _, err = run_main(capsys, "oracle", "--benchmark", benchmark, "--n", "10")
        assert code == 1
        assert "requires --k" in err


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_path_check_n_below_k_exits_1(capsys):
    # 0 % 3 == 0, but no long k-path has fewer than k bits
    assert_one_line_error(*run_main(capsys, "path-check", "--n", "0", "--k", "3"))


@pytest.mark.parametrize("level", ["99", "-1"])
def test_oracle_longpath_start_out_of_range_exits_1(capsys, level):
    # the path has 15 positions; -1 must not wrap around to the optimum
    code, out, err = run_main(
        capsys, "oracle", "--benchmark", "longpath", "--n", "6", "--k", "2", "--init", f"level:{level}"
    )
    assert_one_line_error(code, out, err)
    assert "[0, 14]" in err


def test_bounds_csv_format(capsys):
    code, out, _ = run_main(
        capsys, "bounds", "--benchmark", "jump", "--n", "10", "--k", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theorem,kind,value"
    assert any(line.startswith("jump-skip-") for line in lines[1:])


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "flmlab", "bounds", "--benchmark", "jump", "--n", "10", "--k", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["p_k"] > 0


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so that warnings reach its stderr."""
    return subprocess.run([sys.executable, "-m", "flmlab", *argv], capture_output=True, text=True)


def test_compare_onemax_zero_leave_probability_one_stderr_line():
    # at p = 1e-20 the chain rounds every leave probability to 0; they are
    # validated before 1 / p is formed, so no divide-by-zero warning is printed
    result = run_cli_process(
        "compare", "--benchmark", "onemax", "--n", "2", "--p", "1e-20", "--init", "level:2",
        "--replicates", "3", "--max-iterations", "1",
    )
    assert_one_line_error(result.returncode, result.stdout, result.stderr)
    assert "leaving probabilities" in result.stderr


@pytest.mark.parametrize("n", ["1200", "1060"])
def test_compare_leadingones_unrepresentable_rates_one_stderr_line(n):
    # at n = 1200 the top leave probabilities 2^-(i+1) round to 0, at n = 1060
    # to subnormals whose reciprocals overflow: exit 1 before any replicate
    result = run_cli_process(
        "compare", "--benchmark", "leadingones", "--n", n, "--p", "0.5", "--init", "level:3",
        "--replicates", "2", "--max-iterations", "1",
    )
    assert_one_line_error(result.returncode, result.stdout, result.stderr)


@pytest.mark.parametrize("argv", [
    "--benchmark leadingones --n 6 --p 1e-320",
    "--benchmark onemax --n 6 --p 1e-320",
    "--benchmark longpath --n 4 --k 2 --p 1e-320",
    "--benchmark jump --n 6 --k 2 --p 1e-200",
])
def test_oracle_full_state_class_it_cannot_leave_exits_1(argv):
    # subnormal flip masses (an expected time beyond doubles) or zero masses
    # out of jump's gap class: one message naming the class, no NaN, no warning
    result = run_cli_process("oracle", "--full-state", *argv.split())
    assert_one_line_error(result.returncode, result.stdout, result.stderr)
    assert "absorbing non-top fitness class reachable" in result.stderr
    assert "Warning" not in result.stderr


def test_simulate_jump_level_k_beyond_float_binomials():
    # C(1100, 550) overflows a double; the level-k start is drawn from
    # log-binomial weights, with no warning on stderr
    result = run_cli_process(
        "simulate", "--benchmark", "jump", "--n", "1100", "--k", "3", "--init", "level:3",
        "--replicates", "1", "--max-iterations", "5",
    )
    assert result.returncode == 0
    assert result.stderr == ""
    # the run starts on level k, the non-gap strings with at most n - k ones
    assert json.loads(result.stdout)["visit_freq"][:4] == [0, 0, 0, 1]


NO_SCIPY_SCRIPT = r"""
import contextlib, io, json, sys
import flmlab.cli as cli

CALLS = [
    "oracle --benchmark jump --n 12 --k 3 --init level:3",
    "oracle --benchmark onemax --n 6 --full-state",
    "bounds --benchmark onemax --n 30",
    "simulate --benchmark jump --n 8 --k 3 --init level:3 --replicates 5 --seed 1",
    "compare --benchmark onemax --n 10 --replicates 20 --seed 1",
]
codes = []
for argv in CALLS:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv.split()))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_loads_no_scipy_module():
    # numpy is the only runtime dependency; scipy is a test-only reference
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    assert seen["codes"] == [0] * 5
    assert seen["scipy"] == []


@pytest.mark.parametrize("rate", ["0.4", "2/n", "0.025000000001"])
def test_bounds_onemax_rejects_rate_other_than_1_over_n(capsys, rate):
    # the OneMax sandwich holds for rate 1/n only
    code, out, err = run_main(capsys, "bounds", "--benchmark", "onemax", "--n", "40", "--from", "10", "--p", rate)
    assert_one_line_error(code, out, err)
    assert "rate 1/n" in err


@pytest.mark.parametrize("rate", ["1/n", "0.025", "1/40"])
def test_bounds_onemax_accepts_rate_1_over_n(capsys, rate):
    code, out, _ = run_main(capsys, "bounds", "--benchmark", "onemax", "--n", "40", "--from", "10", "--p", rate)
    assert code == 0
    assert json.loads(out)["tilde_T"] == pytest.approx(379.6868817449465, rel=1e-15)


@pytest.mark.parametrize("rate", ["0.3", "2/n", "0.100000000001"])
def test_bounds_jump_rejects_rate_other_than_1_over_n(capsys, rate):
    # the jump skip bounds hold for rate 1/n only
    code, out, err = run_main(capsys, "bounds", "--benchmark", "jump", "--n", "10", "--k", "3", "--p", rate)
    assert_one_line_error(code, out, err)
    assert "rate 1/n" in err


def test_bounds_jump_checks_n_and_k_before_the_rate(capsys):
    code, out, err = run_main(capsys, "bounds", "--benchmark", "jump", "--n", "10", "--k", "1", "--p", "0.3")
    assert_one_line_error(code, out, err)
    assert "jump size" in err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_jump_level_start_checks_the_jump_size_first(capsys, command):
    code, out, err = run_main(capsys, command, "--benchmark", "jump", "--n", "3", "--k", "5", "--init", "level:5")
    assert_one_line_error(code, out, err)
    assert err == "error: jump size must be in [1, 3], got 5\n"


@pytest.mark.parametrize(
    "init,bound",
    [("random", "random"), ("arbitrary", "arbitrary"), ("level:3", "arbitrary"), ("point:0011001100", "arbitrary")],
)
def test_bounds_jump_init_selects_skip_bound(capsys, init, bound):
    code, out, _ = run_main(capsys, "bounds", "--benchmark", "jump", "--n", "10", "--k", "3", "--init", init)
    assert code == 0
    doc = json.loads(out)
    assert doc["init"] == bound
    assert [b["theorem"] for b in doc["bounds"]] == [f"jump-skip-{bound}"]


@pytest.mark.parametrize("init", ["nonsense", "level:x", "point:01"])
def test_bounds_jump_rejects_unknown_init(capsys, init):
    code, out, err = run_main(capsys, "bounds", "--benchmark", "jump", "--n", "10", "--k", "3", "--init", init)
    assert_one_line_error(code, out, err)


@pytest.mark.parametrize("command", ["simulate", "compare", "oracle", "bounds"])
@pytest.mark.parametrize("level", ["abc", "", "1.5"])
def test_init_level_not_an_integer_names_the_flag_and_the_form(capsys, command, level):
    code, out, err = run_main(capsys, command, "--benchmark", "leadingones", "--n", "3", "--init", f"level:{level}")
    assert_one_line_error(code, out, err)
    assert err == f"error: --init level must be 'level:<int>', got 'level:{level}'\n"


@pytest.mark.parametrize("family", ["onemax --n 10", "leadingones --n 10", "longpath --n 12 --k 4"])
def test_bounds_rejects_unknown_init_for_every_family(capsys, family):
    code, out, err = run_main(capsys, "bounds", "--benchmark", *family.split(), "--init", "nonsense")
    assert_one_line_error(code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        "oracle --benchmark onemax --n 0",
        "compare --benchmark leadingones --n 0 --replicates 2",
        "bounds --benchmark jump --n 0 --k 2",
        "simulate --benchmark jump --n 0 --k 1",
    ],
)
def test_n_below_one_names_n(capsys, argv):
    code, out, err = run_main(capsys, *argv.split())
    assert_one_line_error(code, out, err)
    assert "n must be >= 1" in err
