"""Unit tests for the command-line front end."""

import json
import math
import shlex
from pathlib import Path

import pytest

from wakexp import cli
from wakexp.cli import build_parser, main
from wakexp.probkit import binary_entropy
from wakexp.reductions import OOHAMA_DEFAULT, SINGLE_DEFAULT
from wakexp.simplex_optim import DEFAULT_CONFIG, SolverConfig

FAST = ["--starts", "4", "--max-iterations", "800", "--seed", "7"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleQueries:
    def test_single_reports_both_forms(self, capsys):
        code, out, _ = run_cli(capsys, ["single", "--pmf", "[0.9,0.1]", "--r1", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["direct"] == pytest.approx(payload["parametric"], abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ne", "--source", "dsbs:0.1", "--r1", "0.3"],
            ["dsbs", "--p", "0.1", "--r1", "0.4", "--r2", "0.2"],
            ["fig2", "--p", "0.1", "--r2", "0.2", "--r1-grid", "0:1:0.5"],
        ],
        ids=["ne", "dsbs", "fig2"],
    )
    def test_ne_reads_no_solver_flags(self, capsys, monkeypatch, argv):
        # the shared parser accepts them, as for gap, and the closed forms ignore them
        monkeypatch.setenv("WAK_THREADS", "1")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert run_cli(capsys, argv + FAST + ["--grid-resolution", "3"])[:2] == (0, out)

    def test_exponent_breakdown_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["exponent", "--source", "dsbs:0.1", "--r1", "0.5", "--r2", "0.2781", *FAST],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(
            payload["kl_term"] + payload["soft_markov_term"] + payload["rate2_term"],
            abs=1e-9,
        )

    def test_certified_zero_reads_zero(self, capsys):
        # the timeshare of U = Y certifies this pair at -2.2e-16 in the search
        # kernel; the tensor recomputes I(U;X|Y) as 4.44e-16, but a kernel
        # value at or below 0 certifies F = 0, so every term reads 0.0
        code, out, _ = run_cli(
            capsys,
            ["exponent", "--source", "dsbs:0.1", "--r1", "0.9", "--r2", "0.9", "--starts", "4", "--seed", "1"],
        )
        payload = json.loads(out)
        assert (code, payload["value"], payload["evaluations"]) == (0, 0.0, 5)
        assert payload["kl_term"] == payload["soft_markov_term"] == payload["rate2_term"] == 0.0
        assert math.copysign(1.0, payload["value"]) == 1.0

    def test_inline_json_source_round_trip(self, capsys):
        spec = json.dumps({"nx": 2, "ny": 2, "probs": [0.45, 0.05, 0.05, 0.45]})
        code, out, _ = run_cli(capsys, ["ne", "--source", spec, "--r1", "0.2", *FAST])
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_emitted_source_wire_form_is_reloadable(self, capsys):
        from wakexp.dsbs import dsbs_source
        from wakexp.probkit import joint_to_dict

        spec = json.dumps(joint_to_dict(dsbs_source(0.1)))
        code, out, _ = run_cli(capsys, ["ne", "--source", spec, "--r1", "0.3", *FAST])
        assert code == 0
        direct, _, _ = run_cli(capsys, ["ne", "--source", "dsbs:0.1", "--r1", "0.3", *FAST])
        assert direct == 0

    def test_gap_report(self, capsys):
        code, out, _ = run_cli(capsys, ["gap", "--pmf", "[0.5,0.5]", "--r1", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["f_oohama"] == pytest.approx(1 / 6, abs=1e-12)
        assert payload["f_tight"] == pytest.approx(0.5, abs=1e-12)
        assert payload["gap"] == pytest.approx(1 / 3, abs=1e-12)

    def test_oohama_single_form(self, capsys):
        code, out, _ = run_cli(capsys, ["oohama", "--pmf", "[0.5,0.5]", "--r1", "0.5"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1 / 6, abs=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["oohama", "--pmf", "[1.0,0.0]", "--r1", "0"],
            ["oohama", "--source", '{"nx":2,"ny":2,"probs":[1,0,0,0]}', "--r1", "0", "--r2", "0"],
        ],
        ids=["single", "general"],
    )
    def test_oohama_prints_no_negative_zero_on_a_point_mass(self, capsys, argv):
        # both forms once passed on the -0.0 of a zero tilt
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert '"value": 0.0' in out and "-0.0" not in out

    def test_region_query(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--source", "dsbs:0.1", "--r2", "1.0", "--r1", "0.5", *FAST],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_r1"] == pytest.approx(binary_entropy(0.1), abs=1e-6)
        assert payload["contains"] is True

    def test_dsbs_reports_both_variants(self, capsys):
        code, out, _ = run_cli(
            capsys, ["dsbs", "--p", "0.1", "--r1", "0.5", "--r2", "0.2781", *FAST]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constrained"]["value"] >= payload["unconstrained"]["value"] - 1e-9

    def test_dsbs_prints_no_negative_rounding(self, capsys):
        code, out, _ = run_cli(capsys, ["dsbs", "--p", "0.1", "--r1", "0.9", "--r2", "0.2781"])
        assert code == 0
        payload = json.loads(out)
        assert payload["unconstrained"]["value"] == payload["constrained"]["value"] == 0.0
        assert '"value": 0.0,' in out

    def test_pa_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["pa", "--source", "dsbs:0.1", "--r1", "0.2", "--r2", "0.3",
             "--delta", "0.05", "--n", "64", *FAST],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == payload["tail_term"] + payload["hash_term"]

    def test_pa_exponent_stops_at_its_floor(self, capsys):
        # the benchmark's call solves F at (r1 + delta, r2) = (0.25, 0.3); X is
        # uniform, so the cut-set floor is 1 - 0.55 = 0.45, which a fixed
        # start meets within 2.6e-13
        code, out, _ = run_cli(
            capsys,
            ["pa", "--source", "dsbs:0.1", "--r1", "0.2", "--r2", "0.3", "--delta", "0.05", "--n", "64",
             "--starts", "6", "--max-iterations", "600", "--seed", "7"],
        )
        assert code == 0
        assert json.loads(out)["exponent"] == 0.45000000000025037


class TestSweeps:
    def test_fig2_auto_rate_and_row_count(self, capsys, monkeypatch):
        monkeypatch.setenv("WAK_THREADS", "1")
        code, out, err = run_cli(
            capsys,
            ["fig2", "--p", "0.1", "--r2", "auto", "--r1-grid", "0:1:0.05", *FAST],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r1,unconstrained,constrained,beta_u,q0_u,q1_u,beta_c,q_c"
        assert len(lines) == 22
        assert repr(1.0 - binary_entropy(0.2)) in err

    def test_region_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--source", "dsbs:0.1", "--r2-grid", "0:1:0.5", *FAST],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r2,min_r1"
        assert len(lines) == 4

    def test_region_sweep_prints_no_negative_zero(self, capsys):
        # H(X|Y) = 0, so min r1 reaches 0 once r2 >= H(Y)
        spec = json.dumps({"nx": 2, "ny": 3, "probs": [0.3, 0, 0.2, 0, 0.5, 0]})
        code, out, _ = run_cli(
            capsys, ["region", "--source", spec, "--r2-grid", "0:1.6:0.4", "--starts", "4", "--seed", "1"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[4:] == ["1.200000,0.000000", "1.600000,0.000000"]
        assert "-0.000000" not in out

    def test_pa_tradeoff_csv(self, capsys, monkeypatch):
        monkeypatch.setenv("WAK_THREADS", "1")
        code, out, _ = run_cli(
            capsys,
            ["pa-tradeoff", "--source", "dsbs:0.1", "--target", "1.6", "--n", "32",
             "--delta", "0.05", "--r2-grid", "0.2:0.6:0.4", "--r1-grid", "0:0.4:0.2",
             *FAST],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r2,max_r1,total_bound"
        assert len(lines) == 3

    def test_out_flag_writes_file_and_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            ["region", "--source", "dsbs:0.1", "--r2-grid", "0:1:0.5",
             "--out", str(target), *FAST],
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("r2,min_r1")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["exponent", "--nope", "1"])
        assert code == 2

    def test_malformed_source_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["exponent", "--source", '{"nx":2}', "--r1", "0.1", "--r2", "0.1"]
        )
        assert code == 2

    def test_negative_probability_rejected(self, capsys):
        spec = json.dumps({"nx": 2, "ny": 1, "probs": [1.5, -0.5]})
        code, _, _ = run_cli(capsys, ["ne", "--source", spec, "--r1", "0.1"])
        assert code == 2

    def test_nan_probability_rejected(self, capsys):
        spec = '{"nx": 3, "ny": 1, "probs": [NaN, 0.5, 0.5]}'
        code, out, err = run_cli(
            capsys, ["exponent", "--source", spec, "--r1", "0.1", "--r2", "0.1", *FAST]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("flag", ["--step-tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solver_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys,
            ["exponent", "--source", "dsbs:0.1", "--r1", "0.5", "--r2", "0.2781", *FAST, flag, value],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_nan_rate_is_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, ["ne", "--source", "dsbs:0.1", "--r1", "nan", *FAST])
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--pmf", "[0.9,0.1]", "--r1", "inf"],
            ["oohama", "--pmf", "[0.9,0.1]", "--r1", "inf"],
            ["ne", "--source", "dsbs:0.1", "--r1", "inf"],
            ["region", "--source", "dsbs:0.1", "--r2", "inf"],
            ["region", "--source", "dsbs:0.1", "--r2", "0.5", "--r1", "inf"],
            ["dsbs", "--p", "0.1", "--r1", "inf", "--r2", "0.2781"],
            ["fig2", "--p", "0.1", "--r2", "inf", "--r1-grid", "0:1:0.5"],
            ["pa", "--source", "dsbs:0.1", "--r1", "-0.01", "--r2", "0.3", "--delta", "0.05", "--n", "64"],
        ],
    )
    def test_non_finite_or_negative_rate_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + FAST)
        assert code == 3
        assert out == ""
        assert "must be finite and nonnegative" in err

    def test_infinite_delta_is_a_domain_error_naming_delta(self, capsys):
        argv = ["pa", "--source", "dsbs:0.1", "--r1", "0.2", "--r2", "0.3", "--delta", "inf", "--n", "64"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "error: delta must be finite and nonnegative\n"

    @pytest.mark.parametrize("grid", ["0:inf:0.5", "nan:1:0.5", "0:1:inf"])
    def test_non_finite_grid_is_usage_error(self, capsys, grid):
        code, out, err = run_cli(capsys, ["region", "--source", "dsbs:0.1", "--r2-grid", grid, *FAST])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["pa", "--source", "dsbs:0.1", "--r1", "0.1", "--r2", "0.1",
             "--delta", "-0.5", "--n", "10", *FAST],
        )
        assert code == 3

    def test_crossover_out_of_range_is_domain_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["exponent", "--source", "dsbs:0.9", "--r1", "0.1", "--r2", "0.1"]
        )
        assert code == 3

    def test_gap_above_entropy_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, ["gap", "--pmf", "[0.5,0.5]", "--r1", "1.5"])
        assert code == 3


class TestWorkers:
    def test_default_counts_only_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.delenv("WAK_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._workers() == 1

    def test_default_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("WAK_THREADS", raising=False)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._workers() == 3

    @pytest.mark.parametrize("env, want", [("3", 3), ("1", 1), ("0", 1)])
    def test_environment_sets_the_count(self, monkeypatch, env, want):
        monkeypatch.setenv("WAK_THREADS", env)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._workers() == want


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exponent", "--source", "dsbs:0.1", "--r1", "0.5", "--r2", "0.2781"],
            ["single", "--pmf", "[0.8,0.2]", "--r1", "0.25"],
            ["fig2", "--p", "0.1", "--r2", "auto", "--r1-grid", "0:1:0.5"],
        ],
    )
    def test_repeated_invocations_are_byte_identical(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WAK_THREADS", "1")
        _, first, _ = run_cli(capsys, argv + FAST)
        _, second, _ = run_cli(capsys, argv + FAST)
        assert first == second


class _Stop(Exception):
    """Raised by a stand-in solver once it has seen its config."""


# each subcommand that reads solver flags: its argv, the solver it hands the
# config to, and that solver's library default
FLAG_DEFAULT_CASES = [
    (["exponent", "--source", "dsbs:0.1", "--r1", "0.5", "--r2", "0.2"], cli, "wak_exponent", DEFAULT_CONFIG),
    (["region", "--source", "dsbs:0.1", "--r2", "0.5"], cli, "region_min_r1", DEFAULT_CONFIG),
    (["single", "--pmf", "[0.9,0.1]", "--r1", "0.2"], cli, "exponent_single_direct", SINGLE_DEFAULT),
    (["oohama", "--source", "dsbs:0.1", "--r1", "0.2", "--r2", "0.3"], cli, "OohamaEvaluator", OOHAMA_DEFAULT),
    (
        ["pa", "--source", "dsbs:0.1", "--r1", "0.2", "--r2", "0.3", "--delta", "0.05", "--n", "64"],
        cli.pa_mod, "pa_security_bound", DEFAULT_CONFIG,
    ),
    (
        ["pa-tradeoff", "--source", "dsbs:0.1", "--target", "1.6", "--n", "32", "--delta", "0.05",
         "--r2-grid", "0.2:0.6:0.4", "--r1-grid", "0:0.4:0.2"],
        cli.pa_mod, "pa_rate_tradeoff", DEFAULT_CONFIG,
    ),
]


class TestSolverFlagDefaults:
    @pytest.mark.parametrize("argv, owner, name, default", FLAG_DEFAULT_CASES, ids=[c[0][0] for c in FLAG_DEFAULT_CASES])
    def test_unset_flags_give_the_library_default(self, monkeypatch, argv, owner, name, default):
        seen = []

        def stand_in(*args, **kwargs):
            seen.extend(a for a in (*args, *kwargs.values()) if isinstance(a, SolverConfig))
            raise _Stop

        monkeypatch.setattr(owner, name, stand_in)
        with pytest.raises(_Stop):
            main(argv)
        assert seen == [default]


class TestReadme:
    def test_every_documented_command_line_parses(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = [line for line in text.replace("\\\n", " ").splitlines() if line.startswith("wakexp ")]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README documents a command line the parser rejects: {line}")
