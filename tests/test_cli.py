"""Command-line interface: tables, studies, diagnostics, exit codes."""

import subprocess
import sys
from unittest import mock

import pytest

from tempfrac import cli
from tempfrac.cli import _build_parser, main
from tempfrac.verification import ConvergenceReport


class TestWeightsCommand:
    @staticmethod
    def _table_rows(out):
        rows = []
        for ln in out.strip().split("\n"):
            parts = ln.split()
            if parts and parts[0].isdigit():
                rows.append(parts)
        return rows

    def test_table_and_leading_weight(self, capsys):
        assert main(["weights", "--alpha", "1.5", "--lambda", "1", "--h", "0.1", "--n", "10"]) == 0
        rows = self._table_rows(capsys.readouterr().out)
        assert len(rows) == 11
        assert float(rows[0][2]) == pytest.approx(0.8403904, abs=5e-7)

    def test_untempered_partial_sums_decay(self, capsys):
        assert main(["weights", "--alpha", "1.5", "--lambda", "0", "--h", "0.1", "--n", "400"]) == 0
        rows = self._table_rows(capsys.readouterr().out)
        partial_first = abs(float(rows[0][3]))
        partial_last = abs(float(rows[-1][3]))
        assert partial_last < 1e-2 * partial_first

    def test_domain_error_exits_2(self, capsys):
        assert main(["weights", "--alpha", "2.5", "--lambda", "1", "--h", "0.1", "--n", "5"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--h", "nan"], ["--h", "inf"], ["--lambda", "nan"], ["--lambda", "inf"],
    ])
    def test_non_finite_input_exits_2(self, capsys, argv):
        assert main(["weights", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert captured.out == ""

    def test_csv_format(self, capsys):
        assert main(["weights", "--alpha", "1.2", "--lambda", "0.5", "--h", "0.1",
                     "--n", "4", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,g_k,w_k,partial_sum")


class TestConvergeCommand:
    def test_default_case_two_levels(self, capsys, tmp_path):
        out_path = tmp_path / "study.csv"
        code = main(["converge", "--levels", "2", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("case,alpha,beta,lambda,h,tau,error,rate,wall_ms")
        assert "ex5_1" in text
        table = capsys.readouterr().out
        assert "rate" in table

    @pytest.mark.parametrize("h", ["0.1", "0.05", "0.025"])
    def test_dyadic_levels_are_the_halvings_of_h(self, capsys, h):
        # 1 / (M0 2^k) is h / 2^k to the bit for these h, so studies from
        # them tabulate the same spacings as before
        seen = []

        def study(case, h_levels, **kwargs):
            seen.append(h_levels)
            return ConvergenceReport(ident=case.ident, params=dict(case.params))

        with mock.patch.object(cli, "run_convergence_study", study):
            assert main(["converge", "--h", h, "--levels", "12"]) == 0
        assert seen == [[float(h) / 2**k for k in range(12)]]

    def test_non_dyadic_h_prints_the_spacings_it_runs(self, capsys):
        # --h 0.07 runs M = 14, 28, 56 cells on [0, 1]; the table and the
        # rates are taken from those spacings, not from 0.07 / 2^k
        assert main(["converge", "--h", "0.07", "--levels", "3", "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(row[4]) for row in rows] == [1 / 14, 1 / 28, 1 / 56]
        assert [float(row[7]) for row in rows[1:]] == pytest.approx([2.97, 2.985], abs=0.01)
        assert main(["converge", "--h", "0.07", "--levels", "3"]) == 0
        table = capsys.readouterr().out.splitlines()[2:]
        assert [line.split()[0] for line in table] == ["0.0714286", "0.0357143", "0.0178571"]

    def test_unknown_case_exits_2(self, capsys):
        assert main(["converge", "--case", "bogus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_two_dimensional_case(self, capsys):
        code = main(["converge", "--case", "ex5_3", "--alpha", "1.2", "--beta", "1.5",
                     "--lambda", "0.1", "--levels", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ex5_3" in out

    def test_invalid_alpha_exits_2(self, capsys):
        assert main(["converge", "--case", "ex5_1", "--alpha", "3.0"]) == 2

    def test_invalid_beta_is_named(self, capsys):
        assert main(["converge", "--case", "ex5_3", "--beta", "3"]) == 2
        assert capsys.readouterr().err == "error: beta must lie in (1, 2), got 3.0\n"

    def test_deviating_rate_exits_1(self, capsys):
        # first-order temporal coupling destroys the spatial order on a
        # stable configuration, which the CI contract must flag
        code = main(["converge", "--case", "ex5_1", "--alpha", "1.5", "--lambda", "1",
                     "--levels", "2", "--coupling", "fixed", "--tau", "0.05"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["--coupling", "fixed"],
        ["--coupling", "fixed", "--tau", "-1"],
        ["--coupling", "fixed", "--tau", "0"],
        ["--h", "0"],
        ["--h", "-0.1"],
        ["--h", "0.5"],  # two cells
        ["--h", "0.2", "--lambda", "nan"],
        ["--h", "0.2", "--lambda", "inf"],
        ["--case", "ex5_3", "--h", "0.2", "--lambda", "nan"],
        ["--case", "ex5_4", "--h", "0.2", "--lambda", "inf"],
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        assert main(["converge", "--levels", "2", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestStabilityCommand:
    @pytest.mark.parametrize("argv", [
        ["--h", "0"], ["--h", "-0.1"], ["--h", "nan"], ["--lambda", "nan"], ["--M", "3"],
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        assert main(["stability", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_unstable_configuration_flagged(self, capsys):
        assert main(["stability", "--alpha", "1.9", "--lambda", "50", "--h", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "UNSTABLE" in out

    def test_stable_configuration(self, capsys):
        assert main(["stability", "--alpha", "1.5", "--lambda", "1", "--h", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "STABLE" in out
        assert "negative-definite" in out

    @pytest.mark.parametrize("argv", [
        ["--h", "0.001"], ["--alpha", "1.9", "--lambda", "0", "--h", "0.0001"],
    ])
    def test_large_grid_certified(self, capsys, argv):
        # 999 and 9,999 unknowns: certified from the symbol, no eigen-solve
        assert main(["stability", *argv]) == 0
        out = capsys.readouterr().out
        assert "(lambda*h <= 1): STABLE" in out
        assert "-> negative-definite" in out

    def test_splitting_regime_reported(self, capsys):
        main(["stability", "--alpha", "1.9", "--lambda", "0", "--h", "0.05"])
        assert "applies" in capsys.readouterr().out

    def test_splitting_inapplicable_reported(self, capsys):
        main(["stability", "--alpha", "1.2", "--lambda", "0", "--h", "0.05"])
        assert "not applicable" in capsys.readouterr().out


class TestParserReuse:
    ARGVS = (
        ["weights", "--alpha", "1.5", "--lambda", "1", "--h", "0.1", "--n", "5"],
        ["converge", "--case", "ex5_1", "--levels", "2", "--format", "csv"],
        ["stability", "--alpha", "1.9", "--lambda", "0", "--h", "0.05"],
        ["converge", "--levels", "two"],
        ["converge", "--case", "ex5_2", "--levels", "2", "--format", "csv"],
    )

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        lines = out.splitlines()
        if argv[0] == "converge":  # the last CSV column, wall_ms, is a timing
            lines = [line.rsplit(",", 1)[0] for line in lines]
        return code, lines, err

    def test_one_parser_serves_every_call(self, capsys):
        _build_parser.cache_clear()
        fresh = []
        for argv in self.ARGVS:
            _build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        reused = [self._run(argv, capsys) for argv in self.ARGVS]
        assert _build_parser() is _build_parser()
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
        assert reused == fresh


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tempfrac.cli", "weights", "--n", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "w_k" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tempfrac.cli", "no-such-command"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
