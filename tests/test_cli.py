"""Command-line surface: verbs, formats, exit codes, determinism."""

import cmath
import dataclasses
import io
import json
import math
import re
import shlex
import time

import pytest

from khinfam import cli


def run(argv):
    buf = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestCoeffVerb:
    def test_exact_digits_within_the_limit_still_printed(self):
        # ln(1/200!) < -700, so the value cell is the exact rational
        code, out = run(["coeff", "--family", "exp", "--n", "200", "--method", "exact"])
        assert code == 0
        assert out.splitlines()[1].split()[3] == f"1/{math.factorial(200)}"

    def test_partition_pipeline(self):
        code, out = run(["coeff", "--family", "P", "--n", "100",
                         "--method", "exact,hayman,hr"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["method", "n"]
        assert "190569292" in out
        assert "hayman" in out and "hr" in out

    def test_ratio_column_is_exact_over_estimate(self):
        code, out = run(["--out", "jsonl", "coeff", "--family", "exp", "--n", "10",
                         "--method", "exact,hayman"])
        rows = [json.loads(line) for line in out.splitlines()]
        hay = next(r for r in rows if r["method"] == "hayman")
        assert abs(float(hay["ratio"]) - 0.991704) < 1e-4

    def test_bell_closed_form(self):
        code, out = run(["--out", "jsonl", "coeff", "--family", "bell", "--n", "20",
                         "--method", "exact,mw"])
        rows = [json.loads(line) for line in out.splitlines()]
        mw = next(r for r in rows if r["method"] == "moser-wyman")
        assert abs(float(mw["ratio"]) - 1.0) < 0.02

    def test_closed_method_dispatch(self):
        code, out = run(["--out", "jsonl", "coeff", "--family", "Q", "--n", "50",
                         "--method", "exact,closed"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert any(r["method"] == "distinct" for r in rows)


class TestFamilyVerb:
    def test_bell_stats(self):
        code, out = run(["--out", "jsonl", "family", "--family", "bell", "--t", "2",
                         "--stats", "mean,var"])
        rows = {json.loads(l)["stat"]: json.loads(l) for l in out.splitlines()}
        assert abs(float(rows["mean"]["value"]) - 2 * math.exp(2)) < 1e-6
        assert abs(float(rows["var"]["value"]) - 6 * math.exp(2)) < 1e-6

    def test_mass_and_charfn(self):
        code, out = run(["--out", "jsonl", "family", "--family", "exp", "--t", "2",
                         "--stats", "mass:3,charfn:0.5,qgcd"])
        assert code == 0
        rows = {json.loads(l)["stat"]: json.loads(l) for l in out.splitlines()}
        want = math.exp(-2) * 8 / 6
        assert abs(float(rows["mass:3"]["value"]) - want) < 1e-9

    @pytest.mark.parametrize("log_at_zero", [
        lambda z: cmath.log(0j),  # raises ValueError
        lambda z: complex(-math.inf, 0.0),
    ], ids=["log-raises", "minus-inf"])
    def test_zero_in_the_sector_is_a_named_error(self, log_at_zero, monkeypatch, capsys):
        # exp with complex ln f replaced by a zero off the real axis
        make_family = cli.C.make_family

        def planted(spec, trunc):
            fam = make_family(spec, trunc=trunc)
            return dataclasses.replace(fam, log_value_complex=log_at_zero, log_value_circle=None)

        monkeypatch.setattr(cli.C, "make_family", planted)
        code = cli.main(["family", "--family", "exp", "--t", "1", "--stats", "zerofree"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: ZeroInSector: exp vanishes at ")


class TestLargepowVerb:
    def test_auto_regime_binomial(self):
        code, out = run(["--out", "jsonl", "largepow", "--psi", "poly:1,1",
                         "--n", "1000", "--k", "500", "--regime", "auto"])
        row = json.loads(out.splitlines()[0])
        assert row["regime"] == "comparable"
        assert abs(float(row["ratio"]) - 1.0) < 0.005
        assert row["exact"]  # exact binomial is representable

    def test_fixed_k_exact(self):
        code, out = run(["--out", "jsonl", "largepow", "--psi", "poly:1,1",
                         "--n", "1000000", "--k", "31", "--regime", "auto"])
        row = json.loads(out.splitlines()[0])
        assert row["regime"] == "fixed_k"
        assert float(row["ratio"]) == 1.0

    def test_auto_with_prefactor_small_k(self):
        code, out = run(["--out", "jsonl", "largepow", "--psi", "poly:1,1", "--h", "poly:1,1",
                         "--n", "1000", "--k", "20", "--regime", "auto"])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["regime"] == "small_k+prefactor"
        want = math.comb(1001, 20)
        assert float(row["exact_ln"]) == pytest.approx(math.log(want), rel=1e-11)
        assert float(row["exact"]) == pytest.approx(want, rel=1e-11)

    def test_auto_with_prefactor_outside_its_regimes(self, capsys):
        code = cli.main(["largepow", "--psi", "exp", "--h", "binom:4", "--n", "5",
                         "--k", "500", "--regime", "auto"])
        assert code == 3
        err = capsys.readouterr().err
        assert "NoApplicableRegime" in err and "binom:4" in err

    def test_refined_small_k_takes_j_as_given(self, capsys):
        # J = 0 asks for no correction term, which is a usage error, not J = 2
        argv = ["largepow", "--psi", "poly:1,2", "--n", "100", "--k", "3", "--regime"]
        assert cli.main(argv + ["smallkref:0"]) == 2
        assert capsys.readouterr().out == ""
        assert run(argv + ["smallkref"]) == run(argv + ["smallkref:2"])


class TestLagrangeVerb:
    def test_borel_tanner_pmf(self):
        code, out = run(["--out", "jsonl", "lagrange", "--op", "bt",
                         "--t", "0.5", "--j", "1", "--n", "3"])
        row = json.loads(out.splitlines()[0])
        assert abs(float(row["value"]) - math.exp(-1.5) * 1.5**2 / (3 * 2)) < 1e-9

    def test_sampler_deterministic_output(self):
        argv = ["--seed", "9", "--out", "csv", "lagrange", "--op", "sample",
                "--psi", "exp", "--t", "0.5", "--j", "1", "--trials", "2000"]
        a = run(argv)
        b = run(argv)
        assert a == b


class TestDiagVerb:
    def test_gaussian_grid(self):
        code, out = run(["--out", "jsonl", "diag", "--family", "exp",
                         "--t", "10,100", "--stats", "cltsup,sgint"])
        rows = [json.loads(l) for l in out.splitlines()]
        assert float(rows[0]["cltsup"]) > float(rows[1]["cltsup"])
        assert float(rows[0]["sgint"]) > float(rows[1]["sgint"])


    def test_cltsup_past_the_largest_truncation_refused_unbuilt(self, monkeypatch, capsys):
        # mean + 12 sigma at t = 1e10 is 1e10: no oracle of that order may be built
        def spy(spec, n_max):
            raise AssertionError(f"exact_coeffs({spec.key()}, {n_max}) called")

        monkeypatch.setattr(cli.C, "exact_coeffs", spy)
        code = cli.main(["diag", "--family", "exp", "--t", "1e10", "--stats", "cltsup"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: WindowTooNarrow: ")


class TestFormats:
    def test_empty_row_set_emits_header_only(self):
        buf = io.StringIO()
        cli.emit_rows([], ["a", "b"], "csv", buf)
        assert buf.getvalue() == "a,b\n"

    def test_csv_header_and_log_prefix(self):
        code, out = run(["--out", "csv", "coeff", "--family", "exp", "--n", "5",
                         "--method", "exact,hayman"])
        lines = out.splitlines()
        assert lines[0] == "method,n,ln,value,ratio"
        assert "ln=" in lines[1]

    def test_csv_twelve_significant_digits(self):
        code, out = run(["--out", "csv", "family", "--family", "exp", "--t", "2",
                         "--stats", "mean"])
        cell = out.splitlines()[1].split(",")[2]
        assert cell == "2"

    def test_byte_identical_repeat(self):
        argv = ["--out", "csv", "coeff", "--family", "P", "--n", "50",
                "--method", "exact,hayman,bd,hr"]
        assert run(argv) == run(argv)

    def test_table_alignment(self):
        code, out = run(["coeff", "--family", "exp", "--n", "5"])
        assert out.splitlines()[0].startswith("method")


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeff", "--n", "5"])  # missing --family
        assert exc.value.code == 2

    def test_domain_error_is_three(self, capsys):
        code = cli.main(["coeff", "--family", "nope", "--n", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "InvalidSpec" in err

    def test_domain_error_carries_module_error_name(self, capsys):
        code = cli.main(["largepow", "--psi", "poly:1,0,1", "--n", "100",
                         "--k", "99", "--regime", "comparable:0.2,1.8"])
        assert code == 3
        assert "QGcdViolation" in capsys.readouterr().err

    def test_tol_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--tol", "1e-9", "family", "--family", "exp", "--t", "1"])
        assert exc.value.code == 2
        assert "--tol" not in cli.build_parser().format_usage()

    def test_success_is_zero(self):
        code, _ = run(["family", "--family", "exp", "--t", "1", "--stats", "mean"])
        assert code == 0


class TestSelftestVerb:
    def test_single_criterion(self):
        code, out = run(["selftest", "--criteria", "1"])
        assert code == 0
        assert "PASS criterion 1" in out

    def test_failing_criterion_sets_exit_code(self):
        # criterion 3 is the known-red check; see tests/test_acceptance.py
        code, out = run(["selftest", "--criteria", "3"])
        assert code == 1
        assert "criterion 3" in out


class TestEnvConfig:
    def test_env_truncation_override(self, monkeypatch):
        monkeypatch.setenv("KF_TRUNC", "123")
        parser = cli.build_parser()
        args = parser.parse_args(["family", "--family", "exp", "--t", "1.0"])
        assert args.trunc == 123

    def test_truncation_guard(self):
        code = cli.main(["--trunc", "200000", "family", "--family", "exp",
                         "--t", "1.0", "--stats", "mean"])
        assert code == 3

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_truncation_below_one_refused(self, value, monkeypatch, capsys):
        monkeypatch.setenv("KF_TRUNC", value)
        code = cli.main(["coeff", "--family", "P", "--n", "5", "--method", "exact"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "" and "InvalidSpec" in err


# Inputs that once crashed with a traceback, printed nan/inf/-1 with exit 0,
# exited 2 on a valid request, or were run with a truncation below 1.
CONTRACT_INPUTS = [
    "family --family geom --t 1",
    "family --family bell --t 800",
    "family --family bell --t 705",  # t e^t overflows to inf without an exception
    "family --family poly:1e400,1 --t 1",
    "family --family poly:1,2,1 --t 1e200",  # c * t**n overflows
    "family --family canprod:1e-400 --t 1",  # the coefficient 1/1e-400 does not fit a float
    "family --family canprod:1e-200,1e-200 --t 1",  # nor does the product's 1e400
    "diag --family exp --t 0",
    "family --family exp --t nan",
    "family --family exp --t -1",
    "family --family exp --t inf",
    "coeff --family exp --n 3000 --method exact",  # 1/3000! has 9131 digits
    "coeff --family bell --n 2000 --method exact",
    "--trunc -3 coeff --family P --n 5 --method exact",
    "--trunc 0 family --family P --t 0.5 --stats maxterm,gap",
]
# Float overflow or division by zero inside a statistic, at valid radii.
FLOAT_RANGE_INPUTS = [
    "diag --family exp --t 1e300 --stats gratio",  # d[1] ** 1.5 overflows
    "diag --family P --t 1e-300 --stats gratio",  # the variance is 0
    "family --family binom:4 --t 1e200 --stats var",
    "family --family exp --t 1e10 --stats mgf:0.1",
    "family --family bell --t 1e10 --stats charfn:0.5",
    "diag --family expof:poly:0,1,1 --t 1e200 --stats cltsup",  # int() of an infinite mean
]
CONTRACT_INPUTS += FLOAT_RANGE_INPUTS


@pytest.mark.parametrize("line", CONTRACT_INPUTS)
def test_out_of_domain_input_exits_with_a_named_error(line, capsys):
    code = cli.main(shlex.split(line))
    out, err = capsys.readouterr()
    assert code in (2, 3)
    assert re.match(r"(error: [A-Za-z]+: |usage error: )", err)
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("line", ["coeff --family exp --n 3000 --method exact",
                                  "coeff --family bell --n 2000 --method exact"])
def test_exact_value_past_the_digit_limit_is_a_domain_error(line, capsys):
    # the request is valid: the interpreter's int-to-str limit is not a usage error
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: DomainError: ")


@pytest.mark.parametrize("line", FLOAT_RANGE_INPUTS)
def test_float_range_error_is_a_domain_error(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: DomainError: ")


def test_partition_sums_end_below_the_float_range_of_their_criterion(capsys):
    # 1e-16 times the sum underflows to 0 here, so the tail criterion cannot
    # end the loop; the first term that is exactly 0 does
    start = time.perf_counter()
    code = cli.main(["--out", "csv", "family", "--family", "P", "--t", "1e-310", "--stats", "mean"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "1e-310"
    assert elapsed < 1.0
