"""Command-line surface: verbs, formats, exit codes, determinism."""

import argparse
import cmath
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from khinfam import cli


def run(argv):
    buf = io.StringIO()
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

    def test_fixed_k_at_the_guard(self):
        # k = 64 is the largest fixed-k index; the polynomial equals the oracle
        code, out = run(["--out", "jsonl", "largepow", "--psi", "exp",
                         "--n", "1000", "--k", "64"])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["regime"] == "fixed_k"
        assert row["ratio"] == "1"
        assert float(row["exact_ln"]) == pytest.approx(64 * math.log(1000) - math.lgamma(65),
                                                       rel=1e-12)

    def test_truncated_psi_is_not_reported_as_exact(self, capsys):
        # --trunc 4 keeps e^z through z^4 only: index 10 of its powers is
        # out of reach, so no row claims an exact value
        argv = ["--trunc", "4", "largepow", "--psi", "exp", "--n", "100", "--k"]
        assert cli.main(argv + ["10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: IndexBeyondTruncation: exp is truncated at order 4 < 10")
        code, out = run(["--out", "jsonl"] + argv + ["50", "--regime", "comparable:0.1,0.9"])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["regime"] == "comparable" and row["ln"]
        assert row["exact_ln"] == row["exact"] == row["ratio"] == ""

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

    # int(m + 12 sigma) + 2, the largest over the radii: exp at t = 1000, bell
    # at 2, and binom:4 at t = 1, whose window is wider than at t = 100
    @pytest.mark.parametrize("line,order", [
        ("diag --family exp --t 10,100,1000 --stats cltsup,sgint", 1381),
        ("diag --family bell --t 2 --stats cltsup", 96),
        ("diag --family binom:4 --t 1,100 --stats cltsup", 16),
    ])
    def test_cltsup_builds_its_oracle_to_the_widest_window(self, line, order, monkeypatch,
                                                          capsys):
        built = []
        exact = cli.C.exact_coeffs

        def spy(spec, n_max):
            built.append(n_max)
            return exact(spec, n_max)

        monkeypatch.setattr(cli.C, "exact_coeffs", spy)
        assert cli.main(shlex.split(line)) == 0
        assert built == [order]
        assert capsys.readouterr().out == DIAG_STDOUT[line][1]

    @pytest.mark.parametrize("trunc", ["8", "16", "100000"])
    def test_cltsup_does_not_read_trunc(self, trunc, capsys):
        line = "diag --family binom:4 --t 1,100 --stats cltsup"
        assert cli.main(["--trunc", trunc] + line.split()) == 0
        assert capsys.readouterr().out == DIAG_STDOUT[line][1]


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

    @pytest.mark.parametrize("value", ["abc", "1e3"])
    def test_env_truncation_not_an_integer_is_a_usage_error(self, value, monkeypatch, capsys):
        # int() of it once raised outside main's error handling: a traceback, exit 1
        monkeypatch.setenv("KF_TRUNC", value)
        code = cli.main(["family", "--family", "exp", "--t", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err == f"usage error: KF_TRUNC={value!r} is not an integer\n"


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
    "family --family exp --t 1e10 --stats mgf:0.1",
    "family --family bell --t 1e10 --stats charfn:0.5",
    "diag --family expof:poly:0,1,1 --t 1e200 --stats cltsup",  # int() of an infinite mean
]
CONTRACT_INPUTS += FLOAT_RANGE_INPUTS
# A saddle target of at most 0 parses, so the estimate refuses it by name;
# these exited 2 as usage errors.
SADDLE_TARGET_INPUTS = [
    "coeff --family P --n 0 --method hayman",
    "coeff --family P --n -3 --method hayman",
    "largepow --psi poly:1,1 --n 10 --k 0 --regime limitl:0,0",
]
CONTRACT_INPUTS += SADDLE_TARGET_INPUTS


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


@pytest.mark.parametrize("line", SADDLE_TARGET_INPUTS)
def test_non_positive_saddle_target_is_a_parameter_error(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: ParameterDomain: saddle target ")


# Finite statistics of binom and bernoulli at t where a (1+t)^k form or n t
# leaves the float range; they once exited 3 with OverflowError or an
# infinite mean.
BINOMIAL_FINITE_INPUTS = [
    ("family --family binom:5 --t 1e300 --stats var,clan", ["5e-300", "4.472135955e-151"]),
    ("family --family binom:5 --t 1e300 --stats moment:2", ["25"]),
    ("family --family binom:5 --t 1e300 --stats cmoment:3", ["-5e-300"]),
    ("family --family bernoulli --t 1e200 --stats var", ["1e-200"]),
    ("family --family binom:4 --t 1e200 --stats var", ["4e-200"]),
    ("family --family binom:5 --t 1e308 --stats mean,var", ["5", "5e-308"]),
]


@pytest.mark.parametrize("line,values", BINOMIAL_FINITE_INPUTS)
def test_binomial_cumulants_past_the_float_range_exit_0(line, values, capsys):
    assert cli.main(["--out", "csv"] + shlex.split(line)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == values


def test_partition_sums_end_below_the_float_range_of_their_criterion(capsys):
    # 1e-16 times the sum underflows to 0 here, so the tail criterion cannot
    # end the loop; the first term that is exactly 0 does
    start = time.perf_counter()
    code = cli.main(["--out", "csv", "family", "--family", "P", "--t", "1e-310", "--stats", "mean"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "1e-310"
    assert elapsed < 1.0


# -- saddle estimates, pinned to the byte ------------------------------------------
#
# Every benchmark cli line whose numbers come from the Gaussian saddle body
# (asym.saddle_log): the coeff rows of hayman and baez-duarte, the saddle
# largepow regimes, and lagrange omm, power, func and general. Each maps to
# its exit code and stdout before the estimators shared the body; a moved
# last printed digit fails here.
SADDLE_STDOUT = {
    '--out csv coeff --family P --n 120 --method exact,hayman,hr': (
        0,
        'method,n,ln,value,ratio\n'
        'exact,120,ln=21.3353925103,1844349560,\n'
        'hayman,120,ln=21.349310634,1870198915.28,0.986178285599\n'
        'hr,120,ln=21.3761666759,1921105571.83,0.960045916813\n'
    ),
    '--out jsonl coeff --family Q --n 150 --method exact,hayman,bd': (
        0,
        '{"method": "exact", "n": 150, "ln": "16.7810936791", "value": "19406016", "ratio": ""}\n'
        '{"method": "hayman", "n": 150, "ln": "16.7983676037", "value": "19744146.0664", "ratio": "0.982874414258"}\n'
        '{"method": "baez-duarte", "n": 150, "ln": "16.7985761223", "value": "19748263.518", "ratio": "0.982669487994"}\n'
    ),
    'coeff --family P --n 100 --method exact,hayman,hr': (
        0,
        'method  n    ln             value          ratio         \n'
        'exact   100  19.0655264239  190569292                    \n'
        'hayman  100  19.0808339273  193508873.501  0.98480906096 \n'
        'hr      100  19.1102259118  199280893.35   0.956284813846\n'
    ),
    'coeff --family P --n 1000 --method hayman,bd,hr': (
        0,
        'method       n     ln             value              ratio\n'
        'hayman       1000  72.2628548059  2.4174588419e+31        \n'
        'baez-duarte  1000  72.2705278273  2.43607940172e+31       \n'
        'hr           1000  72.272217735   2.44019963168e+31       \n'
    ),
    'coeff --family P --n 250 --method exact,hayman,bd,hr': (
        0,
        'method       n    ln             value              ratio         \n'
        'exact        250  33.0725447228  2.30793554365e+14                \n'
        'hayman       250  33.0820630176  2.33000803415e+14  0.990526860775\n'
        'baez-duarte  250  33.0973455209  2.36588987327e+14  0.97550421502 \n'
        'hr           250  33.1007253364  2.37389967288e+14  0.972212756087\n'
    ),
    'coeff --family Pab:2,1 --n 150 --method exact,hayman,bd,ingham': (
        0,
        'method       n    ln             value          ratio         \n'
        'exact        150  16.7810936791  19406016                     \n'
        'hayman       150  16.7983676037  19744146.0664  0.982874414258\n'
        'baez-duarte  150  16.7985761223  19748263.518   0.982669487994\n'
        'ingham       150  16.7954907869  19687427.4002  0.9857060349  \n'
    ),
    'coeff --family Pab:2,2 --n 10 --method hayman': (
        0,
        'method  n   ln             value          ratio\n'
        'hayman  10  2.06391224106  7.87672525767       \n'
    ),
    'coeff --family Pab:3,2 --n 90 --method exact,hayman,closed': (
        0,
        'method  n   ln             value          ratio         \n'
        'exact   90  8.36543963619  4296                         \n'
        'hayman  90  8.39124904102  4408.32043001  0.974520810865\n'
        'ingham  90  8.40128574131  4452.78820249  0.964788758108\n'
    ),
    'coeff --family Q --n 200 --method exact,hayman,distinct': (
        0,
        'method    n    ln             value          ratio         \n'
        'exact     200  20.0039137802  487067746                    \n'
        'hayman    200  20.018826751   494385804.431  0.985197676864\n'
        'distinct  200  20.016311145   493143687.56   0.987679165904\n'
    ),
    'coeff --family Q --n 500 --method hayman,bd,distinct': (
        0,
        'method       n    ln             value              ratio\n'
        'hayman       500  34.2375106278  7.39881110558e+14       \n'
        'baez-duarte  500  34.2375731604  7.39927378696e+14       \n'
        'distinct     500  34.2358832526  7.38678025604e+14       \n'
    ),
    'coeff --family Wab:1,0 --n 70 --method exact,hayman,colored': (
        0,
        'method   n   ln             value         ratio         \n'
        'exact    70  15.223558583   4087968                     \n'
        'hayman   70  15.2420105515  4164099.2827  0.981717226817\n'
        'colored  70  15.2770677512  4312669.9627  0.947897250509\n'
    ),
    'coeff --family Wab:1,1 --n 80 --method exact,hayman,closed': (
        0,
        'method   n   ln             value              ratio         \n'
        'exact    80  32.7888209618  1.73781688195e+14                \n'
        'hayman   80  32.8001526335  1.75762124859e+14  0.988732289932\n'
        'colored  80  32.8019053335  1.76070453255e+14  0.987000856658\n'
    ),
    'coeff --family Wab:1,2 --n 40 --method exact,hayman,closed': (
        0,
        'method   n   ln             value              ratio         \n'
        'exact    40  30.1278456723  1.21438704932e+13                \n'
        'hayman   40  30.14241677    1.23221154756e+13  0.98553454699 \n'
        'colored  40  30.1398370566  1.22903689153e+13  0.988080225814\n'
    ),
    'coeff --family bell --n 120 --method exact,hayman,closed': (
        0,
        'method       n    ln              value              ratio         \n'
        'exact        120  -122.303164882  7.66320374671e-54                \n'
        'hayman       120  -122.299686993  7.68990191719e-54  0.996528152015\n'
        'moser-wyman  120  -122.299686993  7.68990191719e-54  0.996528152015\n'
    ),
    'coeff --family bell --n 50 --method exact,hayman,mw': (
        0,
        'method       n   ln              value              ratio         \n'
        'exact        50  -39.6371746192  6.1065200116e-18                 \n'
        'hayman       50  -39.6299625708  6.15071972272e-18  0.992813896079\n'
        'moser-wyman  50  -39.6299625708  6.15071972272e-18  0.992813896079\n'
    ),
    'coeff --family exp --n 30 --method exact,hayman': (
        0,
        'method  n   ln              value              ratio        \n'
        'exact   30  -74.6582363488  3.76998762882e-33               \n'
        'hayman  30  -74.6554586739  3.78047398604e-33  0.99722617924\n'
    ),
    'coeff --family exp --n 300 --method exact,hayman,bd': (
        3,
        ''
    ),
    'coeff --family expof:poly:0,1,1 --n 25 --method exact,hayman': (
        0,
        'method  n   ln              value              ratio         \n'
        'exact   25  -18.506261586   9.17978928757e-09                \n'
        'hayman  25  -18.4990010544  9.24668198253e-09  0.992765762347\n'
    ),
    'coeff --family geom --n 500 --method exact,hayman': (
        0,
        'method  n    ln               value          ratio         \n'
        'exact   500  0                1                            \n'
        'hayman  500  0.0810617994239  1.08443791213  0.922136702167\n'
    ),
    'coeff --family negbinom:3 --n 40 --method exact,hayman': (
        0,
        'method  n   ln             value          ratio         \n'
        'exact   40  6.75809450443  861                          \n'
        'hayman  40  6.78591777049  885.292209278  0.972560236017\n'
    ),
    'coeff --family setsoflists --n 30 --method exact,hayman': (
        0,
        'method  n   ln             value          ratio         \n'
        'exact   30  6.61527511882  746.410053546                \n'
        'hayman  30  6.65116184338  773.682701676  0.964749569725\n'
    ),
    'largepow --psi bell --n 30 --k 60 --regime auto': (
        0,
        'regime      n   k   ln             value              exact_ln       exact              ratio         \n'
        'comparable  30  60  46.6656146067  1.84764664746e+20  46.6628336302  1.84251552365e+20  0.997222886845\n'
    ),
    'largepow --psi binom:2 --n 150 --k 120 --regime auto': (
        0,
        'regime      n    k    ln            value              exact_ln       exact              ratio        \n'
        'comparable  150  120  198.84622851  2.27939603872e+86  198.845348882  2.27739190052e+86  0.99912075911\n'
    ),
    'largepow --psi binom:3 --n 200 --k 150 --regime auto': (
        0,
        'regime      n    k    ln             value               exact_ln       exact               ratio         \n'
        'comparable  200  150  334.120671627  1.27868619815e+145  334.120069776  1.27791685111e+145  0.999398330065\n'
    ),
    'largepow --psi binom:4 --n 100 --k 150 --regime auto': (
        0,
        'regime      n    k    ln             value               exact_ln       exact               ratio         \n'
        'comparable  100  150  261.436040898  3.46920475075e+113  261.435360343  3.46684457071e+113  0.999319676927\n'
    ),
    'largepow --psi exp --n 500 --k 12 --regime smallk': (
        0,
        'regime   n    k   ln             value              exact_ln       exact              ratio         \n'
        'small_k  500  12  54.5950255255  5.13237434119e+23  54.5880826854  5.09686449899e+23  0.993081205726\n'
    ),
    'largepow --psi exp --n 60 --k 80 --regime auto': (
        0,
        'regime      n   k   ln             value              exact_ln       exact              ratio         \n'
        'comparable  60  80  53.8754823533  2.49933629456e+23  53.8744406921  2.49673418831e+23  0.998958881099\n'
    ),
    'largepow --psi geom --n 40 --k 100 --regime auto': (
        0,
        'regime      n   k    ln             value              exact_ln       exact              ratio         \n'
        'comparable  40  100  79.9098372915  5.06292373511e+34  79.9075159081  5.05118437898e+34  0.997681308916\n'
    ),
    'largepow --psi poly:1,1 --n 100 --k 60 --regime comparable:0.1,0.9': (
        0,
        'regime      n    k   ln             value             exact_ln       exact              ratio         \n'
        'comparable  100  60  64.7932012525  1.3782556098e+28  64.7905624171  1.37462341458e+28  0.997364643253\n'
    ),
    'largepow --psi poly:1,1 --n 1000 --k 500 --regime auto': (
        0,
        'regime      n     k    ln             value               exact_ln       exact               ratio         \n'
        'comparable  1000  500  689.467511568  2.70355821442e+299  689.467261568  2.70288240945e+299  0.999750031289\n'
    ),
    'largepow --psi poly:1,1 --n 200 --k 100 --regime auto': (
        0,
        'regime      n    k    ln             value              exact_ln       exact              ratio         \n'
        'comparable  200  100  135.754486076  9.06617705978e+58  135.753236081  9.05485146561e+58  0.998750786126\n'
    ),
    'largepow --psi poly:1,1 --n 400 --k 200 --regime auto': (
        0,
        'regime      n    k    ln             value               exact_ln       exact               ratio         \n'
        'comparable  400  200  274.037348598  1.03016865493e+119  274.036723598  1.02952500135e+119  0.999375195922\n'
    ),
    'largepow --psi poly:1,1,1 --n 200 --k 120 --regime auto': (
        0,
        'regime      n    k    ln             value              exact_ln       exact              ratio         \n'
        'comparable  200  120  191.681341349  1.76257997495e+83  191.680207323  1.76058229703e+83  0.998866617149\n'
    ),
    'largepow --psi poly:1,2,1 --n 150 --k 120 --regime auto': (
        0,
        'regime      n    k    ln            value              exact_ln       exact              ratio        \n'
        'comparable  150  120  198.84622851  2.27939603872e+86  198.845348882  2.27739190052e+86  0.99912075911\n'
    ),
    '--out csv lagrange --op omm --psi Q --n 50': (
        0,
        'op,n,ln,value\n'
        'omm,50,ln=67.1297802807,1.42591339002e+29\n'
    ),
    'lagrange --op func --psi exp --h exp --n 25': (
        0,
        'op             n   ln             value        \n'
        'lagrange-func  25  20.2527477295  624678533.821\n'
    ),
    'lagrange --op func --psi geom --h bell --n 40': (
        0,
        'op             n   ln             value            \n'
        'lagrange-func  40  49.1085172303  2.12597448281e+21\n'
    ),
    'lagrange --op general --psi exp --t 0.5 --s 1 --j 2 --n 50': (
        0,
        'op          n   ln              value            \n'
        'lagrangian  50  -14.3648905277  5.77307647668e-07\n'
    ),
    'lagrange --op general --psi geom --t 0.4 --s 1 --h exp --n 30': (
        0,
        'op          n   ln              value            \n'
        'lagrangian  30  -7.11882448027  0.000809718031411\n'
    ),
    'lagrange --op omm --psi P --n 30': (
        0,
        'op   n   ln             value           \n'
        'omm  30  42.8345486402  4.0068963588e+18\n'
    ),
    'lagrange --op omm --psi bell --n 30': (
        0,
        'op   n   ln             value            \n'
        'omm  30  33.0984786459  2.36857224176e+14\n'
    ),
    'lagrange --op omm --psi binom:2 --n 25': (
        0,
        'op   n   ln             value            \n'
        'omm  25  29.2566803478  5.08176799646e+12\n'
    ),
    'lagrange --op omm --psi exp --n 20': (
        0,
        'op   n   ln             value        \n'
        'omm  20  14.5874630565  2163987.31362\n'
    ),
    'lagrange --op omm --psi geom --n 40': (
        0,
        'op   n   ln             value            \n'
        'omm  40  47.9597959596  6.74023034192e+20\n'
    ),
    'lagrange --op power --psi exp --q 2 --n 30': (
        0,
        'op              n   ln             value      \n'
        'lagrange-power  30  24.6724125749  51891071256\n'
    ),
    'lagrange --op power --psi geom --q 3 --n 60': (
        0,
        'op              n   ln             value            \n'
        'lagrange-power  60  74.7898034474  3.02551241811e+32\n'
    ),
}


@pytest.mark.parametrize("line", SADDLE_STDOUT)
def test_saddle_stdout_is_pinned(line, capsys):
    code = cli.main(shlex.split(line))
    assert (code, capsys.readouterr().out) == SADDLE_STDOUT[line]


# Lines outside the benchmark pool where the partition sums for ln f, m and
# sigma^2 run longest (10^4 to 10^5 terms a sum), each mapped to its exit
# code and stdout before those loops ran over the part range.
LONG_SUM_STDOUT = {
    'coeff --family P --n 100000 --method hayman,bd,hr': (
        0,
        'method       n       ln             value  ratio\n'
        'hayman       100000  797.70627005               \n'
        'baez-duarte  100000  797.707040234              \n'
        'hr           100000  797.707209224              \n'
    ),
    'coeff --family Wab:1,1 --n 20000 --method hayman,bd': (
        0,
        'method       n      ln             value  ratio\n'
        'hayman       20000  1472.23165297              \n'
        'baez-duarte  20000  1472.23169636              \n'
    ),
    'coeff --family Wab:1,2 --n 5000 --method hayman': (
        0,
        'method  n     ln             value  ratio\n'
        'hayman  5000  1258.85963617              \n'
    ),
    'family --family Q --t 0.999 --stats mean,var,clan': (
        0,
        'stat  ln              value          \n'
        'mean  13.6190632122   821644.593263  \n'
        'var   21.219465514    1642467488.21  \n'
        'clan  -3.00933045523  0.0493246927973\n'
    ),
    'family --family Pab:3,2 --t 0.9999 --stats mean,var': (
        0,
        'stat  ln             value            \n'
        'mean  17.8196383545  54823985.8687    \n'
        'var   27.723091105   1.09644155831e+12\n'
    ),
}


@pytest.mark.parametrize("line", LONG_SUM_STDOUT)
def test_long_partition_sums_stdout_is_pinned(line, capsys):
    code = cli.main(shlex.split(line))
    assert (code, capsys.readouterr().out) == LONG_SUM_STDOUT[line]


# Exit code and stdout of the cli-pool lines that print or read a partition
# oracle: the exact rows of Q and P, and criterion 4, whose ratios read the Q
# and Wab:1,1 oracles at order 500.
ORACLE_STDOUT = {
    'coeff --family Q --n 60 --method exact,closed': (
        0,
        'method    n   ln             value          ratio        \n'
        'exact     60  9.29468152041  10880                       \n'
        'distinct  60  9.31792360713  11135.8354618  0.97702593014\n'
    ),
    'coeff --family P --n 80 --method exact,wright': (
        0,
        'method        n   ln             value              ratio            \n'
        'exact         80  16.5752974351  15796476                            \n'
        'wright_plane  80  32.8019053335  1.76070453255e+14  8.97167906822e-08\n'
    ),
    'selftest --criteria 4': (
        0,
        "PASS criterion 4: distinct and plane partition closed forms (distinct "
        "['1.0262', '1.0180', '1.0125', '1.0078']; plane ['1.0181', '1.0113', "
        "'1.0071', '1.0038']; distinct band; plane band)\n"
        '1/1 criteria passed\n'
    ),
}


@pytest.mark.parametrize("line", ORACLE_STDOUT)
def test_oracle_stdout_is_pinned(line, capsys):
    code = cli.main(shlex.split(line))
    assert (code, capsys.readouterr().out) == ORACLE_STDOUT[line]


# Exit code and stdout of the diag lines that read an exact oracle through
# cltsup: the README's line, the cli pool's five, and three whose oracle at
# --trunc's default 4,096 took seconds (bell 11.5 s, setsoflists 4.4 s).
DIAG_STDOUT = {
    'diag --family exp --t 10,100,1000 --stats cltsup,sgint': (
        0,
        't     cltsup           sgint          \n'
        '10    0.0763987568586  0.215634849584 \n'
        '100   0.0235323599522  0.0668031467979\n'
        '1000  0.0073299623834  0.0210861298823\n'
    ),
    'diag --family bell --t 2 --stats cltsup': (
        0,
        't  cltsup        \n'
        '2  0.150297381399\n'
    ),
    'diag --family binom:4 --t 1,100 --stats cltsup': (
        0,
        't    cltsup         \n'
        '1    0.0600143970134\n'
        '100  0.503204514327 \n'
    ),
    '--trunc 256 diag --family bell --t 2,3 --stats cltsup,gratio': (
        0,
        't  cltsup           gratio        \n'
        '2  0.150297381399   0.550682560835\n'
        '3  0.0766340076272  0.305957612812\n'
    ),
    '--trunc 128 diag --family geom --t 0.3,0.5 --stats cltsup,gratio': (
        0,
        't    cltsup          gratio       \n'
        '0.3  0.512228872871  2.37346441586\n'
        '0.5  0.993653067834  2.12132034356\n'
    ),
    '--trunc 1024 diag --family exp --t 30 --stats cltsup': (
        0,
        't   cltsup         \n'
        '30  0.0438193191781\n'
    ),
    '--trunc 2048 diag --family exp --t 100,200 --stats cltsup,gratio': (
        0,
        't    cltsup           gratio         \n'
        '100  0.0235323599522  0.1            \n'
        '200  0.0165437415899  0.0707106781187\n'
    ),
    'diag --family P --t 0.95 --stats cltsup': (
        0,
        't     cltsup         \n'
        '0.95  0.0965396004565\n'
    ),
    'diag --family setsoflists --t 0.5 --stats cltsup': (
        0,
        't    cltsup       \n'
        '0.5  1.54223383416\n'
    ),
}


@pytest.mark.parametrize("line", DIAG_STDOUT)
def test_diag_stdout_is_pinned(line, capsys):
    code = cli.main(shlex.split(line))
    assert (code, capsys.readouterr().out) == DIAG_STDOUT[line]


# `khinfam --help` (key "") and each verb's --help at 80 columns.
HELP_STDOUT = {
    '': (
        'usage: khinfam [-h] [--trunc TRUNC] [--out {table,csv,jsonl}] [--seed SEED]\n'
        '               {coeff,family,largepow,lagrange,diag,selftest} ...\n'
        '\n'
        'Exact coefficients and saddle-point asymptotics of power series with non-\n'
        'negative coefficients.\n'
        '\n'
        'positional arguments:\n'
        '  {coeff,family,largepow,lagrange,diag,selftest}\n'
        '    coeff               coefficient estimates for a catalog family\n'
        '    family              pointwise statistics of a family\n'
        '    largepow            coefficients of large powers psi^n\n'
        '    lagrange            Lagrange-equation and progeny asymptotics\n'
        '    diag                Gaussianity diagnostics over a radius grid\n'
        '    selftest            run the acceptance criteria\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --trunc TRUNC         coefficient truncation order (env KF_TRUNC)\n'
        '  --out {table,csv,jsonl}\n'
        '  --seed SEED           sampler seed\n'
        '\n'
        'Column order is fixed per verb: coeff -> method,n,ln,value,ratio; family ->\n'
        'stat,ln,value; largepow -> regime,n,k,ln,value,exact_ln,exact,ratio; lagrange\n'
        '-> op,n,ln,value[,extra]; diag -> t followed by the requested stats. CSV\n'
        'renders log columns as ln=<digits> and decimals with 12 significant digits.\n'
    ),
    'coeff': (
        'usage: khinfam coeff [-h] --family FAMILY --n N [--method METHOD]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --family FAMILY\n'
        '  --n N\n'
        '  --method METHOD  comma list:\n'
        '                   exact,hayman,bd,closed,hr,distinct,ingham,wright,colored,mw\n'
    ),
    'family': (
        'usage: khinfam family [-h] --family FAMILY --t T [--stats STATS]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --family FAMILY\n'
        '  --t T\n'
        '  --stats STATS    comma list: mean,var,clan,mass:N,moment:K,cmoment:K,fmoment\n'
        '                   :J,charfn:THETA,mgf:LAMBDA,zerofree,maxterm,gap,qgcd\n'
    ),
    'largepow': (
        'usage: khinfam largepow [-h] --psi PSI --n N --k K [--h H] [--regime REGIME]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --psi PSI\n'
        '  --n N\n'
        '  --k K\n'
        '  --h H            optional prefactor family\n'
        '  --regime REGIME  auto | comparable:A,B | limitl:L,W | boundary[:W] | smallk\n'
        '                   | smallkref:J | fixedk | largek\n'
    ),
    'lagrange': (
        'usage: khinfam lagrange [-h]\n'
        '                        [--op {apex,omm,power,func,bt,btasym,pp,ppasym,general,sample}]\n'
        '                        [--psi PSI] [--h H] [--n N] [--q Q] [--j J] [--t T]\n'
        '                        [--s S] [--trials TRIALS]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --op {apex,omm,power,func,bt,btasym,pp,ppasym,general,sample}\n'
        '  --psi PSI\n'
        '  --h H                 outer/initial series for func/general\n'
        '  --n N\n'
        '  --q Q\n'
        '  --j J\n'
        '  --t T\n'
        '  --s S\n'
        '  --trials TRIALS\n'
    ),
    'diag': (
        'usage: khinfam diag [-h] --family FAMILY --t T [--stats STATS]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --family FAMILY\n'
        '  --t T            comma list of radii\n'
        '  --stats STATS    comma list: cltsup,sgint,gratio,cuts[:H]\n'
    ),
    'selftest': (
        'usage: khinfam selftest [-h] [--criteria CRITERIA]\n'
        '\n'
        'options:\n'
        '  -h, --help           show this help message and exit\n'
        '  --criteria CRITERIA  comma list of criterion numbers\n'
    ),
}


@pytest.mark.parametrize("verb", HELP_STDOUT)
def test_help_is_pinned(verb, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--help"] if verb else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_STDOUT[verb]


def outcome(argv):
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# A command builds the subparser of its verb only. These argv reach every
# place argparse prints from: help before and after a verb, no verb or an
# unknown one, a token before the verb that is not a global option, a global
# option's value that fails or looks like a verb or an option, and errors
# inside and after the verb's own arguments.
PARSER_CORPUS = [
    "", "-h", "--help", "-h coeff", "--help family", "--seed 1 -h largepow",
    *(f"{verb} -h" for verb in cli.VERBS), "lagrange --help --op bogus",
    "bogus", "bogus coeff", "--bogus coeff --family P --n 5", "-5 coeff", "'' coeff",
    "-hx coeff", "-- coeff --family P --n 5", "--tr 5 coeff --family P --n 5",
    "--trunc x coeff --family P --n 5", "--trunc= coeff --family P --n 5",
    "--out xml family --family exp --t 1", "--seed 1.5 selftest",
    "--trunc coeff family --family exp --t 1", "--out --trunc coeff --family P --n 5",
    "--trunc -- coeff --family P --n 5", "--trunc -h coeff --family P --n 5", "--trunc",
    "coeff --family P --n 5 --bogus", "coeff --family P --n 5 --trunc 7", "coeff --n 5",
    "coeff coeff --family P --n 5", "family --family exp --t x", "lagrange --op bogus",
    "diag --family exp", "selftest --criteria",
    "--trunc=64 --out csv coeff --family P --n 50 --method exact,hayman",
    "--seed 3 --trunc -3 lagrange --op bt --t 0.5 --n 3",
    "--out jsonl family --family exp --t 1", "largepow --psi exp --n 100 --k 10",
    "diag --family geom --t 0.5 --stats sgint,gratio",
]


@pytest.mark.parametrize("line", PARSER_CORPUS)
def test_lone_subparser_prints_what_the_full_tree_prints(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = shlex.split(line)
    got = outcome(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_verb_of", lambda argv: None)  # every verb's subparser
        assert got == outcome(argv)


_USAGE = (
    "usage: khinfam [-h] [--trunc TRUNC] [--out {table,csv,jsonl}] [--seed SEED]\n"
    "               {coeff,family,largepow,lagrange,diag,selftest} ...\n"
)
# The full tree names its verb action "verb" (a metavar would rename it) and
# lists every verb as a choice.
FULL_TREE_STDERR = {
    "": _USAGE + "khinfam: error: the following arguments are required: verb\n",
    "bogus coeff": _USAGE + (
        "khinfam: error: argument verb: invalid choice: 'bogus' (choose from 'coeff', "
        "'family', 'largepow', 'lagrange', 'diag', 'selftest')\n"),
    "--trunc x coeff": _USAGE + "khinfam: error: argument --trunc: invalid int value: 'x'\n",
}


@pytest.mark.parametrize("line", FULL_TREE_STDERR)
def test_parser_errors_are_pinned(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(shlex.split(line)) == (2, "", FULL_TREE_STDERR[line])


def test_a_command_builds_only_its_verbs_subparser(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run(["coeff", "--family", "P", "--n", "5", "--method", "exact"])[0] == 0
    assert built == ["coeff"]
    # and builds it again for the next command: no parser outlives a call
    assert run(["coeff", "--family", "Q", "--n", "5", "--method", "exact"])[0] == 0
    assert built == ["coeff", "coeff"]


# One command per verb as its own process, where main reads sys.argv.
ONE_SHOT = [
    "coeff --family P --n 100 --method exact,hayman,hr",
    "family --family exp --t 3 --stats mass:5,maxterm",
    "largepow --psi exp --n 100 --k 10",
    "lagrange --op omm --psi geom --n 40",
    "diag --family geom --t 0.5 --stats sgint,gratio",
    "selftest --criteria 1",
    "-h coeff",
]


@pytest.mark.parametrize("line", ONE_SHOT)
def test_one_shot_process_prints_what_main_prints(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(cli.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = shlex.split(line)
    proc = subprocess.run([sys.executable, "-m", "khinfam.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome(argv)


# Sums whose terms each overflow a float, although their log is finite: the
# derivative of H = e^{1000 z^2} at the apex tau = 1 of psi = 1 + z^2. H and
# psi both live on the even indices: each ln is that of H = e^{1000 z}
# (1034.77814127 and 0.120782237635) plus ln 2 for H'(1) and ln 2 for the
# lattice lead.
@pytest.mark.parametrize("line,ln", [
    ("lagrange --op func --psi poly:1,0,1 --h expof:poly:0,0,1000 --n 50", "1036.16443563"),
    ("lagrange --op general --psi poly:1,0,1 --h expof:poly:0,0,1000 --n 50", "1.50707659876"),
])
def test_derivative_past_the_float_range_is_taken_in_logs(line, ln, capsys):
    assert cli.main(shlex.split(line)) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[1:3] == ["50", ln]


@pytest.mark.parametrize("line", [
    "lagrange --op power --psi exp --q 5 --n 3",  # [z^3] g^5 = 0
    "lagrange --op btasym --t 0.5 --j 3 --n 2",
    "lagrange --op general --psi exp --t 0.5 --s 1 --j 5 --n 2",
    "lagrange --op bt --t 0.5 --j 3 --n 2",
])
def test_index_below_the_initial_size_is_refused(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: IndexBelowJ: ")


def test_power_off_the_support_lattice_is_a_zero_coefficient(capsys):
    # psi = 1 + z^2 has support gcd 2 and n - q = 29 is odd: [z^31] g^2 = 0
    assert cli.main(shlex.split("lagrange --op power --psi poly:1,0,1 --q 2 --n 31")) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ZeroCoefficient: ")


def test_borel_tanner_asym_refuses_an_empty_initial_size(capsys):
    assert cli.main(shlex.split("lagrange --op btasym --t 0.5 --j 0 --n 3")) == 2
    assert capsys.readouterr().err == "usage error: initial size j must be >= 1\n"


@pytest.mark.parametrize("op", ["omm", "func --h exp", "general"])
def test_index_zero_is_a_usage_error(op, capsys):
    assert cli.main(shlex.split(f"lagrange --op {op} --psi exp --t 0.5 --n 0")) == 2
    assert capsys.readouterr().err == "usage error: n must be >= 1\n"


def test_exact_power_over_budget_refused_unbuilt(monkeypatch, capsys):
    # (k+1)^2 * 2 * bitlen(n) is 2e11 multiplies: the 4096-order oracle of
    # Wab:1,2 would take half a minute to build only to be refused
    def spy(spec, n_max):
        raise AssertionError(f"exact_coeffs({spec.key()}, {n_max}) called")

    monkeypatch.setattr(cli.C, "exact_coeffs", spy)
    code = cli.main(["largepow", "--psi", "Wab:1,2", "--n", "1000", "--k", "100000"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].split() == ["large_k", "1000", "100000", "67271.806371"]
