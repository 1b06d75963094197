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
import signal
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

    def test_exact_column_is_capped_by_trunc(self, capsys):
        # p(1000) needs the oracle through index 1000; a cap of 8 refuses it
        assert cli.main(shlex.split("--trunc 8 coeff --family P --n 1000 --method exact")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: IndexBeyondTruncation: P is truncated at order 8")
        code, out = run(shlex.split("--trunc 1000 coeff --family P --n 1000 --method exact"))
        assert code == 0 and out.splitlines()[1].split()[3] == "2.4061467864e+31"

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

    @pytest.mark.parametrize("psi,shape", [("poly:1,1", "a=1 b=1"), ("bernoulli", "a=1 b=1"),
                                           ("poly:2,1/3", "a=2 b=1/3")])
    def test_linear_apex_prints_its_coefficients(self, psi, shape):
        # psi = a + b z has tau = inf, which printed as "linear tau=inf"
        code, out = run(["--out", "csv", "lagrange", "--op", "apex", "--psi", psi])
        assert (code, out.splitlines()[1]) == (0, f"apex,,,linear {shape}")

    @pytest.mark.parametrize("op", ["pp", "ppasym"])
    def test_poisson_progeny_needs_n_at_least_one(self, op, capsys):
        assert cli.main(["lagrange", "--op", op, "--n", "0"]) == 2
        assert capsys.readouterr() == ("", "usage error: n must be >= 1\n")

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

    # each radius asks for its window top int(m + 10 sigma) + 1, and the
    # oracle builds when an ask passes what it keeps: exp at t = 10, 100 and
    # 1000; bell at 2; binom:4 at t = 1, whose window holds t = 100's
    @pytest.mark.parametrize("line,order", [
        ("diag --family exp --t 10,100,1000 --stats cltsup,sgint", [42, 201, 1317]),
        ("diag --family bell --t 2 --stats cltsup", [82]),
        ("diag --family binom:4 --t 1,100 --stats cltsup", [13]),
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
        assert built == order
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
    def test_truncation_guard(self):
        code = cli.main(["--trunc", "200000", "family", "--family", "exp",
                         "--t", "1.0", "--stats", "mean"])
        assert code == 3


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
    "family --family P:junk --t 0.5 --stats mean",  # printed P's mean
    "coeff --family exp:7 --n 5 --method exact",  # printed exp's 1/120
]
# Float overflow or division by zero inside a statistic, at valid radii.
FLOAT_RANGE_INPUTS = [
    "diag --family exp --t 1e300 --stats gratio",  # the variance ** 1.5 overflows
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
    "coeff --family P --n -1 --method bd",  # a TypeError escaped
    "coeff --family bell --n 0 --method bd",  # usage error: math domain error
]
CONTRACT_INPUTS += SADDLE_TARGET_INPUTS
# A result that evaluates to nan or inf at valid arguments; these printed it
# with exit 0.
NAN_CELL_INPUTS = [
    ("diag --family bell --t 700 --stats sgint", "sgint at t=700.0 is nan"),
    ("diag --family bell --t 700 --stats gratio", "gratio at t=700.0 is nan"),
    ("diag --family bell --t 700 --stats cuts", "minor at t=700.0 is nan"),
    ("lagrange --op pp --s inf", "pp-pmf is nan"),
    ("lagrange --op ppasym --t 1e-300 --s 1e300 --n 2", "ln is inf"),
]
CONTRACT_INPUTS += [line for line, _ in NAN_CELL_INPUTS]
# A tilt outside its family's radius, or nan; these ran a partition sum to
# its term limit (TruncationTooLarge) or leaked a math domain error.
TILT_RADIUS_INPUTS = [
    "lagrange --op general --psi P --t nan --j 1 --n 10",
    "lagrange --op general --psi P --t -0.5 --j 1 --n 10",
    "lagrange --op general --psi geom --t 0.3 --s nan --h P --n 10",
    "lagrange --op general --psi exp --t -1 --j 1 --n 10",
    "family --family P --t 0.5 --stats mgf:nan",
]
CONTRACT_INPUTS += TILT_RADIUS_INPUTS


@pytest.mark.parametrize("line", CONTRACT_INPUTS)
def test_out_of_domain_input_exits_with_a_named_error(line, capsys):
    code = cli.main(shlex.split(line))
    out, err = capsys.readouterr()
    assert code in (2, 3)
    assert re.match(r"(error: [A-Za-z]+: |usage error: )", err)
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("line", TILT_RADIUS_INPUTS)
def test_a_tilt_outside_the_radius_is_refused_before_it_is_evaluated(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: RadiusOutOfRange: ")


@pytest.mark.parametrize("line", ["coeff --family exp --n 3000 --method exact",
                                  "coeff --family bell --n 2000 --method exact"])
def test_exact_value_past_the_digit_limit_is_a_domain_error(line, capsys):
    # the request is valid: the interpreter's int-to-str limit is not a usage error
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: DomainError: ")


def test_a_long_exact_value_is_blank_beside_an_estimate(capsys):
    # the whole command was DomainError, so the hayman row was never printed;
    # the exact row keeps its ln, which the ratio reads
    assert cli.main(["--out", "csv"] + shlex.split(
        "coeff --family bell --n 2000 --method exact,hayman")) == 0
    out, err = capsys.readouterr()
    exact, hayman = (row.split(",") for row in out.splitlines()[1:])
    assert err == "" and exact[:4] == ["exact", "2000", "ln=-3192.36524947", ""]
    assert hayman[0] == "hayman" and hayman[4] == "0.99969403604"


@pytest.mark.parametrize("line", FLOAT_RANGE_INPUTS)
def test_float_range_error_is_a_domain_error(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: DomainError: ")


@pytest.mark.parametrize("line", SADDLE_TARGET_INPUTS)
def test_non_positive_saddle_target_is_a_parameter_error(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: ParameterDomain: saddle target ")


@pytest.mark.parametrize("line,what", NAN_CELL_INPUTS)
def test_a_nan_or_inf_result_is_a_domain_error_naming_it(line, what, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err == f"error: DomainError: {what}\n"


@pytest.mark.parametrize("line,row", [
    ("coeff --family binom:2 --n 1000000000 --method exact", "exact,1000000000,,0,"),
    ("--trunc 8 coeff --family binom:40 --n 1000000000 --method exact", "exact,1000000000,,0,"),
    ("family --family binom:2 --t 1 --stats mass:1000000000", "mass:1000000000,,0"),
])
def test_a_zero_past_a_polynomial_degree_builds_no_window(line, row, monkeypatch):
    # a window through n would hold n + 1 coefficients
    def spy(spec, n_max):
        raise AssertionError(f"exact_coeffs({spec.key()}, {n_max}) called")

    monkeypatch.setattr(cli.C, "exact_coeffs", spy)
    code, out = run(["--out", "csv"] + shlex.split(line))
    assert (code, out.splitlines()[1]) == (0, row)


# -- closed forms read the family's Mellin record ---------------------------------


def _csv_rows(line):
    code, out = run(["--out", "csv"] + shlex.split(line))
    assert code == 0
    return [row.split(",") for row in out.splitlines()[1:]]


@pytest.mark.parametrize("family, reduced", [
    ("Pab:2,2", "coeff --family P --n 5 --method hr"),
    ("Wab:2,1", "coeff --family Wab:1,1 --n 5 --method colored"),
])
def test_closed_form_on_a_lattice_is_the_reduced_family_at_n_over_g(family, reduced):
    # parts 2, 4, 6, ... count at 10 what parts 1, 2, 3, ... count at 5; both exited 3
    [row] = _csv_rows(f"coeff --family {family} --n 10 --method closed")
    [want] = _csv_rows(reduced)
    assert row[1:] == ["10"] + want[2:]


@pytest.mark.parametrize("family", ["Pab:2,2", "Wab:2,1"])
def test_closed_form_off_the_lattice_is_refused(family, capsys):
    assert cli.main(["coeff", "--family", family, "--n", "11", "--method", "closed"]) == 3
    assert capsys.readouterr().err.startswith("error: QGcdViolation: ")


def test_closed_form_past_the_zeta_prime_table_is_refused_while_bd_answers(capsys):
    assert cli.main(shlex.split("coeff --family Wab:1,3 --n 50 --method closed")) == 3
    assert capsys.readouterr().err.startswith("error: UnsupportedOrder: ")
    # the approximate laws read only alpha and K
    assert cli.main(shlex.split("coeff --family Wab:1,3 --n 50 --method bd")) == 0


@pytest.mark.parametrize("line", ["coeff --family Pab:2,1 --n 10 --method colored",
                                  "coeff --family Wab:3,1 --n 10 --method ingham"])
def test_parametric_closed_form_of_another_variant_is_refused(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    assert capsys.readouterr().err.startswith("error: InvalidSpec: ")


# -- family --stats maxterm reads an oracle past its window -------------------------


@pytest.mark.parametrize("line, want", [
    # each printed the truncation edge, n=512, with exit 0
    ("family --family P --t 0.95 --stats maxterm", "n=586 ln=23.709324637"),
    ("family --family exp --t 600 --stats maxterm", "n=599 ln=595.88245775"),  # ties n=600
])
def test_maxterm_is_the_largest_term_not_the_window_edge(line, want):
    [row] = _csv_rows(line)
    assert row[2] == want


def test_maxterm_past_the_truncation_guard_is_refused(capsys):
    assert cli.main(shlex.split("family --family exp --t 1e5 --stats maxterm")) == 3
    assert capsys.readouterr().err.startswith("error: WindowTooNarrow: ")


@pytest.mark.parametrize("line", [
    # exp at t = 30 peaks at n = 29, 30; the scan to the mean, 31, passes a
    # cap of 8. This printed n=8, then n=30 once the window outgrew --trunc
    "--trunc 8 family --family exp --t 30 --stats maxterm",
])
def test_maxterm_window_past_trunc_is_refused(line, capsys):
    assert cli.main(shlex.split(line)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: WindowTooNarrow: the window of exp at t=30.0 reaches 31")
    assert "--trunc" in err


# Sums past the fourth moment read the law's window; these summed a window
# of 512 and printed 4.26e9, 1.81e14 and 1.02e11 with exit 0.
def test_high_moment_of_exp_far_out_is_right():
    # E[X^5] of Poisson(600) = sum_j S(5, j) 600^j
    [row] = _csv_rows("family --family exp --t 600 --stats moment:5")
    assert row[2] == f"{79_061_405_400_600:.12g}"


def test_high_moments_of_geom_near_the_radius_are_right_or_refused(capsys):
    line = "family --family geom --t 0.99 --stats moment:6,cmoment:5"
    # the default cap, 4096, cuts the window the sixth moment needs
    assert cli.main(shlex.split(line)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: WindowTooNarrow: ") and "--trunc" in err
    rows = _csv_rows("--trunc 100000 " + line)
    assert [r[2] for r in rows] == ["6.95133906014e+14", "429089750100"]


def test_factorial_moment_past_the_cap_is_refused_not_truncated(capsys):
    # 120 * 999^5 = 1.194e17; the window of 512 gave 1.9e12
    code = cli.main(shlex.split("family --family geom --t 0.999 --stats fmoment:5"))
    out, err = capsys.readouterr()
    if code == 0:
        assert float(out.split()[-1]) == pytest.approx(120 * 999**5, rel=1e-10)
    else:
        assert code == 3 and out == "" and err.startswith("error: WindowTooNarrow: ")


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("line, order", [
    # these built their oracles to m + 12 sigma, whatever the cap, in 100 s and 35 s
    ("family --family Wab:1,1 --t 0.95 --stats maxterm", 17813),
    ("family --family Q --t 0.99 --stats maxterm", 8143),
])
def test_maxterm_past_the_default_cap_is_refused_at_once(line, order, capsys):
    start = time.perf_counter()
    with _deadline(10.0):
        code = cli.main(shlex.split(line))
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: WindowTooNarrow: ")
    assert f"reaches {order}" in err and "--trunc" in err
    assert elapsed < 2.0


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


# Variances of polynomial families far out. E[X^2] - m^2 cancelled there:
# poly:1,2,1 (binom:2's function) printed a wrong or negative variance with
# exit 0, and clan and zerofree exited 2 with a math domain error. expof of a
# degree-1 g took t^2 g''(t) = inf * 0.0, a nan variance.
POLYNOMIAL_VARIANCE_INPUTS = [
    ("family --family poly:1,2,1 --t 1e8 --stats var", ["1.99999996e-08"]),
    ("family --family poly:1,2,1 --t 1e16 --stats var,clan,zerofree",
     ["2e-16", "7.07106781187e-09", "111072073.454"]),
    ("family --family poly:1,2,1 --t 1e100 --stats var", ["2e-100"]),
    ("family --family canprod:1,2,3 --t 1e16 --stats var", ["6e-16"]),
    ("family --family expof:poly:0,1 --t 1e200 --stats var", ["1e+200"]),
]


@pytest.mark.parametrize("line,values", POLYNOMIAL_VARIANCE_INPUTS)
def test_polynomial_variances_far_out_exit_0(line, values, capsys):
    assert cli.main(["--out", "csv"] + shlex.split(line)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == values


def test_polynomial_variance_prints_what_the_closed_form_prints(capsys):
    for e in range(4, 101, 4):
        lines = [f"family --family {f} --t 1e{e} --stats var,clan" for f in ("poly:1,2,1", "binom:2")]
        outs = []
        for line in lines:
            assert cli.main(shlex.split(line)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], e


def test_partition_sums_end_below_the_float_range_of_their_criterion(capsys):
    # 1e-16 times the sum underflows to 0 here, so the tail criterion cannot
    # end the loop; the first term that is exactly 0 does
    start = time.perf_counter()
    code = cli.main(["--out", "csv", "family", "--family", "P", "--t", "1e-310", "--stats", "mean"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "1e-310"
    assert elapsed < 1.0


# -- stdout of lines outside the benchmark pool, pinned to the byte -------------
#
# tests/test_pool_refs.py replays every cli-pool line against
# perfbench/refs/cli.json (exit code, stdout bytes, error name), so the
# tables below pin only lines the pool does not run.
#
# The partition sums for ln f, m and sigma^2 at their longest (10^4 to 10^5
# terms a sum), each line mapped to its exit code and stdout.
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


# Exit code and stdout of diag lines that read an exact oracle through
# cltsup. The README's line is a pool line too; it stays because the cltsup
# spy tests above compare against it, as they do against bell at 2 and
# binom:4, whose output --trunc must not change. bell at 2, P at 0.95 and
# setsoflists at 0.5 are the lines whose oracle, built to a fixed order of
# 4,096, took seconds (bell 11.5 s, setsoflists 4.4 s).
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
        '  --trunc TRUNC         largest coefficient order an oracle may build\n'
        '  --out {table,csv,jsonl}\n'
        '  --seed SEED           sampler seed\n'
        '\n'
        'Column order is fixed per verb: coeff -> method,n,ln,value,ratio; family ->\n'
        'stat,ln,value; largepow -> regime,n,k,ln,value,exact_ln,exact,ratio; lagrange\n'
        '-> op,n,ln,value; diag -> t followed by the requested stats. CSV renders log\n'
        'columns as ln=<digits> and decimals with 12 significant digits.\n'
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
    assert out == "" and err.startswith("error: QGcdViolation: ")


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
