"""A small fuzz of the CLI contract.

Commands are drawn from the family grammar (with malformed specs among
them) and the verbs coeff, family, largepow, lagrange (each op with the
options it reads) and diag, with arguments that are small, huge, at a
radius, past it, nan, 0 or negative. Every command must exit 0, 2 or 3
with no exception escaping ``cli.main``, and a success must print no nan
or inf token (perfbench's ``_NAN_INF``, the same test its cli workload
applies) and, from the family verb, no negative variance in any output
format. The option-table reader refuses each command, or reads the
namespace argparse parses from it. The search is derandomized, so a
tier-1 run sees the same commands every time.
"""

import contextlib
import io
import json
import shlex

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import khinfam
import khinfam.cli  # noqa: F401  (the entry point under test)

INTS = st.sampled_from(["-1", "0", "1", "2", "3", "7", "40", "300", "1000000"])
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "3"])
# 1 is the radius of geom, negbinom, setsoflists and the partition products;
# 700 is near where e^t leaves the float range
RADII = ["-1", "0", "nan", "inf", "1e-300", "0.3", "1", "1.5", "3", "40", "700", "1e10", "1e300"]
REALS = st.sampled_from(RADII)
COEFFS = st.sampled_from(["0", "1", "2", "1/3", "-1", "1e300", "1e-300"])

# half the specs name a family of each variant, half are drawn from the
# grammar with parameters that are often out of range or malformed
NAMED = ["exp", "bernoulli", "binom:4", "geom", "negbinom:3", "bell", "P", "Q", "Pab:2,1",
         "Wab:1,2", "setsoflists", "expof:poly:0,1,1", "poly:1,2,1", "canprod:1,2"]
FAMILIES = st.sampled_from(NAMED) | st.one_of(
    st.sampled_from(["nope", "P:junk", "exp:7"]),
    st.builds("{}:{}".format, st.sampled_from(["binom", "negbinom"]), INTS),
    st.builds("{}:{},{}".format, st.sampled_from(["Pab", "Wab"]), SMALL_INTS, SMALL_INTS),
    st.builds("{}{}".format, st.sampled_from(["poly:", "expof:poly:", "canprod:"]),
              st.lists(COEFFS, min_size=1, max_size=4).map(",".join)),
)


def _words(*parts):
    """A command from string and list parts, drawn in order."""
    return st.tuples(*parts).map(
        lambda ps: [w for p in ps for w in ([p] if isinstance(p, str) else p)])


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


COEFF = _words(st.just("coeff"), _opt("--family", FAMILIES), _opt("--n", INTS),
               _opt("--method", st.sampled_from(["exact", "hayman", "bd", "exact,hayman",
                                                 "closed", "hr", "mw", "wright"])))
FAMILY = _words(st.just("family"), _opt("--family", FAMILIES), _opt("--t", REALS),
                _opt("--stats", st.sampled_from([
                    "mean,var", "clan", "mass:3", "moment:4", "moment:6", "cmoment:3",
                    "fmoment:2", "charfn:0.5", "mgf:0.1", "zerofree", "maxterm", "gap",
                    "qgcd"])))
LARGEPOW = _words(st.just("largepow"), _opt("--psi", FAMILIES),
                  _opt("--n", SMALL_INTS | st.just("40")), _opt("--k", SMALL_INTS),
                  _opt("--regime", st.sampled_from([
                      "auto", "comparable:0.2,3.8", "limitl:2,0.5", "boundary", "smallk",
                      "smallkref:1", "fixedk", "largek"])))
# each lagrange op with the options it reads, since it refuses any other
LAGRANGE_VALUES = {"psi": FAMILIES, "h": FAMILIES, "n": INTS, "q": SMALL_INTS, "t": REALS,
                   "s": REALS, "j": SMALL_INTS, "trials": SMALL_INTS}
LAGRANGE = st.sampled_from(list(khinfam.cli.LAGRANGE_READS)).flatmap(
    lambda op: _words(st.just("lagrange"), st.just(["--op", op]),
                      *(_opt(f"--{name}", LAGRANGE_VALUES[name])
                        for name in khinfam.cli.LAGRANGE_READS[op].split())))
DIAG = _words(st.just("diag"), _opt("--family", FAMILIES),
              _opt("--t", st.lists(REALS, min_size=1, max_size=2).map(",".join)),
              _opt("--stats", st.sampled_from(["cltsup", "sgint", "gratio", "cuts",
                                               "cuts:0.5", "cltsup,sgint,gratio,cuts"])))
COMMANDS = st.tuples(st.sampled_from([[], ["--trunc", "8"], ["--out", "csv"], ["--out", "jsonl"]]),
                     st.one_of(COEFF, FAMILY, LARGEPOW, LAGRANGE, DIAG)).map(
    lambda parts: parts[0] + parts[1])


FULL_TREE = khinfam.cli.build_parser()


def assert_read_as_argparse_reads(argv):
    """``_read_argv`` refuses argv, or reads what the full tree parses, nan
    equal to nan."""
    read = khinfam.cli._read_argv(argv)
    if read is None:
        return
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            parsed = FULL_TREE.parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {argv}, which argparse refuses: {err.getvalue()}")

    def nan_as_text(ns):  # nan != nan, so nan compares as text
        return {k: "nan" if v != v else v for k, v in vars(ns).items()}

    assert nan_as_text(read) == nan_as_text(parsed), argv


def printed_variances(stdout):
    """The value of every var row a family command printed, as table, csv or jsonl."""
    for line in stdout.splitlines():
        if line.startswith("{"):
            row = json.loads(line)
            cells = [row["stat"], row["value"]]
        else:
            cells = line.replace(",", " ").split()
        if cells and cells[0] == "var":
            yield float(cells[-1])


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(COMMANDS)
@example(shlex.split("diag --family bell --t 700 --stats sgint"))
@example(shlex.split("lagrange --op apex --psi poly:1,1"))
@example(shlex.split("lagrange --op ppasym --n 0"))
@example(shlex.split("lagrange --op bt --t 0.5 --j 1 --n 3 --psi nope"))
def test_every_command_keeps_the_contract(perfbench_run, argv):
    assert_read_as_argparse_reads(argv)
    got = perfbench_run.pools.run_cli(khinfam, argv)
    assert got.exit in (0, 2, 3), got
    if got.exit == 0:
        assert perfbench_run._NAN_INF.search(got.stdout) is None, got.stdout
        if "family" in argv:
            assert all(v >= 0.0 for v in printed_variances(got.stdout)), got.stdout


@pytest.mark.parametrize("out", ["table", "csv", "jsonl"])
def test_no_printed_variance_is_negative(perfbench_run, out):
    # every named family at every radius: the fuzz draws a family's var row
    # at a radius inside its domain too rarely to read each closed form's
    read = set()
    for text in NAMED:
        for t in RADII:
            argv = ["--out", out, "family", "--family", text, "--t", t, "--stats", "var"]
            got = perfbench_run.pools.run_cli(khinfam, argv)
            assert got.exit in (0, 2, 3), (argv, got)
            values = list(printed_variances(got.stdout)) if got.exit == 0 else []
            assert all(v >= 0.0 for v in values), (argv, got.stdout)
            if values:
                read.add(text)
    assert read == set(NAMED)


def test_the_reader_reads_every_pool_line_as_argparse_does(perfbench_run):
    for q in perfbench_run.pools.cli_pool():
        argv = list(q.args)
        assert khinfam.cli._read_argv(argv) is not None, argv  # none goes to argparse
        assert_read_as_argparse_reads(argv)
