"""Command-line surface: parsing, report formats, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import padicdens
from oracle_reference import from_json_obj
from padicdens import engine
from padicdens.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_VERIFY,
    EXIT_WILD,
    build_parser,
    job_from_args,
    main,
    parse_sigma,
    run,
)
from padicdens.errors import (
    DivisibilityError,
    SigmaParseError,
    VerificationError,
)
from padicdens.splitting import SplittingType
from padicdens.symbolic import FracPoly


def test_parse_sigma_basic():
    s = parse_sigma("e1f1,e1f1")
    assert s == SplittingType(((1, 1), (1, 1)))


def test_parse_sigma_with_base():
    s = parse_sigma("e2f2@e2f1")
    assert s.components == ((2, 2),)
    assert (s.e_base, s.f_base) == (2, 1)
    assert s.e_rel == (1,) and s.f_rel == (2,)


def test_parse_sigma_divisibility_error():
    with pytest.raises(DivisibilityError):
        parse_sigma("e2f1@e1f2")


def test_parse_sigma_position():
    with pytest.raises(SigmaParseError):
        parse_sigma("e1f1,xyz")
    with pytest.raises(SigmaParseError):
        parse_sigma("")


def test_compute_prints_sample_value(capsys):
    assert main(["compute", "--sigma", "e1f2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(q^2 - q + 1) / (2*q^2 + 2*q + 2)" in out
    assert "PASS" in out


def test_compute_numeric(capsys):
    assert main(["compute", "--sigma", "e1f2", "-p", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "21/62" in out


def test_compute_json_numeric_without_bivariate(capsys):
    assert main(["compute", "--sigma", "e1f2", "-p", "5", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["numeric"] == {
        "p": 5, "q": "5", "rho": "21/62", "alpha": "5/12", "beta_monic": "1/12"
    }


def test_compute_bivariate_density_one(capsys):
    # the one degree-1 type has rho = 1 by the partition of unity
    assert main(["compute", "--sigma", "e1f1", "--bivariate"]) == EXIT_OK
    assert "rho          = 1" in capsys.readouterr().out


def test_exit_code_parse():
    assert main(["compute", "--sigma", "nonsense"]) == EXIT_PARSE
    assert main(["compute", "--sigma", "e2f1@e1f2"]) == EXIT_PARSE


def test_exit_code_wild():
    assert main(["compute", "--sigma", "e2f1", "-p", "2"]) == EXIT_WILD
    assert main(["oracle", "--sigma", "e3f1", "-p", "3"]) == EXIT_WILD


def test_oracle_match(capsys):
    code = main(["oracle", "--sigma", "e2f1", "-p", "5", "--cmax", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "overall: PASS" in out
    assert "match=True" in out


def test_oracle_json_records(capsys):
    code = main(
        ["oracle", "--sigma", "e1f2", "-p", "3", "--cmax", "2", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    records = json.loads(out)
    assert all(r["match"] for r in records)
    assert records[0]["sigma"] == "e1f2"


def test_compute_json_round_trips(capsys):
    assert main(
        ["compute", "--sigma", "e2f1", "--format", "json", "--bivariate"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rho = from_json_obj(payload["rho"])
    from padicdens.engine import splitting_density

    assert rho == splitting_density(SplittingType(((2, 1),)))
    biv = from_json_obj(payload["rho_bivariate"])
    from padicdens.engine import density_gen_fun

    assert biv == density_gen_fun(SplittingType(((2, 1),)))


def test_compute_json_bundle(capsys):
    assert main(
        ["compute", "--sigma", "e1f2", "--format", "json", "--bivariate"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["functional_eq_holds"]
    rho = from_json_obj(payload["rho"])
    assert rho == FracPoly({2: 1, 1: -1, 0: 1}, {2: 2, 1: 2, 0: 2})
    assert from_json_obj(payload["asymptotic"]) == FracPoly(F(1, 2))
    # all q-exponents integral by construction
    assert all(e.denominator == 1 for terms in (rho.num_terms, rho.den_terms) for (e,) in terms)
    assert from_json_obj(payload["rho_bivariate"]) == engine.density_gen_fun(
        SplittingType(((1, 2),))
    )


def test_compute_csv_prints_bivariate_row(capsys):
    assert main(
        ["compute", "--sigma", "e2f1", "--format", "csv", "--bivariate"]
    ) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[3] for r in rows[1:]] == [
        "rho", "alpha", "beta_monic", "asymptotic", "rho_bivariate"
    ]
    biv = rows[-1]
    assert biv[:3] == ["e2f1", "1", "1"]
    assert f"({biv[4]}) / ({biv[5]})" == str(engine.density_gen_fun(SplittingType(((2, 1),))))


def test_table_csv_schema(capsys):
    assert main(["table", "--degree-max", "2", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "sigma",
        "e_base",
        "f_base",
        "quantity",
        "value_numerator",
        "value_denominator",
    ]
    quantities = {r[3] for r in rows[1:]}
    assert quantities == {"rho", "alpha", "beta_monic", "asymptotic"}
    by_sigma = {(r[0], r[3]): (r[4], r[5]) for r in rows[1:]}
    assert by_sigma[("e1f2", "rho")] == ("q^2 - q + 1", "2*q^2 + 2*q + 2")


def test_report_determinism(capsys):
    argv = [
        "oracle", "--sigma", "e1f1,e1f1", "-p", "3",
        "--cmax", "2", "--samples", "20000", "--seed", "17",
    ]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "table --degree-max 5",
            "1a94deef48c17715ccc2a30b3776f75cd388dd9595e50c1021503a4ede406ae1",
        ),
        (
            "conjecture --degree-max 4 --bases e1f1,e2f1,e1f2",
            "19afae81c4f10a844f2ec5c5c695dfdbab4c78c17567297721093e535a200b9a",
        ),
        (  # prints a t^(1/2) exponent
            "compute --sigma e4f1@e2f1 --bivariate",
            "cecd529a30ceb31e0d937e0ceff081cc6a18d759683a3dcdd6f856749a4f4f2b",
        ),
    ],
    ids=["table", "conjecture", "compute"],
)
def test_reports_are_pinned(argv, digest, capsys):
    """The stdout sha256 of three reports: a change in how values are built
    or printed must leave every byte of them as it is."""
    assert main(argv.split()) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_emit_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main(
        ["table", "--degree-max", "1", "--format", "csv", "--emit", str(target)]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert target.read_text() == out


def test_verify_small(capsys):
    code = main(["verify", "--degree-max", "2", "--bases", "e1f1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "sum_rho degree 2 = 1: PASS" in out
    assert "overall: PASS" in out


def test_conjecture_small(capsys):
    code = main(["conjecture", "--degree-max", "2", "--bases", "e1f1,e2f1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "overall: PASS" in out


def test_verify_sums_over_the_given_catalog(capsys):
    """The partition of unity runs on every degree and base of the catalog,
    and duality on every type."""
    assert main(["verify", "--degree-max", "3", "--bases", "e2f1"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    for name in ("rho", "alpha", "beta"):
        assert f"sum_{name} degree 3 @e2f1 = 1: PASS" in out
    assert "alpha(1/q)=beta(q) e2f1,e2f1,e2f1@e2f1: PASS" in out
    # a base listed twice is still one partition
    assert main(["verify", "--degree-max", "2", "--bases", "e1f1,e1f1"]) == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [["conjecture", "--degree-max", "2"], ["verify", "--degree-max", "1"]],
    ids=["conjecture", "verify"],
)
def test_repeated_base_reports_once(argv, capsys):
    """A base listed twice in --bases is one base: each type's line once."""
    assert main(argv + ["--bases", "e1f1"]) == EXIT_OK
    once = capsys.readouterr().out
    assert main(argv + ["--bases", "e1f1,e1f1"]) == EXIT_OK
    assert capsys.readouterr().out == once


def test_run_parsed_job(capsys):
    job = job_from_args(build_parser().parse_args(["compute", "--sigma", "e1f1,e1f1"]))
    assert job.sigma == SplittingType(((1, 1), (1, 1)))
    assert run(job) == EXIT_OK
    assert "rho" in capsys.readouterr().out


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


ORACLE_11 = ["oracle", "--sigma", "e1f1,e1f1", "-p", "5"]


@pytest.mark.parametrize(
    "argv, patch, code",
    [
        pytest.param(["compute", "--sigma", "e0f1"], None, EXIT_PARSE, id="zero-component"),
        pytest.param(["compute", "--sigma", "e1f1@e1f0"], None, EXIT_PARSE, id="zero-base"),
        pytest.param(["verify", "--bases", "e0f1"], None, EXIT_PARSE, id="zero-bases"),
        pytest.param(["verify", "--bases", "e1f1,bad"], None, EXIT_PARSE, id="bases-bad-item"),
        pytest.param(ORACLE_11 + ["--depths", "x"], None, EXIT_PARSE, id="depths-text"),
        pytest.param(ORACLE_11 + ["--depths", "1,x"], None, EXIT_PARSE, id="depths-bad-item"),
        pytest.param(ORACLE_11 + ["--depths", "0"], None, EXIT_PARSE, id="depths-short"),
        pytest.param(ORACLE_11 + ["--depths", "0,-1"], None, EXIT_PARSE, id="depths-negative"),
        pytest.param(ORACLE_11 + ["--samples", "-3"], None, EXIT_PARSE, id="samples-negative"),
        pytest.param(
            ORACLE_11 + ["--samples", "10", "--seed", "-1"], None, EXIT_PARSE,
            id="seed-negative",
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1", "-p", "5", "--cmax", "-1"], None, EXIT_PARSE,
            id="cmax-negative",
        ),
        pytest.param(["table", "--degree-max", "-2"], None, EXIT_PARSE, id="degree-max-negative"),
        pytest.param(
            ["oracle", "--sigma", "e2f2@e1f2", "-p", "5"], None, EXIT_PARSE, id="oracle-base"
        ),
        pytest.param(["compute", "--sigma", "e1f2", "-p", "-1"], None, EXIT_WILD, id="p-not-prime"),
        pytest.param(
            ["compute", "--sigma", "e1f1", "-p", str(2**64)], None, EXIT_PARSE, id="p-too-large"
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1,e1f1", "-p", "3", "--cmax", "2", "--samples", str(10**12)],
            None, EXIT_TOO_LARGE, id="samples-too-many",
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1,e1f1", "-p", "3", "--cmax", str(10**8)],
            None, EXIT_TOO_LARGE, id="cmax-too-large",
        ),
        pytest.param(["compute", "--sigma", ""], None, EXIT_PARSE, id="sigma-empty"),
        pytest.param(["oracle", "--sigma", "", "-p", "5"], None, EXIT_PARSE, id="oracle-sigma-empty"),
        pytest.param(["table", "--degree-max", "2", "--base", ""], None, EXIT_PARSE, id="base-empty"),
        pytest.param(["table", "--degree-max", "2", "--base", "xyz"], None, EXIT_PARSE, id="base-text"),
        pytest.param(
            ["table", "--degree-max", "1", "--emit", "{tmp}/missing/report.txt"], None, EXIT_PARSE,
            id="emit-missing-dir",
        ),
        pytest.param(
            ["table", "--degree-max", "1", "--emit", "{tmp}"], None, EXIT_PARSE, id="emit-directory"
        ),
        pytest.param(
            ["compute", "--sigma", "e1f2"],
            ("splitting_density", VerificationError("forced mismatch")), EXIT_VERIFY,
            id="verification",
        ),
        pytest.param(
            ["compute", "--sigma", "e1f2"],
            ("splitting_density", lambda sigma: FracPoly(2)), EXIT_VERIFY,
            id="density-out-of-range",
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1,e1f1", "-p", "3", "--cmax", "300000", "--samples", "1"],
            None, EXIT_TOO_LARGE, id="sampled-slots-too-many",
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1,e1f1", "-p", "3", "--cmax", "1000000"],
            None, EXIT_TOO_LARGE, id="exact-slots-too-many",
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1,e1f1", "-p", "3", "--depths", "10000,0"],
            None, EXIT_TOO_LARGE, id="depth-too-large",
        ),
        pytest.param(
            ["oracle", "--sigma", "e1f1,e1f1", "-p", "3", "--depths", "0,17", "--samples", "1"],
            None, EXIT_TOO_LARGE, id="sampled-depth-too-large",
        ),
    ],
)
def test_failures_exit_with_documented_code(argv, patch, code, monkeypatch, capsys, tmp_path):
    if patch is not None:
        stub = patch[1] if callable(patch[1]) else _raising(patch[1])
        monkeypatch.setattr(engine, patch[0], stub)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_large_prime_is_quick(capsys):
    """-p is tested by Miller-Rabin, not trial division: the largest prime
    below 2^64 takes well under a second."""
    start = time.perf_counter()
    assert main(["compute", "--sigma", "e1f1", "-p", str(2**64 - 59)]) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert "numeric at p=18446744073709551557" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "conjecture"])
def test_catalog_checks_take_bases_not_base(command, capsys):
    """verify and conjecture read --bases only; a --base they would ignore
    is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--degree-max", "2", "--base", "e2f1", "--bases", "e1f1"])
    assert exc.value.code == EXIT_PARSE
    assert "--base" in capsys.readouterr().err


def test_oracle_requires_prime(capsys):
    """oracle without -p is an argparse usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--sigma", "e1f1"])
    assert exc.value.code == EXIT_PARSE
    assert "-p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--degree-max", "1"],
        ["oracle", "--sigma", "e1f1", "-p", "5"],
        ["conjecture", "--degree-max", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_only_where_rendered(argv, capsys):
    """Only compute and table have a CSV renderer; elsewhere --format csv
    is a usage error, not a text report."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == EXIT_PARSE
    assert "--format" in capsys.readouterr().err


def test_sigma_base_only_by_suffix(capsys):
    """A sigma names its base by its @ suffix alone; --base is table's."""
    for argv in (
        ["compute", "--sigma", "e4f1", "--base", "e2f1"],
        ["oracle", "--sigma", "e1f1", "-p", "5", "--base", "e1f1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert "--base" in capsys.readouterr().err
    assert main(["compute", "--sigma", "e4f1@e2f1"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("sigma e4f1@e2f1   pairs [(4, 1)] over base (e=2, f=1)")
    assert out[1] == "rho          = (q) / (q^2 + q + 1)"


def test_closed_stdout_exits_with_one_error_line():
    """A reader that has gone (`padicdens table | head -1`) is an unwritable
    report: exit 2, one error line, and a quiet interpreter shutdown."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(padicdens.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "padicdens.cli", "table", "--degree-max", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PARSE
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


_NUMPY_PROBE = """
import contextlib, io, json, sys
from padicdens import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(code, "numpy" in sys.modules)
"""


def test_only_sampling_imports_numpy():
    """The exact commands run on plain ints, so numpy (about half of the
    interpreter start-up) is loaded by --samples alone."""
    exact = [
        ["table", "--degree-max", "2"],
        ["verify", "--degree-max", "2"],
        ["conjecture", "--degree-max", "2"],
        ["compute", "--sigma", "e1f1,e2f1", "-p", "5", "--bivariate"],
        ["oracle", "--sigma", "e2f1,e1f1", "-p", "5", "--cmax", "3", "--depths", "1,0"],
    ]
    sampled = ["oracle", "--sigma", "e2f1,e1f1", "-p", "5", "--cmax", "3", "--samples", "2000"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(padicdens.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(exact + [sampled])],
        capture_output=True, env=env, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 False"] * len(exact) + ["0 True"]


# malformed and empty items sit next to good ones; "" comes first, so it is
# among the first values tried
_ITEMS = ["", "e1f1", "e2f1", "e1f2", "e0f1", "e1f0", "ef", "x"]
_PAIRS = st.lists(st.sampled_from(_ITEMS), min_size=1, max_size=2).map(",".join)
_VALUES = {
    "--sigma": _PAIRS | st.tuples(_PAIRS, st.sampled_from(_ITEMS)).map("@".join),
    "--base": st.sampled_from(_ITEMS),
    "--bases": _PAIRS,
    "-p": st.integers(-1, 5),
    "--cmax": st.integers(-1, 2),
    "--degree-max": st.integers(-1, 3),
    "--samples": st.integers(-1, 200),
    "--seed": st.integers(-1, 5),
    "--depths": st.sampled_from(["", "0", "1", "0,0", "1,0", "0,-1", "x"]),
    "--format": st.sampled_from(["text", "json", "csv"]),
    # relative to a temporary directory: a file, a file in a missing
    # directory, and the directory itself
    "--emit": st.sampled_from(["report.txt", "missing/report.txt", "."]),
    "--bivariate": st.none(),
}
_COMMANDS = {
    "compute": ["--sigma", "-p", "--format", "--emit", "--bivariate"],
    "table": ["--base", "--degree-max", "--format", "--emit"],
    "verify": ["--degree-max", "--bases", "--format", "--emit"],
    "oracle": ["--sigma", "-p", "--cmax", "--samples", "--seed", "--depths", "--format", "--emit"],
    "conjecture": ["--degree-max", "--bases", "--format", "--emit"],
    "frobnicate": ["--sigma", "--degree-max"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(_COMMANDS[command]), unique=True)):
        value = draw(_VALUES[option])
        argv += [option] if value is None else [option, str(value)]
    return argv


@pytest.fixture(scope="module")
def emit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emit")


@given(argv=_argv())
def test_any_argv_exits_with_documented_code(argv, emit_dir):
    argv = [
        str(emit_dir / arg) if prev == "--emit" else arg for prev, arg in zip([None, *argv], argv)
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    # an exception that escapes main fails the test by itself
    assert code in {0, 2, 3, 4, 5, 6}
    assert "Traceback" not in err.getvalue()
