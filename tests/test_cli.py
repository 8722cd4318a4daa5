"""Command-line surface: parsing, report formats, determinism, exit codes."""

import csv
import io
import json

import pytest

from padicdens import engine
from padicdens.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    EXIT_WILD,
    JobSpec,
    main,
    parse_sigma,
    run,
)
from padicdens.errors import (
    DivisibilityError,
    RecursionGuardError,
    SigmaParseError,
    VerificationError,
)
from padicdens.splitting import SplittingType
from padicdens.symbolic import from_json_obj


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
    with pytest.raises(SigmaParseError) as err:
        parse_sigma("e1f1,xyz")
    assert err.value.position == 5
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


def test_run_jobspec_direct(capsys):
    job = JobSpec(command="compute", sigma=SplittingType(((1, 1), (1, 1))))
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
        pytest.param(ORACLE_11 + ["--depths", "x"], None, EXIT_PARSE, id="depths-text"),
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
            ["compute", "--sigma", "e1f2"],
            ("splitting_density", VerificationError("forced mismatch")), EXIT_VERIFY,
            id="verification",
        ),
        pytest.param(
            ["conjecture", "--degree-max", "1", "--bases", "e1f1"],
            ("density_gen_fun", RecursionGuardError("forced guard")), EXIT_VERIFY,
            id="recursion-guard",
        ),
    ],
)
def test_failures_exit_with_documented_code(argv, patch, code, monkeypatch, capsys):
    if patch is not None:
        monkeypatch.setattr(engine, patch[0], _raising(patch[1]))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
