"""Command-line surface: compute densities, emit tables, run verification suites.

Commands:

  compute     exact densities for one splitting type
  table       densities for a whole degree-bounded catalog
  verify      the invariant suite on the catalog of --degree-max and --bases:
              golden values; rho, alpha and beta each sum to 1 over every
              degree and base; the root-count moments M_1 = 1 and
              M_k(n) = M_k(2k-1); rho(q) = rho(1/q), alpha(1/q) = beta(q),
              the asymptotics and the minimal discriminant of every type
  oracle      enumeration / Monte Carlo cross-check against the engine
  conjecture  the two-variable symmetry report

Every command prints text or json (--format); compute and table also print
csv.  A sigma names its base by its @ suffix; table takes --base.

Exit codes:

  0  success
  2  bad input: parse error, invalid component or depth vector, negative
     --samples, --seed or --cmax, --degree-max below 1, a -p of 2^64 or
     more (beyond the exact primality test), oracle without -p,
     unsupported oracle base, an --emit path that cannot be written, a
     standard output closed before the report is written (e.g. piped into
     head)
  3  wild prime, or a -p that is not prime
  4  non-integral exponent
  5  verification failure
  6  enumeration too large: more than the oracle's 2,048 common slots, a
     --depths entry above its bound of 16, or --samples x conjugates x
     common slots above its 40,000,000 bound

Identical job specifications (including seeds) produce byte-identical
reports; catalog entries are emitted in a canonical order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import engine, verify
from .errors import (
    DivisibilityError,
    NonIntegralExponentError,
    SigmaParseError,
    TooLargeError,
    VerificationError,
    WildInputError,
)
from .splitting import SplittingType
from .symbolic import FracPoly, check_inversion_symmetry, to_json_obj

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_WILD = 3
EXIT_NONINTEGRAL = 4
EXIT_VERIFY = 5
EXIT_TOO_LARGE = 6

_ITEM = re.compile(r"e(\d+)f(\d+)")


def _parse_pair(text: str, what: str) -> Tuple[int, int]:
    """Parse one 'e<int>f<int>' pair with positive e and f."""
    m = _ITEM.fullmatch(text.strip())
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise SigmaParseError(f"bad {what} {text!r} (expected e<int>f<int>, both positive)")
    return int(m.group(1)), int(m.group(2))


def parse_sigma(s: str) -> SplittingType:
    """Parse 'e<int>f<int>,...' with an optional '@e<int>f<int>' base suffix.

    Components are absolute invariants; the base must divide every component.
    """
    text = s.strip()
    base = (1, 1)
    if "@" in text:
        text, _, base_text = text.partition("@")
        base = _parse_pair(base_text, "base")
    comps = tuple(_parse_pair(item, "component") for item in text.split(","))
    return SplittingType(comps, *base)


def _frac_str(x: Fraction) -> str:
    return f"{x} ~ {float(x):.6g}"


def _quantity_rows(sigma: SplittingType) -> List[Tuple[str, FracPoly]]:
    return [
        ("rho", engine.splitting_density(sigma)),
        ("alpha", engine.monic_density(sigma)),
        ("beta_monic", engine.centered_monic_density(sigma)),
        ("asymptotic", engine.density_asymptotic(sigma)),
    ]


def _csv_rows(sigma: SplittingType, values) -> List[List[str]]:
    """One row per (name, value) of values, a FracPoly or a GenFun."""
    return [
        [sigma.display_pairs(), str(sigma.e_base), str(sigma.f_base), name, *value.render_pair()]
        for name, value in values
    ]


def _emit(job: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at the null device so that the
        # interpreter's final flush of the buffered rest stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SigmaParseError("cannot write the report: standard output was closed") from None
    if job.emit:
        try:
            with open(job.emit, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SigmaParseError(f"cannot write --emit {job.emit!r}: {exc.strerror}") from None


def _render_csv(rows: List[List[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["sigma", "e_base", "f_base", "quantity", "value_numerator", "value_denominator"]
    )
    writer.writerows(rows)
    return buf.getvalue()


def _sigma_header(sigma: SplittingType) -> str:
    return (
        f"sigma {sigma.display_pairs()}   "
        f"pairs {list(sigma.components)} over base (e={sigma.e_base}, f={sigma.f_base}); "
        f"superscript display {sigma.display_superscript()}"
    )


def run_compute(job: argparse.Namespace) -> Tuple[str, bool]:
    sigma = job.sigma
    if job.p is not None:
        sigma.require_tame(job.p)
    values = dict(_quantity_rows(sigma))
    rho_pt = engine.density_gen_fun(sigma) if job.bivariate else None
    p0 = engine.smallest_tame_prime(sigma)
    rho0 = values["rho"].evaluate(Fraction(p0) ** sigma.f_base)
    if not 0 < rho0 <= 1:
        raise VerificationError(
            f"density out of range at p={p0}: {rho0} for {sigma.display_pairs()}"
        )
    fe_holds, _ = check_inversion_symmetry(values["rho"])
    if job.fmt == "csv":
        bivariate = [("rho_bivariate", rho_pt)] if rho_pt is not None else []
        return _render_csv(_csv_rows(sigma, [*values.items(), *bivariate])), True
    if job.fmt == "json":
        payload = {
            "sigma": sigma.display_pairs(),
            "e_base": sigma.e_base,
            "f_base": sigma.f_base,
            **{name: to_json_obj(value) for name, value in values.items()},
            "functional_eq_holds": fe_holds,
        }
        if rho_pt is not None:
            payload["rho_bivariate"] = to_json_obj(rho_pt)
        if job.p is not None:
            q0 = Fraction(job.p) ** sigma.f_base
            payload["numeric"] = {"p": job.p, "q": str(q0)} | {
                name: str(values[name].evaluate(q0)) for name in ("rho", "alpha", "beta_monic")
            }
        return json.dumps(payload, sort_keys=True, indent=2), True
    lines = [_sigma_header(sigma)]
    for name, value in values.items():
        lines.append(f"{name:12s} = {value}")
    if rho_pt is not None:
        lines.append(f"{'rho(p,t)':12s} = {rho_pt}")
    lines.append(
        "functional equation rho(q) = rho(1/q): "
        + ("PASS" if fe_holds else "FAIL")
    )
    if job.p is not None:
        q0 = Fraction(job.p) ** sigma.f_base
        lines.append(f"numeric at p={job.p} (q={q0}):")
        for name, value in values.items():
            lines.append(f"  {name:12s} = {_frac_str(value.evaluate(q0))}")
    return "\n".join(lines), True


def run_table(job: argparse.Namespace) -> Tuple[str, bool]:
    sigmas = engine.catalog(job.degree_max, *job.base)
    if job.fmt == "csv":
        rows: List[List[str]] = []
        for sigma in sigmas:
            rows.extend(_csv_rows(sigma, _quantity_rows(sigma)))
        return _render_csv(rows), True
    if job.fmt == "json":
        payload = [
            {"sigma": s.display_pairs()}
            | {name: to_json_obj(value) for name, value in _quantity_rows(s)}
            for s in sigmas
        ]
        return json.dumps(payload, sort_keys=True, indent=2), True
    lines = []
    for sigma in sigmas:
        lines.append(_sigma_header(sigma))
        for name, value in _quantity_rows(sigma):
            lines.append(f"  {name:12s} = {value}")
    return "\n".join(lines), True


def _render_checks(checks, fmt: str) -> Tuple[str, bool]:
    ok_all = all(ok for _, ok, _ in checks)
    if fmt == "json":
        return (
            json.dumps(
                [dict(name=n, ok=ok, note=note) for n, ok, note in checks],
                sort_keys=True,
                indent=2,
            ),
            ok_all,
        )
    lines = [f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{note}]" if note and not ok else "")
             for name, ok, note in checks]
    lines.append(f"overall: {'PASS' if ok_all else 'FAIL'}")
    return "\n".join(lines), ok_all


def _catalog(job: argparse.Namespace) -> List[SplittingType]:
    return [s for base in job.bases for s in engine.catalog(job.degree_max, *base)]


def run_verify(job: argparse.Namespace) -> Tuple[str, bool]:
    sigmas = _catalog(job)
    checks = []
    checks += verify.golden_value_checks()
    checks += verify.partition_of_unity_checks(sigmas)
    checks += verify.root_moment_checks(sigmas)
    checks += verify.functional_equation_checks(sigmas)
    checks += verify.duality_checks(sigmas)
    checks += verify.asymptotic_checks(sigmas)
    checks += verify.mass_formula_checks(sigmas)
    checks += verify.min_disc_checks(sigmas)
    return _render_checks(checks, job.fmt)


def run_oracle(job: argparse.Namespace) -> Tuple[str, bool]:
    b = job.depths if job.depths is not None else (0,) * job.sigma.m
    records = verify.oracle_records(
        job.sigma, b, job.p, job.cmax, samples=job.samples, seed=job.seed
    )
    ok = all(r["match"] for r in records)
    if job.fmt == "json":
        return json.dumps(records, sort_keys=True, indent=2), ok
    lines = [" ".join(f"{k}={v}" for k, v in sorted(r.items())) for r in records]
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), ok


def run_conjecture(job: argparse.Namespace) -> Tuple[str, bool]:
    return _render_checks(verify.bivariate_symmetry_checks(_catalog(job)), job.fmt)


# Option types.  argparse turns only ArgumentTypeError, TypeError and
# ValueError into a usage error, so the SigmaParseError or DivisibilityError
# of a bad value reaches main's handler and prints one error line.

def _parse_base(raw: str) -> Tuple[int, int]:
    return _parse_pair(raw, "base")


def _parse_bases(raw: str) -> Tuple[Tuple[int, int], ...]:
    # a base listed twice is one base: dict keeps the first of each, in order
    return tuple(dict.fromkeys(map(_parse_base, raw.split(","))))


def _parse_b_vector(raw: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise SigmaParseError(f"bad depth vector {raw!r} (expected integers)") from None


def build_parser() -> argparse.ArgumentParser:
    """The parsed arguments are the job: each command sets its run_* handler,
    which returns its report and whether every check in it passed."""
    ap = argparse.ArgumentParser(
        prog="padicdens",
        description="Exact densities of polynomials over local fields by tame splitting type",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # csv only where a report has a CSV renderer: compute and table; -p only
    # where prime_required is not None, and oracle requires it
    def common(sp, handler, with_sigma=False, prime_required=None, with_csv=False):
        sp.set_defaults(handler=handler)
        if with_sigma:
            sp.add_argument(
                "--sigma", type=parse_sigma, required=True,
                help="e.g. e1f2 or e2f1,e1f1 or e4f1@e2f1",
            )
        if prime_required is not None:
            sp.add_argument("-p", type=int, required=prime_required, help="concrete tame prime")
        formats = ("text", "json", "csv") if with_csv else ("text", "json")
        sp.add_argument("--format", dest="fmt", choices=formats, default="text")
        sp.add_argument("--emit", default=None, help="also write the report to this path")

    sp = sub.add_parser("compute", help="densities for one splitting type")
    common(sp, run_compute, with_sigma=True, prime_required=False, with_csv=True)
    sp.add_argument(
        "--bivariate", action="store_true",
        help="also compute the two-variable density rho(p,t)",
    )

    sp = sub.add_parser("table", help="densities for a degree-bounded catalog")
    common(sp, run_table, with_csv=True)
    sp.add_argument(
        "--base", type=_parse_base, default="e1f1", help="base e<int>f<int> of the catalog"
    )
    sp.add_argument("--degree-max", type=int, default=5)

    # the catalog commands read --bases only; without abbreviations a --base
    # there is an error rather than a short --bases
    sp = sub.add_parser("verify", help="run the invariant suite", allow_abbrev=False)
    common(sp, run_verify)
    sp.add_argument("--degree-max", type=int, default=3)
    sp.add_argument(
        "--bases", type=_parse_bases, default="e1f1", help="comma list, e.g. e1f1,e2f1,e1f2"
    )

    sp = sub.add_parser("oracle", help="enumeration / Monte Carlo cross-check")
    common(sp, run_oracle, with_sigma=True, prime_required=True)
    sp.add_argument("--cmax", type=int, default=4)
    sp.add_argument("--samples", type=int, default=0, help="0 = exact enumeration")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--depths", type=_parse_b_vector, default=None, help="comma list of b_i, default all 0"
    )

    sp = sub.add_parser("conjecture", help="two-variable symmetry report", allow_abbrev=False)
    common(sp, run_conjecture)
    sp.add_argument("--degree-max", type=int, default=3)
    sp.add_argument("--bases", type=_parse_bases, default="e1f1,e2f1,e1f2")
    return ap


# least accepted value of each numeric option, by argparse dest
_LOWER_BOUNDS = {"cmax": 0, "samples": 0, "seed": 0, "degree_max": 1}


def job_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the numeric options' bounds; the parsed arguments are the job."""
    for dest, bound in _LOWER_BOUNDS.items():
        value = getattr(args, dest, bound)
        if value < bound:
            option = "--" + dest.replace("_", "-")
            raise SigmaParseError(f"{option} must be at least {bound}, got {value}")
    p = getattr(args, "p", None)
    if p is not None and p >= 2**64:  # splitting.is_prime is exact below 2^64
        raise SigmaParseError(f"-p must be below 2^64, got {p}")
    return args


_EXIT_CODES = {
    SigmaParseError: EXIT_PARSE,
    DivisibilityError: EXIT_PARSE,
    WildInputError: EXIT_WILD,
    NonIntegralExponentError: EXIT_NONINTEGRAL,
    VerificationError: EXIT_VERIFY,
    TooLargeError: EXIT_TOO_LARGE,
}


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return _EXIT_CODES[type(exc)]


def run(job: argparse.Namespace) -> int:
    """Run a job from job_from_args with its command's handler, write its
    report, and return the exit code: the one place that picks it."""
    try:
        report, ok = job.handler(job)
        _emit(job, report)
    except tuple(_EXIT_CODES) as exc:
        return _fail(exc)
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv: Sequence[str] | None = None) -> int:
    try:
        job = job_from_args(build_parser().parse_args(argv))
    except (SigmaParseError, DivisibilityError) as exc:
        return _fail(exc)
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
