"""Golden snapshot: every exact value of the d <= 7 catalogs over e1f1,
e2f1 and e1f2, bit for bit: the four densities and G at b = 0 and b = 1.

tests/data/golden_d5.txt (d <= 5), golden_d6.txt (d = 6) and golden_d7.txt
(d = 7) hold one line per (base, sigma, kind) with the sha256 of
``symbolic.dumps(value)``; they are written by scripts/golden.py.  Every
(base, degree) group is a case of its own, so a failure names the values that
differ.  The engine computes over e1f1 only and moves a value to another
base by one substitution, so once e1f1-d7 has run, e2f1-d7 and e1f2-d7 cost
little; the density lines of those bases were written when each base had a
recursion of its own, so they check the base change independently (the G0
and G1 lines were written later, through the substitution).
"""

import pathlib
from collections import defaultdict

import pytest

import cache_digest
from golden import BASES, digest_lines

DATA = pathlib.Path(__file__).parent / "data"


def _snapshot():
    groups = defaultdict(list)
    for name in ("golden_d5.txt", "golden_d6.txt", "golden_d7.txt"):
        for line in (DATA / name).read_text().splitlines():
            base, degree = line.split()[:2]
            groups[base, int(degree)].append(line)
    return groups


SNAPSHOT = _snapshot()


@pytest.mark.parametrize(
    "base, degree",
    [pytest.param(b, d, id=f"{b}-d{d}") for b in BASES for d in range(1, 7)]
    + [pytest.param(b, 7, id=f"{b}-d7") for b in ("e1f1", "e2f1", "e1f2")],
)
def test_golden_values(base, degree):
    want = SNAPSHOT[base, degree]
    assert want, f"no snapshot lines for {base} d={degree}"
    got = digest_lines(base, degree)
    key = lambda line: line.rsplit(" ", 1)[0]  # base degree sigma kind
    want_by_key = {key(line): line for line in want}
    got_by_key = {key(line): line for line in got}
    assert got_by_key.keys() == want_by_key.keys()
    differ = [k for k in want_by_key if got_by_key[k] != want_by_key[k]]
    assert not differ, "values differ from the snapshot: " + "; ".join(differ)


# scripts/cache_digest.py --degree-max 5: one line per memo kind, the count of
# entries and the sha256 of every (key, value) pair of that kind
MEMO_DIGEST_D5 = [
    "G 84 2f8887cee0b515c4b5b79ee295cf96747564262e50c3ca106d8526172da2aad2",
    "alpha_q 37 6d09f3ad49da3e2a7d21f3e08726a85babafe260cf5f8239b8ed66571e1dcff2",
    "beta_q 37 ffcb532c793bac2990d91bfc545c4714963bbdcfc61798ce72ea8a2e5b58280e",
    "branch 69 ff64bafeebc0038b63884801521771fc4dce348b601ebec2fd19fb855296e800",
    "rho_pt 37 14567cab00398afee864568cc61be4fc100d55ee5a2350aba8c9317b7dc2478b",
    "rho_q 37 bb363a3ecb32ff49092a1b5a0ebd2a72304895235f9119ae8b944f467de12ff3",
    "t_star 74 d23b284fe2e7d9c0248c73d0adbe4c35904ef1759edb44c96e58b1ac4e6ca72e",
    "weight 46 a25b1b3b3e4c11508eee95127778cd33b7170f0e2dd7592fd3aceac95b5e69bf",
]


def test_memo_digest_d5():
    """Every value the memo holds after the d <= 5 catalog, by kind: the
    recursion's intermediates (branch, t_star, weight) as well as G and the
    densities."""
    assert cache_digest.digest_lines(5) == MEMO_DIGEST_D5
