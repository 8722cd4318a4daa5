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
