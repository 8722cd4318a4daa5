"""Golden snapshot: every exact value of the d <= 6 catalogs, bit for bit.

tests/data/golden_d5.txt (d <= 5) and golden_d6.txt (d = 6) hold one line
per (base, sigma, kind) with the sha256 of ``symbolic.dumps(value)``; they
are written by scripts/golden.py.  Tier 1 checks d <= 4 on the three bases
and d = 5 on e1f1; the rest is marked slow (``pytest -m slow``).
"""

import pathlib
from collections import defaultdict

import pytest

from golden import BASES, digest_lines

DATA = pathlib.Path(__file__).parent / "data"


def _snapshot():
    groups = defaultdict(list)
    for name in ("golden_d5.txt", "golden_d6.txt"):
        for line in (DATA / name).read_text().splitlines():
            base, degree = line.split()[:2]
            groups[base, int(degree)].append(line)
    return groups


SNAPSHOT = _snapshot()


def _group(base, degree):
    slow = degree == 6 or (degree == 5 and base != "e1f1")
    marks = [pytest.mark.slow] if slow else []
    return pytest.param(base, degree, marks=marks, id=f"{base}-d{degree}")


@pytest.mark.parametrize("base, degree", [_group(b, d) for b in BASES for d in range(1, 7)])
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
