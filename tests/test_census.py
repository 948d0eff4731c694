"""The denominator census of a symbolic run.

Every denominator is c * l1^i l2^j l3^k a^m (a + 1)^r (see ``scalars``), so
a run that finishes has divided only by integers, by the weights, by a and
by a + 1.  What the type leaves open is counted here, with every ``Frac``
built through ``Frac._raw`` or ``Frac.__init__`` recorded: the primes that
divide some integer c, and the suites that build a + 1.  The primes are the
characteristics where a record's derivation may divide by zero.
"""

import pytest

from specialortho.scalars import Frac
from specialortho.suites import SUITE_NAMES, Workspace, hodge_report, run_suite


@pytest.fixture
def census(monkeypatch):
    """A function that returns, and forgets, the (r, c) of every denominator
    c * x^k * (a + 1)^r built since its last call, read off its triple
    (c, k, r)."""
    dens = set()
    raw, init = Frac._raw, Frac.__init__

    def recorded_raw(num, den):
        dens.add(den)
        return raw(num, den)

    def recorded_init(self, num, den):
        init(self, num, den)
        dens.add(self.den)

    monkeypatch.setattr(Frac, "_raw", staticmethod(recorded_raw))
    monkeypatch.setattr(Frac, "__init__", recorded_init)

    def read():
        found = {(r, c) for c, _, r in dens}
        dens.clear()
        return found

    return read


def primes(found):
    out = set()
    for _, c in found:
        c, p = abs(c), 2
        while p * p <= c:
            while c % p == 0:
                out.add(p)
                c //= p
            p += 1
        if c > 1:
            out.add(c)
    return out


def test_symbolic_runs_divide_by_the_primes_2_3_and_7(census):
    assert run_suite("all", Workspace()).ok
    assert primes(census()) == {2, 3, 7}
    hodge_report(Workspace())
    assert primes(census()) == {2, 3, 7}


def test_only_d21_and_mathews_build_a_plus_one(census):
    # each suite on a fresh Workspace, so that it builds its own set-up
    builds = []
    for name in SUITE_NAMES:
        assert run_suite(name, Workspace()).ok
        if any(r for r, _ in census()):
            builds.append(name)
    assert builds == ["d21", "mathews"]
