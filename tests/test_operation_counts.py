"""Upper bounds on the field operations of one symbolic ``verify all`` and of
the set-up before it.

Counts are deterministic where times are not.  One ``run_suite("all",
Workspace())`` runs under cProfile, and so, apart from any check, do the
eight set-up stages of a fresh symbolic ``Workspace``, its cached
properties, built as ``perfbench/setup_probe.py`` builds them, so that a
set-up regression shows on its own.  The calls of ``Frac.__mul__``,
``__add__``, ``__sub__``, ``__neg__``, ``__eq__`` and ``_sum``, of
``scalars._monomial_sum``, ``scalars.dot``, the gcd with a denominator
``scalars._p_gcd``, the integer product kernel ``scalars.add_products`` and
``scalars.clear_denominators``, which puts each of its operands over one
denominator, must stay at or below the bounds, the counts measured when the
bounds were set.  A change that needs more raises the bound and says why.
"""

import cProfile
import pstats
from functools import cached_property

from specialortho import scalars
from specialortho.suites import Workspace, run_suite

BOUNDS = {
    scalars.Frac.__mul__: 8_988,
    scalars.Frac.__add__: 1_458,
    scalars.Frac.__sub__: 1_576,
    scalars.Frac.__neg__: 2_925,
    scalars.Frac.__eq__: 2_520,
    scalars.Frac._sum: 1_782,
    scalars._monomial_sum: 563,
    scalars.dot: 862,
    scalars._p_gcd: 48,
    scalars.add_products: 5_293,
    scalars.clear_denominators: 53,
}

SETUP_BOUNDS = {
    scalars.Frac.__mul__: 1_121,
    scalars.Frac.__add__: 533,
    scalars.Frac.__sub__: 137,
    scalars.Frac.__neg__: 327,
    scalars.Frac.__eq__: 421,
    scalars.Frac._sum: 656,
    scalars._monomial_sum: 314,
    scalars.dot: 330,
    scalars._p_gcd: 12,
    scalars.add_products: 212,
    scalars.clear_denominators: 15,
}


def calls_over(profile: cProfile.Profile, bounds: dict) -> dict:
    """{name: (calls, bound)} for every function called more than its bound."""
    stats = pstats.Stats(profile).stats
    over = {}
    for fn, bound in bounds.items():
        code = fn.__code__
        # (primitive calls, all calls, ...) under (file, first line, name)
        calls = stats[code.co_filename, code.co_firstlineno, code.co_name][1]
        assert calls, fn.__qualname__
        if calls > bound:
            over[fn.__qualname__] = (calls, bound)
    return over


def test_symbolic_verify_all_stays_within_the_operation_bounds():
    profile = cProfile.Profile()
    profile.enable()
    report = run_suite("all", Workspace())
    profile.disable()
    assert report.ok
    assert calls_over(profile, BOUNDS) == {}, "(calls, bound) above the bound"


def test_symbolic_workspace_setup_stays_within_the_operation_bounds():
    ws = Workspace()
    stages = [name for name, v in vars(Workspace).items() if isinstance(v, cached_property)]
    assert len(stages) == 8
    profile = cProfile.Profile()
    profile.enable()
    for name in stages:
        getattr(ws, name)
    profile.disable()
    assert ws.cov_im.special and ws.cov_oct.special and ws.cov_family.special
    assert calls_over(profile, SETUP_BOUNDS) == {}, "(calls, bound) above the bound"
