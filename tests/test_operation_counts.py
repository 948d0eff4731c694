"""Upper bounds on the field operations of one symbolic ``verify all``.

Counts are deterministic where times are not.  One ``run_suite("all",
Workspace())`` runs under cProfile, and the calls of ``Frac.__mul__``,
``__add__``, ``__sub__`` and ``_sum``, of ``scalars._monomial_sum``,
``scalars.dot``, the polynomial gcd ``scalars._p_gcd`` and the integer
product kernel ``scalars.add_products`` must stay at or below ``BOUNDS``, the
counts measured when the bounds were set.  A change that needs more raises the bound and says why.
"""

import cProfile
import pstats

from specialortho import scalars
from specialortho.suites import Workspace, run_suite

BOUNDS = {
    scalars.Frac.__mul__: 10_789,
    scalars.Frac.__add__: 3_165,
    scalars.Frac.__sub__: 1_609,
    scalars.Frac._sum: 1_782,
    scalars._monomial_sum: 1_090,
    scalars.dot: 1_075,
    scalars._p_gcd: 51,
    scalars.add_products: 5_356,
}


def test_symbolic_verify_all_stays_within_the_operation_bounds():
    profile = cProfile.Profile()
    profile.enable()
    report = run_suite("all", Workspace())
    profile.disable()
    assert report.ok
    stats = pstats.Stats(profile).stats
    over = {}
    for fn, bound in BOUNDS.items():
        code = fn.__code__
        # (primitive calls, all calls, ...) under (file, first line, name)
        calls = stats[code.co_filename, code.co_firstlineno, code.co_name][1]
        assert calls, fn.__qualname__
        if calls > bound:
            over[fn.__qualname__] = (calls, bound)
    assert over == {}, "(calls, bound) above the bound"
