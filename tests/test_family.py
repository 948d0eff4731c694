"""The sl2 x sl2 family on the tensor product of two symplectic planes."""

import pytest

from specialortho.altmap import AltMap
from specialortho.errors import ZeroParameter
from specialortho.scalars import ALPHA, L1, ONE, rat
from specialortho import family as fam
from specialortho import quadlie as ql
from specialortho import superalg as sup


@pytest.fixture(scope="module")
def special_rep():
    # beta = -1 - alpha keeps one free parameter on the special locus
    return fam.build_family(ALPHA, -ONE - ALPHA)


def test_structure(special_rep):
    rep = special_rep
    assert rep.dim == 6 and rep.space.dim == 4
    assert rep.algebra.super_jacobi_check()["EEE"] == {}
    assert sup.module_witnesses(ql.covariants(rep), "D(2,1;a)", (9, 8)) == {
        "jacobi": None,
        "invariant-form": None,
        "representation": None,
        "skew-action": None,
        "equivariance": None,
        "superalgebra": (None, "1"),
    }
    assert rep.algebra.form_invariance_witness() == {}


def test_module_form_is_hyperbolic(special_rep):
    gram = special_rep.space.gram
    # (v1 w1, v2 w2) = -1, (v1 w2, v2 w1) = +1, all other pairs zero
    expected = {(0, 3): -ONE, (3, 0): -ONE, (1, 2): ONE, (2, 1): ONE}
    for a in range(4):
        for b in range(4):
            assert gram[a][b] == expected.get((a, b), rat(0))


def test_moment_map_closed_form(special_rep):
    mu = ql.moment_map(special_rep)
    assert mu == fam.mu_family_expected(special_rep, ALPHA, -ONE - ALPHA)


def test_moment_map_closed_form_generic():
    # two independent symbols: the closed form solves the defining equation
    # away from the special locus too
    rep = fam.build_family(ALPHA, L1)
    assert ql.moment_map(rep) == fam.mu_family_expected(rep, ALPHA, L1)


def test_special_exactly_on_the_locus():
    rep = fam.build_family(ALPHA, -ONE - ALPHA)
    ok, witness = ql.check_special(rep, ql.moment_map(rep))
    assert ok and witness is None

    generic = fam.build_family(ALPHA, L1)
    ok, witness = ql.check_special(generic, ql.moment_map(generic))
    assert not ok and witness is not None

    ones = fam.build_family(rat(1), rat(1))
    ok, witness = ql.check_special(ones, ql.moment_map(ones))
    assert not ok
    assert witness == "(u,v,w) = (e1, e1, e4) of VxW"


def test_covariants_closed_forms(special_rep):
    cov = ql.covariants(special_rep)
    assert cov.special
    assert cov.psi == fam.psi_family_expected(special_rep, ALPHA)
    assert cov.quad == fam.quad_family_expected(special_rep, ALPHA)


def test_covariants_vanish_at_midpoint():
    rep = fam.build_family(rat(-1, 2), rat(-1, 2))
    cov = ql.covariants(rep)
    assert cov.special
    assert cov.psi.is_zero()
    assert cov.quad.is_zero()


def test_identity_ladder_is_vacuous(special_rep):
    # every rung has degree above four; the report prints them with no witness
    cov = ql.covariants(special_rep)
    checks = ql.mathews_status(cov)
    assert [c.status for c in checks] == ["vacuous"] * 4
    assert all(c.witness is None for c in checks)


def test_swap_symmetry():
    assert fam.swap_family_witness(ALPHA, L1) is None
    assert fam.swap_family_witness(rat(2), rat(-3)) is None


def test_swap_symmetry_names_the_perturbed_index(monkeypatch):
    # mu_ba, of the family with alpha = 2 (its form starts K_V / 2), moved at
    # e_{13}; the swap sends positions 1, 2 of mu_ab there
    def moment_map(rep):
        mu = ql.moment_map(rep)
        if rep.algebra_space.gram[0][0] != rat(1, 2):
            return mu
        coeffs = dict(mu.coeffs)
        coeffs[(1, 3)] = [mu.value((1, 3))[0] + ONE] + mu.value((1, 3))[1:]
        return AltMap(mu.domain, mu.codomain, 2, coeffs)

    monkeypatch.setattr(fam, "moment_map", moment_map)
    witness = fam.swap_family_witness(rat(-3), rat(2))
    assert witness == "the two sides differ at e_{12}"


def test_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        fam.build_family(rat(0), rat(1))
    with pytest.raises(ZeroParameter):
        fam.build_family(rat(1), rat(0))


def test_sl2_moment_values():
    # mu(a1, a1) = -2e, mu(a1, a2) = h, mu(a2, a2) = 2f
    assert fam.mu_plane(0, 0) == [rat(0), rat(-2), rat(0)]
    assert fam.mu_plane(0, 1) == [ONE, rat(0), rat(0)]
    assert fam.mu_plane(1, 0) == [ONE, rat(0), rat(0)]
    assert fam.mu_plane(1, 1) == [rat(0), rat(0), rat(2)]
