"""Named verification suites over the whole construction.

Each suite builds what it needs from a shared :class:`Workspace`, runs a fixed
list of checks, and returns a :class:`VerificationReport`.  Reports are
deterministic: fixed record order, no timing or addresses in the serialized
forms, so two runs with the same parameter bindings produce byte-identical
text and JSON.

A check either holds, fails (with a witness string naming the first offending
basis tuple), or is vacuous (the identity has higher degree than the space
has dimensions, or it only makes sense on the special locus and the current
bindings are off it).  Proportionality checks additionally record the exact
constant they found.  Every record comes from ``quadlie.run_check``, which
times the whole check, or from ``quadlie.vacuous_check``.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Optional

from .altmap import AltMap, first_difference, hodge_dual, volume_constant, wedge_rel
from .clifford import CliffordAlgebra
from .errors import UnknownSuite
from .exterior import K, all_multi_indices
from .family import (
    build_family,
    mu_family_expected,
    psi_family_expected,
    quad_family_expected,
    swap_family_witness,
)
from .linalg import det, trace_of_product
from .octonions import OctonionAlgebra, build_algebra
from .quadlie import (
    CheckRecord,
    Covariants,
    Outcome,
    QuadLieRep,
    build_g2_rep,
    build_spinor_rep,
    covariants,
    decompose_phi_dual,
    decompose_quad_im,
    decompose_quad_oct,
    g2_cyclic_witness,
    mathews_status,
    mu_can_value,
    mu_im_canonical_split_witness,
    mu_im_pointwise_witness,
    mu_oct_from_mu_im_witness,
    psi_im_expected,
    psi_oct_expected,
    quad_im_expected,
    quad_oct_expected,
    run_check,
    spinor_cyclic_witness,
    vacuous_check,
)
from .scalars import ALPHA, Frac, L1, L2, L3, ZERO, parse, rat, render
from .superalg import module_witnesses

SUITE_NAMES = ("g2", "f4", "d21", "mathews", "hodge", "decompositions")


class VerificationReport:
    """A suite's records under one parameter binding, as text or JSON."""

    def __init__(
        self,
        suite: str,
        parameters: dict[str, str],
        records: Optional[list[CheckRecord]] = None,
    ):
        self.suite = suite
        self.parameters = parameters
        self.records = [] if records is None else records

    @property
    def ok(self) -> bool:
        return all(r.status != "fails" for r in self.records)

    def _summary(self) -> str:
        held = sum(1 for r in self.records if r.status == "holds")
        vac = sum(1 for r in self.records if r.status == "vacuous")
        bad = sum(1 for r in self.records if r.status == "fails")
        parts = [f"{held} hold"]
        if vac:
            parts.append(f"{vac} vacuous")
        if bad:
            parts.append(f"{bad} fail")
        return f"{len(self.records)} checks: " + ", ".join(parts)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines.append(
            "parameters: "
            + ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        )
        lines.extend(r.as_line() for r in self.records)
        lines.append(f"result: {'ok' if self.ok else 'FAIL'} ({self._summary()})")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # only the JSON report needs it

        doc = {
            "suite": self.suite,
            "parameters": self.parameters,
            "records": [r.as_dict() for r in self.records],
            "result": "ok" if self.ok else "fail",
        }
        return json.dumps(doc, indent=2) + "\n"


class Workspace:
    """Construction cache for one binding of (l1, l2, l3, alpha, beta).

    Everything downstream of the octonion algebra is built at most once per
    workspace; suites that share objects (the two octonion representations,
    their covariants) therefore agree on space identities, which the
    alternating-map layer requires.  ``phi_wedge_quad`` is a method, not a
    stage: the checks that read it build it, on first call.
    """

    def __init__(
        self,
        l1: Optional[Frac] = None,
        l2: Optional[Frac] = None,
        l3: Optional[Frac] = None,
        alpha: Optional[Frac] = None,
        beta: Optional[Frac] = None,
    ):
        self.l1 = L1 if l1 is None else l1
        self.l2 = L2 if l2 is None else l2
        self.l3 = L3 if l3 is None else l3
        self.alpha = ALPHA if alpha is None else alpha
        self.beta = (rat(-1) - self.alpha) if beta is None else beta
        self._phi_wedge_quad: Optional[tuple[Covariants, AltMap]] = None

    def parameters(self) -> dict[str, str]:
        return {
            "l1": render(self.l1),
            "l2": render(self.l2),
            "l3": render(self.l3),
            "alpha": render(self.alpha),
            "beta": render(self.beta),
        }

    @cached_property
    def octs(self) -> OctonionAlgebra:
        return build_algebra(self.l1, self.l2, self.l3)

    @cached_property
    def cliff(self) -> CliffordAlgebra:
        return CliffordAlgebra(self.octs)

    @cached_property
    def _g2(self):
        return build_g2_rep(self.cliff)

    @property
    def g2_rep(self) -> QuadLieRep:
        return self._g2[0]

    @property
    def g2_kernel(self):
        return self._g2[1]

    @cached_property
    def cov_im(self) -> Covariants:
        return covariants(self.g2_rep)

    @cached_property
    def so7_rep(self) -> QuadLieRep:
        return build_spinor_rep(self.cliff)

    @cached_property
    def cov_oct(self) -> Covariants:
        return covariants(self.so7_rep)

    @cached_property
    def family_rep(self) -> QuadLieRep:
        return build_family(self.alpha, self.beta)

    @cached_property
    def cov_family(self) -> Covariants:
        return covariants(self.family_rep)

    def phi_wedge_quad(self) -> AltMap:
        """phi ^ Q on the seven-dimensional module, computed once for each
        ``cov_im`` the workspace holds."""
        cov = self.cov_im
        if self._phi_wedge_quad is None or self._phi_wedge_quad[0] is not cov:
            self._phi_wedge_quad = (cov, wedge_rel(self.octs.phi, cov.quad))
        return self._phi_wedge_quad[1]


class Module:
    """One special orthogonal module V of g, and g + sl2 + V (x) k^2.

    ``key`` is the superalgebra's export key and ``g`` g's (or None);
    ``rep`` and ``cov`` name the Workspace stages of the representation and
    of its covariants.  Record names start with ``prefix``, and the Mathews
    rungs' with ``mathews-{infix}-``.  The superalgebra is built as
    ``label``, its record states ``closes`` at the paper's ``dims`` (stored,
    not computed, so that module_witnesses' comparison can fail), and
    ``export`` prints ``bindings``: printed name -> Workspace attribute.
    """

    def __init__(self, key, g, rep, cov, prefix, infix, label, dims, closes, bindings):
        self.key, self.g, self.rep, self.cov = key, g, rep, cov
        self.prefix, self.infix, self.label, self.dims = prefix, infix, label, dims
        self.closes, self.bindings = closes, bindings


_WEIGHTS = {"l1": "l1", "l2": "l2", "l3": "l3"}
# Kac's list as the reports build it: export key -> module, in report order
MODULES = {
    m.key: m
    for m in (
        Module(
            "g3", "g2", "g2_rep", "cov_im", "g2", "im", "G3", (17, 14),
            "g + sl2 + Im(O) (x) k^2 closes as a quadratic superalgebra", _WEIGHTS,
        ),
        Module(
            "f4", "so7", "so7_rep", "cov_oct", "spin", "oct", "F4", (24, 16),
            "g + sl2 + O (x) k^2 closes as a quadratic superalgebra", _WEIGHTS,
        ),
        Module(
            "d21", None, "family_rep", "cov_family", "d21", "family", "D(2,1;a)",
            (9, 8), "sl2 (+) sl2 (+) sl2-plane assembly closes",
            {"a": "alpha", "b": "beta"},
        ),
    )
}


def _vanishing_witness(f: AltMap) -> Optional[str]:
    """first_difference of f from the zero map of its shape."""
    return first_difference(f, f.scale(ZERO))


def _psi_shortcut_witness(cov: Covariants) -> Optional[str]:
    space = cov.rep.space
    three = rat(3)
    want = {}
    for index in all_multi_indices(space.dim, 3):
        i, j, k = (t - 1 for t in index)
        want[index] = [
            three * (x - y)
            for x, y in zip(cov.mu_act.vector(i, j, k), mu_can_value(space, i, j, k))
        ]
    return first_difference(cov.psi, AltMap(space, space, 3, want))


def _quad_shortcut_witness(cov: Covariants) -> Optional[str]:
    space = cov.rep.space
    four = rat(4)
    want = {}
    for index in all_multi_indices(space.dim, 4):
        first = space.basis_vector(index[0] - 1)
        want[index] = [four * space.pair(first, cov.psi.value(index[1:]))]
    return first_difference(cov.quad, AltMap(space, K, 4, want))


def _shortcut_records(prefix: str, cov: Covariants) -> list[CheckRecord]:
    """The closed shortcuts psi = 3 (mu - mu_can) and Q = 4 (v1, psi(...))."""
    return [
        run_check(
            f"{prefix}-psi-shortcut",
            "psi = 3 (mu - mu_can)",
            lambda: _psi_shortcut_witness(cov),
        ),
        run_check(
            f"{prefix}-quad-shortcut",
            "Q(v1,v2,v3,v4) = 4 (v1, psi(v2,v3,v4))",
            lambda: _quad_shortcut_witness(cov),
        ),
    ]


def module_records(
    module: Module,
    cov: Covariants,
    *,
    before_equivariance: Callable[[], Iterable[CheckRecord]] = tuple,
    special: str = "mu(u,v)w + mu(u,w)v = (u,v)w + (u,w)v - 2(v,w)u",
    closed_forms: Callable[[], Iterable[CheckRecord]],
) -> list[CheckRecord]:
    """The records of ``module`` on cov, run in report order: the structure
    of the representation, ``before_equivariance``, equivariance and special
    orthogonality (stated as ``special``) of the moment map, the
    ``closed_forms``, and the record that g + sl2 + V (x) k^2 closes at the
    module's dimensions.  The Jacobi, invariant-form, representation,
    skew-action, equivariance and superalgebra records read the one build
    and two scans of ``module_witnesses``, run by the first of them."""
    prefix, dims = module.prefix, module.dims
    witnesses = cache(lambda: module_witnesses(cov, module.label, dims))
    return [
        run_check(
            f"{prefix}-jacobi",
            "bracket table satisfies the Jacobi identity",
            lambda: witnesses()["jacobi"],
        ),
        run_check(
            f"{prefix}-invariant-form",
            "B_g([x,y], z) = B_g(x, [y,z]) on all basis triples",
            lambda: witnesses()["invariant-form"],
        ),
        run_check(
            f"{prefix}-representation",
            "action matrices realize the bracket table",
            lambda: witnesses()["representation"],
        ),
        run_check(
            f"{prefix}-skew-action",
            "(x v, w) + (v, x w) = 0 for the module form",
            lambda: witnesses()["skew-action"],
        ),
        *before_equivariance(),
        run_check(
            f"{prefix}-equivariance",
            "mu(x v, w) + mu(v, x w) = [x, mu(v,w)]",
            lambda: witnesses()["equivariance"],
        ),
        run_check(
            f"{prefix}-special",
            special,
            lambda: None if cov.special else cov.witness,
        ),
        *closed_forms(),
        run_check(
            f"{module.key}-superalgebra",
            f"{module.closes}, dimension {dims[0]}|{dims[1]}",
            lambda: witnesses()["superalgebra"],
        ),
    ]


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def _suite_g2(ws: Workspace) -> list[CheckRecord]:
    rep, cov, octs = ws.g2_rep, ws.cov_im, ws.octs

    def closed_forms() -> Iterator[CheckRecord]:
        yield run_check(
            "g2-moment-closed-form",
            "mu(u,v)w = -1/4 ([w,[u,v]] + 3 (u,v,w))",
            lambda: mu_im_pointwise_witness(octs, cov.mu_act),
        )
        yield run_check(
            "g2-moment-split",
            "mu(u,v)w = (3/2) mu_can(u,v)w + (1/8) [w,[u,v]]",
            lambda: mu_im_canonical_split_witness(octs, cov.mu_act),
        )
        yield run_check(
            "g2-cyclic-vanishing",
            "mu(u,v)w + mu(v,w)u + mu(w,u)v = 0",
            lambda: g2_cyclic_witness(octs, cov.mu),
        )
        yield run_check(
            "g2-psi-closed-form",
            "psi(v1,v2,v3) = -3/4 (v1,v2,v3)",
            lambda: first_difference(cov.psi, psi_im_expected(octs)),
        )
        yield run_check(
            "g2-quad-closed-form",
            "Q(v1,v2,v3,v4) = -3 B(v1, (v2,v3,v4))",
            lambda: first_difference(cov.quad, quad_im_expected(octs)),
        )
        yield from _shortcut_records("g2", cov)

    return [
        run_check(
            "g2-dimension",
            "annihilator of the unit in the degree-two component has dimension 14",
            lambda: None if rep.dim == 14 else f"dim = {rep.dim}",
        ),
        *module_records(MODULES["g3"], cov, closed_forms=closed_forms),
    ]


def _suite_f4(ws: Workspace) -> list[CheckRecord]:
    octs, cliff = ws.octs, ws.cliff
    rep, cov = ws.so7_rep, ws.cov_oct

    gram = octs.space_oct.gram

    @cache
    def c_columns() -> list:
        """The spin columns of the c_u, built once for the checks below."""
        return [cliff.spinor_action(c) for c in cliff.w_basis()]

    def splitting() -> Optional[str]:
        # rho(x) vanishes on the unit row and column (build_g2_rep checks it), so
        # the g2 action table's 7x7 columns pair with the c_u columns' 7x7 blocks
        kernel = ws.g2_rep.act.table
        w_blocks = [[col[1:] for col in c[1:]] for c in c_columns()]
        for t, columns in enumerate(kernel, 1):
            for i, block in enumerate(w_blocks, 1):
                if trace_of_product(columns, block).num:
                    return f"Tr(rho(d{t}) rho(c_e{i})) != 0"
        return None

    def omega_action() -> Optional[str]:
        omega = cliff.spinor_action(cliff.omega())
        if omega[0] != octs.from_term(0, rat(-7)).coeffs:
            return "rho(Omega)(1) != -7"
        for i in range(1, 8):
            if omega[i] != octs.unit(i).coeffs:
                return f"rho(Omega)(e{i}) != e{i}"
        return None

    def c_action() -> Optional[str]:
        # rho(c_e_i) e_j is one term at i xor j, plus 6 B(e_i, e_j) at the
        # unit where that Gram entry is nonzero
        two, six, minus_six = rat(2), rat(6), rat(-6)
        for i, cu in enumerate(c_columns(), 1):
            if cu[0] != octs.from_term(i, minus_six).coeffs:
                return f"rho(c_e{i})(1) != -6 e{i}"
            for j in range(1, 8):
                k, c = octs.unit_cross(i, j)
                want = octs.from_term(k, two * c).coeffs
                if gram[i][j].num:
                    want[0] = want[0] + six * gram[i][j]
                if cu[j] != want:
                    return f"rho(c_e{i})(e{j}) != 2 e{i} x e{j} + 6 B(e{i},e{j})"
        return None

    def trace_form() -> Optional[str]:
        minus_96 = rat(-96)
        w_cols = c_columns()
        for i in range(1, 8):
            for j in range(i, 8):
                got, b = trace_of_product(w_cols[i - 1], w_cols[j - 1]), gram[i][j]
                if got != (minus_96 * b if b.num else ZERO):
                    return f"(u,v) = (e{i}, e{j})"
        return None

    def quad_on_imaginaries(head: tuple, degree: int) -> AltMap:
        """(v1, ..., v_degree) -> Q_O(head + (v1, ..., v_degree)) on Im(O)."""
        coeffs = {
            index: cov.quad.value(head + tuple(t + 1 for t in index))
            for index in all_multi_indices(7, degree)
        }
        return AltMap(octs.space_im, K, degree, coeffs)

    def quad_restriction() -> Optional[str]:
        return first_difference(
            quad_on_imaginaries((), 4), ws.cov_im.quad.scale(rat(2, 3))
        )

    def quad_unit() -> Optional[str]:
        # Q_O(v1, v2, v3, 1) = -Q_O(1, v1, v2, v3): moving the unit is odd
        return first_difference(quad_on_imaginaries((1,), 3), octs.phi.scale(rat(4)))

    def closed_forms() -> Iterator[CheckRecord]:
        yield run_check(
            "spin-moment-from-g2",
            "mu_O(u,v) = (8/9) mu_Im(u,v) + (1/18) c_{u x v} and mu_O(u,1) = (1/6) c_u",
            lambda: mu_oct_from_mu_im_witness(
                octs, cliff, ws.g2_kernel, ws.cov_im.mu, cov.mu
            ),
        )
        yield run_check(
            "spin-cyclic",
            "sum_cyc mu(u,v)w = (u,v)w + (u,w)v + (v,w)u - 3 B(u x v, w)",
            lambda: spinor_cyclic_witness(octs, cov.mu),
        )
        yield run_check(
            "spin-psi-closed-form",
            "psi = -(1/2)(u,v,w) + phi(u,v,w) 1 on imaginaries; psi(v1,v2,1) = -v1 x v2",
            lambda: first_difference(cov.psi, psi_oct_expected(octs)),
        )
        yield run_check(
            "spin-quad-closed-form",
            "Q on imaginaries = (2/3) Q_Im; unit slot reduces to -4 phi",
            lambda: first_difference(cov.quad, quad_oct_expected(octs)),
        )
        yield run_check(
            "spin-quad-restriction",
            "Q_O(v1,v2,v3,v4) = (2/3) Q_Im(v1,v2,v3,v4) on imaginaries",
            quad_restriction,
        )
        yield run_check(
            "spin-quad-unit",
            "Q_O(v1,v2,v3,1) = -4 phi(v1,v2,v3)",
            quad_unit,
        )
        yield from _shortcut_records("spin", cov)

    return [
        run_check(
            "clifford-pair-dimension",
            "degree-two component of the even Clifford algebra has dimension 21",
            lambda: None
            if len(cliff.pair_basis()) == 21
            else f"dim = {len(cliff.pair_basis())}",
        ),
        run_check(
            "clifford-splitting",
            "C2 = g (+) W with dimensions 14 + 7, orthogonal under Tr(rho . rho .)",
            splitting,
        ),
        run_check(
            "clifford-forms-nonsingular",
            "the trace forms on g and on C2/g-part are nondegenerate",
            lambda: None
            if det(ws.g2_rep.algebra_space.gram).num
            and det(rep.algebra_space.gram).num
            else "a Gram determinant vanishes",
        ),
        run_check(
            "clifford-omega-spin",
            "rho(Omega) = -7 on the unit and +1 on every imaginary unit",
            omega_action,
        ),
        run_check(
            "clifford-c-action",
            "rho(c_u)(1) = -6u and rho(c_u)(v) = 2 u x v + 6 B(u,v)",
            c_action,
        ),
        run_check(
            "clifford-trace-form",
            "Tr(rho(c_u) rho(c_v)) = -96 B(u,v)",
            trace_form,
        ),
        *module_records(MODULES["f4"], cov, closed_forms=closed_forms),
    ]


def _suite_d21(ws: Workspace) -> list[CheckRecord]:
    rep, cov = ws.family_rep, ws.cov_family

    def on_locus(name: str, statement: str, fn: Callable[[], Outcome]) -> CheckRecord:
        if cov.special:
            return run_check(name, statement, fn)
        return vacuous_check(
            name, statement, "stated on the special locus beta = -1 - alpha only"
        )

    def closed_forms() -> Iterator[CheckRecord]:
        yield on_locus(
            "d21-psi-closed-form",
            "psi = 3 (2 alpha + 1) (omega-weighted projector difference)",
            lambda: first_difference(cov.psi, psi_family_expected(rep, ws.alpha)),
        )
        yield on_locus(
            "d21-quad-closed-form",
            "Q = -12 (2 alpha + 1) omega (x) omega-symmetrization",
            lambda: first_difference(cov.quad, quad_family_expected(rep, ws.alpha)),
        )
        if ws.alpha == rat(-1, 2) and cov.special:
            yield run_check(
                "d21-covariants-vanish",
                "psi and Q vanish identically at alpha = -1/2",
                lambda: _vanishing_witness(cov.psi)
                or _vanishing_witness(cov.quad),
            )
        yield run_check(
            "d21-swap-symmetry",
            "swapping the tensor factors exchanges (alpha, beta) up to the flip sign",
            lambda: swap_family_witness(ws.alpha, ws.beta),
        )

    return [
        run_check(
            "d21-dimensions",
            "algebra sl2 (+) sl2 has dimension 6 acting on the 4-dimensional V (x) W",
            lambda: None
            if (rep.dim, rep.space.dim) == (6, 4)
            else f"dims {rep.dim}, {rep.space.dim}",
        ),
        *module_records(
            MODULES["d21"],
            cov,
            before_equivariance=lambda: [
                run_check(
                    "d21-moment-closed-form",
                    "mu(v1 (x) w1, v2 (x) w2) = omega(w1,w2)/(2 alpha) mu_V + omega(v1,v2)/(2 beta) mu_W",
                    lambda: first_difference(
                        cov.mu, mu_family_expected(rep, ws.alpha, ws.beta)
                    ),
                )
            ],
            special="special orthogonality holds exactly when beta = -1 - alpha",
            closed_forms=closed_forms,
        ),
    ]


def _suite_mathews(ws: Workspace) -> list[CheckRecord]:
    records = [
        record
        for m in MODULES.values()
        for record in mathews_status(getattr(ws, m.cov), f"mathews-{m.infix}-")
    ]
    cov = ws.cov_im
    return [
        *records,
        run_check(
            "mathews-im-compose-zero",
            "mu o psi = 0 on the seven-dimensional module",
            lambda: _vanishing_witness(cov.mu_compose_psi),
        ),
        run_check(
            "mathews-im-wedge-zero",
            "Q ^ mu = 0 on the seven-dimensional module",
            lambda: _vanishing_witness(cov.quad_wedge_mu),
        ),
    ]


# ---------------------------------------------------------------------------
# Hodge duals
# ---------------------------------------------------------------------------


_NOT_PROPORTIONAL = "dual is not a multiple of the target"


class HodgeRow:
    """One claim star(f) = c * target, with the published value of c if any.

    ``computed`` is the exact c, or None when the dual is not a multiple of
    the target.  The dual and the target are computed on first access.
    """

    def __init__(
        self,
        name: str,
        statement: str,
        reference: Optional[str],
        solve: Callable[[], Optional[Frac]],
    ):
        self.name = name
        self.statement = statement
        self.reference = reference
        self.solve = solve

    @cached_property
    def computed(self) -> Optional[Frac]:
        return self.solve()

    def outcome(self) -> Outcome:
        if self.computed is None:
            return _NOT_PROPORTIONAL, None
        return None, render(self.computed)

    @property
    def note(self) -> str:
        if self.computed is None:
            return _NOT_PROPORTIONAL
        if self.reference is None:
            return "no reference value given"
        ref = parse(self.reference)
        if ref == self.computed:
            return "matches the reference value"
        ratio = ref / self.computed
        return (
            f"reference is exactly {render(ratio)} times the computed constant; "
            "the defining relation was re-verified for every basis input"
        )


def _proportionality(star: AltMap, target: AltMap) -> Optional[Frac]:
    """Exact c with star == c * target, or None.

    c is read at the first nonzero coefficient of the target; then star and
    c * target are compared coefficient by coefficient, with a product only
    where the target is nonzero, up to the first difference.
    """
    if (
        star.domain is not target.domain
        or star.codomain is not target.codomain
        or star.degree != target.degree
    ):
        return None
    if not star.coeffs:
        return ZERO
    if star.coeffs.keys() != target.coeffs.keys():
        return None
    entries = sorted(target.coeffs.items())
    I, k, c = next((I, k, c) for I, vec in entries for k, c in enumerate(vec) if c.num)
    ratio = star.coeffs[I][k] / c
    for I, vec in entries:
        for s, c in zip(star.coeffs[I], vec):
            if (s != ratio * c) if c.num else s.num:
                return None
    return ratio


def hodge_rows(ws: Workspace) -> list[HodgeRow]:
    """The Hodge claims on the seven- and eight-dimensional modules.

    No dual is taken here: each row computes its dual and target when its
    constant is first read.  The volume form of a module, and the dual of
    each map against it, are computed once, by the first row that needs it.
    """
    rows: list[HodgeRow] = []

    def dual(f: AltMap, volume: Callable[[], AltMap]) -> Callable[[], AltMap]:
        return cache(lambda: hodge_dual(f, volume()))

    def add(
        name: str,
        statement: str,
        star: Callable[[], AltMap],
        target: Callable[[], AltMap],
        reference: Optional[str],
    ) -> None:
        def solve() -> Optional[Frac]:
            return _proportionality(star(), target())

        rows.append(HodgeRow(name, statement, reference, solve))

    # seven-dimensional module: volume phi ^ Q
    rep, cov, octs = ws.g2_rep, ws.cov_im, ws.octs
    im = rep.space
    ident = AltMap.identity(im)
    vol = ws.phi_wedge_quad
    star_cross = dual(octs.cross, vol)
    add(
        "hodge-im-cross-quad-id",
        "star(cross) = c (Q ^ Id) on the seven-dimensional module",
        star_cross,
        lambda: cov.quad_wedge_id,
        "147/8",
    )
    add(
        "hodge-im-cross-mu-psi",
        "star(cross) = c (mu ^_rho psi) on the seven-dimensional module",
        star_cross,
        lambda: cov.mu_wedge_psi,
        "-49/4",
    )
    add(
        "hodge-im-id-phi-psi",
        "star(Id) = c (phi ^ psi)",
        dual(ident, vol),
        lambda: wedge_rel(octs.phi, cov.psi),
        None,
    )
    add(
        "hodge-im-mu-phi-mu",
        "star(mu) = c (phi ^ mu)",
        dual(cov.mu, vol),
        lambda: wedge_rel(octs.phi, cov.mu),
        None,
    )
    add(
        "hodge-im-psi-phi-id",
        "star(psi) = c (phi ^ Id)",
        dual(cov.psi, vol),
        lambda: wedge_rel(octs.phi, ident),
        None,
    )

    # eight-dimensional module: volume Q ^ Q
    rep8, cov8 = ws.so7_rep, ws.cov_oct
    ident8 = AltMap.identity(rep8.space)

    def vol8() -> AltMap:
        return cov8.quad_wedge_quad

    star_psi8, star_mu8 = dual(cov8.psi, vol8), dual(cov8.mu, vol8)
    add(
        "hodge-oct-psi-quad-id",
        "star(psi) = c (Q ^ Id) on the eight-dimensional module",
        star_psi8,
        lambda: cov8.quad_wedge_id,
        "-56",
    )
    add(
        "hodge-oct-psi-mu-psi",
        "star(psi) = c (mu ^_rho psi) on the eight-dimensional module",
        star_psi8,
        lambda: cov8.mu_wedge_psi,
        "112/3",
    )
    add(
        "hodge-oct-mu-quad-mu",
        "star(mu) = c (Q ^ mu) on the eight-dimensional module",
        star_mu8,
        lambda: cov8.quad_wedge_mu,
        "-56",
    )
    add(
        "hodge-oct-mu-compose",
        "star(mu) = c (mu o psi) on the eight-dimensional module",
        star_mu8,
        lambda: cov8.mu_compose_psi,
        "-56/3",
    )
    add(
        "hodge-oct-id-quad-psi",
        "star(Id) = c (Q ^ psi)",
        dual(ident8, vol8),
        lambda: wedge_rel(cov8.quad, cov8.psi),
        None,
    )
    return rows


def _suite_hodge(ws: Workspace) -> list[CheckRecord]:
    out = []
    for row in hodge_rows(ws):
        record = run_check(row.name, row.statement, row.outcome)
        if record.status == "holds":
            record.statement += f" [{row.note}]"
        out.append(record)
    return out


def hodge_report(ws: Workspace) -> str:
    """Constants table: computed proportionality factors vs reference values."""
    rows = hodge_rows(ws)
    name_w = max(len(r.name) for r in rows)
    const_w = max(len(render(r.computed)) if r.computed is not None else 1 for r in rows)
    ref_w = max(len(r.reference or "-") for r in rows)
    lines = [
        f"{'claim':<{name_w}}  {'computed':>{const_w + 2}}  {'reference':>{ref_w + 2}}  note"
    ]
    for r in rows:
        comp = render(r.computed) if r.computed is not None else "?"
        ref = r.reference or "-"
        lines.append(
            f"{r.name:<{name_w}}  {comp:>{const_w + 2}}  {ref:>{ref_w + 2}}  {r.note}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

# index-raised associative form: seven terms, one per projective line
PHI_DUAL_REFERENCE = {
    (1, 2, 3): ("1/(l1*l2)", "line {1,2,3}"),
    (1, 4, 5): ("1/(l1*l3)", "line {1,4,5}"),
    (1, 6, 7): ("-1/(l1*l2*l3)", "line {1,6,7}"),
    (2, 4, 6): ("1/(l2*l3)", "line {2,4,6}"),
    (2, 5, 7): ("1/(l1*l2*l3)", "line {2,5,7}"),
    (3, 4, 7): ("1/(l1*l2*l3)", "line {3,4,7}"),
    (3, 5, 6): ("-1/(l1*l2*l3)", "line {3,5,6}"),
}

# index-raised degree-four invariant on the seven-dimensional module
QUAD_IM_REFERENCE = {
    (1, 2, 4, 7): ("6/(l1*l2*l3)", "complement of line {3,5,6}"),
    (1, 2, 5, 6): ("-6/(l1*l2*l3)", "complement of line {3,4,7}"),
    (1, 3, 4, 6): ("-6/(l1*l2*l3)", "complement of line {2,5,7}"),
    (1, 3, 5, 7): ("-6/(l1^2*l2*l3)", "complement of line {2,4,6}"),
    (2, 3, 4, 5): ("6/(l1*l2*l3)", "complement of line {1,6,7}"),
    (2, 3, 6, 7): ("-6/(l1*l2^2*l3)", "complement of line {1,4,5}"),
    (4, 5, 6, 7): ("-6/(l1*l2*l3^2)", "complement of line {1,2,3}"),
}

# index-raised degree-four invariant on the eight-dimensional module;
# every support set is an affine plane of the 1..8 cube labeling
QUAD_OCT_REFERENCE = {
    (1, 2, 3, 4): ("4/(l1*l2)", "affine plane {1,2,3,4}"),
    (1, 2, 5, 6): ("4/(l1*l3)", "affine plane {1,2,5,6}"),
    (1, 2, 7, 8): ("-4/(l1*l2*l3)", "affine plane {1,2,7,8}"),
    (1, 3, 5, 7): ("4/(l2*l3)", "affine plane {1,3,5,7}"),
    (1, 3, 6, 8): ("4/(l1*l2*l3)", "affine plane {1,3,6,8}"),
    (1, 4, 5, 8): ("4/(l1*l2*l3)", "affine plane {1,4,5,8}"),
    (1, 4, 6, 7): ("-4/(l1*l2*l3)", "affine plane {1,4,6,7}"),
    (2, 3, 5, 8): ("4/(l1*l2*l3)", "affine plane {2,3,5,8}"),
    (2, 3, 6, 7): ("-4/(l1*l2*l3)", "affine plane {2,3,6,7}"),
    (2, 4, 5, 7): ("-4/(l1*l2*l3)", "affine plane {2,4,5,7}"),
    (2, 4, 6, 8): ("-4/(l1^2*l2*l3)", "affine plane {2,4,6,8}"),
    (3, 4, 5, 6): ("4/(l1*l2*l3)", "affine plane {3,4,5,6}"),
    (3, 4, 7, 8): ("-4/(l1*l2^2*l3)", "affine plane {3,4,7,8}"),
    (5, 6, 7, 8): ("-4/(l1*l2*l3^2)", "affine plane {5,6,7,8}"),
}


def _lambda_bindings(ws: Workspace) -> dict:
    return {
        name: value
        for name, value in (("l1", ws.l1), ("l2", ws.l2), ("l3", ws.l3))
        if value.is_constant()
    }


def _decomposition_witness(ws, terms, reference) -> Optional[str]:
    bindings = _lambda_bindings(ws)
    got = {t.index: (t.coefficient, t.annotation) for t in terms}
    if set(got) != set(reference):
        return f"support sets differ: {sorted(set(got) ^ set(reference))}"
    for index, (coeff_text, annotation) in reference.items():
        want = parse(coeff_text).substitute(bindings)
        coeff, got_annotation = got[index]
        if coeff != want:
            return f"coefficient at {index}"
        if got_annotation != annotation:
            return f"annotation at {index}"
    return None


def _suite_decompositions(ws: Workspace) -> list[CheckRecord]:
    octs = ws.octs

    def top(volume: AltMap, coeff_text: str) -> Outcome:
        got = volume_constant(volume)
        want = parse(coeff_text).substitute(_lambda_bindings(ws))
        return (None if got == want else f"got {render(got)}"), render(got)

    return [
        run_check(
            "dec-phi",
            "eta^-1(phi) has the published seven terms, one per line",
            lambda: _decomposition_witness(
                ws, decompose_phi_dual(octs), PHI_DUAL_REFERENCE
            ),
        ),
        run_check(
            "dec-quad-im",
            "eta^-1(Q_Im) has the published seven terms on line complements",
            lambda: _decomposition_witness(
                ws, decompose_quad_im(octs, ws.cov_im.quad), QUAD_IM_REFERENCE
            ),
        ),
        run_check(
            "dec-quad-oct",
            "eta^-1(Q_O) has the published fourteen terms on affine planes",
            lambda: _decomposition_witness(
                ws, decompose_quad_oct(ws.cov_oct.quad), QUAD_OCT_REFERENCE
            ),
        ),
        run_check(
            "dec-top-phi-quad",
            "phi ^ Q (e1,...,e7) = -42 l1^2 l2^2 l3^2",
            lambda: top(ws.phi_wedge_quad(), "-42*l1^2*l2^2*l3^2"),
        ),
        run_check(
            "dec-top-quad-quad",
            "Q ^ Q (e1,...,e8) = -224 l1^2 l2^2 l3^2",
            lambda: top(ws.cov_oct.quad_wedge_quad, "-224*l1^2*l2^2*l3^2"),
        ),
    ]


_SUITES: dict[str, Callable[[Workspace], list[CheckRecord]]] = {
    "g2": _suite_g2,
    "f4": _suite_f4,
    "d21": _suite_d21,
    "mathews": _suite_mathews,
    "hodge": _suite_hodge,
    "decompositions": _suite_decompositions,
}


def run_suite(name: str, workspace: Optional[Workspace] = None) -> VerificationReport:
    """Run one named suite (or "all") against a workspace binding."""
    ws = workspace or Workspace()
    if name == "all":
        records = []
        for suite in SUITE_NAMES:
            records.extend(_SUITES[suite](ws))
        return VerificationReport("all", ws.parameters(), records)
    runner = _SUITES.get(name)
    if runner is None:
        known = ", ".join(SUITE_NAMES + ("all",))
        raise UnknownSuite(f"unknown suite {name!r}; expected one of: {known}")
    return VerificationReport(name, ws.parameters(), runner(ws))
