"""Lie superalgebras from special orthogonal moment maps.

Given a quadratic representation whose moment map is special orthogonal, the
space g + sl2 + V (x) k^2 closes into a Lie superalgebra: the even part acts
on the odd part through rho and the defining plane, and the odd bracket is

    {v (x) a, w (x) b} = omega(a, b) mu(v, w) + (v, w) mu_s(a, b)

up to one global scale solved from invariance of the supersymmetric form.
The three orthogonal families produce D(2,1;alpha) from the tensor product
of symplectic planes, the 17|14-dimensional algebra from the imaginary
octonions, and the 24|16-dimensional one from the full octonions.

The graded Jacobi identity of the assembly, sector by sector, is every
identity of the module: EEE is the Jacobi identity of g, EEO the
representation property of rho, EOO at outputs in g the equivariance of mu
and at outputs in sl2 the skewness of rho for the module form, and OOO the
special condition; the EEE sector of the form scan is the invariance of
B_g.  module_witnesses reads them all from one build and its two scans.

The bracket table type, SuperAlgebra, is defined in quadlie, where the Lie
algebra g of every representation is already one (purely even); it is
re-exported here.  build_tilde seeds the even part with g's table and form.
The Jacobi scan accumulates, for each pair x <= y, every z >= y at once,
and the form scan, for each x, every (y, z), on the cleared integer rows by
scalars.add_products; both read the rows of each element as flat terms, the
Jacobi scan sorted by z with z's offset in the key, so each term of J is one
slice from z >= y.  Both meet the failing triples in the order of a scan one
triple at a time.  import_superalgebra raises ParseError for every
malformed document, a basis or form of the wrong shape included.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .errors import NotSpecial, ParseError, ShapeMismatch
from .family import (
    mu_plane,
    omega_plane,
    sl2_bracket_table,
    sl2_half_trace_gram,
    sl2_plane_action,
)
from .quadlie import Covariants, Outcome, SuperAlgebra
from .scalars import Frac, ZERO, dot, parse as parse_scalar


def _odd_index(g_dim: int, i: int, s: int) -> int:
    """Position of v_i (x) a_{s+1} in g + sl2 + V (x) k^2, for dim g = g_dim."""
    return g_dim + 3 + 2 * i + s


_ZERO_SCALE = "invariance of the form leaves no nonzero scale for the odd bracket"


def _not_special(cov: Covariants) -> str:
    return f"moment map is not special orthogonal at {cov.witness}"


def build_tilde(cov: Covariants, name: str, force: bool = False) -> SuperAlgebra:
    """Assemble g + sl2 + V (x) k^2 from a representation's covariants.

    Raises NotSpecial, naming cov.witness, unless cov.special holds; the
    special orthogonality of the moment map was already decided when the
    covariants were computed.  force=True builds anyway (the all-odd Jacobi
    sector then records the failure).  When invariance of the form leaves
    no nonzero scale for the odd bracket, raises ShapeMismatch, or with
    force=True keeps the unscaled odd-odd rows and sets ``odd_odd_scale``
    to zero.
    """
    if not cov.special and not force:
        raise NotSpecial(_not_special(cov))
    rep, mu = cov.rep, cov.mu
    g = rep.algebra
    g_dim = g.dim
    v_dim = rep.space.dim
    even_dim = g_dim + 3
    gram_v = rep.space.gram
    even_labels = list(g.even_labels) + ["h", "e", "f"]
    odd_labels = [
        f"{rep.space.labels[i]}*a{s+1}" for i in range(v_dim) for s in range(2)
    ]
    brackets = {key: dict(row) for key, row in g.table.items()}
    for (i, j), row in sl2_bracket_table().items():
        brackets[(g_dim + i, g_dim + j)] = {g_dim + k: c for k, c in row.items()}
    # even-odd: g through the action, sl2 through the defining plane
    for a, rows in enumerate(rep.act.table):
        for i, col in enumerate(rows):
            for s in range(2):
                row_s = {_odd_index(g_dim, r, s): c for r, c in enumerate(col) if c.num}
                if row_s:
                    brackets[(a, _odd_index(g_dim, i, s))] = row_s
    for t, cols in enumerate(sl2_plane_action()):
        for i in range(v_dim):
            for s, col in enumerate(cols):
                row = {_odd_index(g_dim, i, r): c for r, c in enumerate(col) if c.num}
                if row:
                    brackets[(g_dim + t, _odd_index(g_dim, i, s))] = row
    # the unscaled odd-odd rows at p <= q: omega(a, b) mu(v, w), which
    # vanishes unless v != w and a != b, plus (v, w) mu_s(a, b)
    oo_rows: dict[tuple[int, int], dict[int, Frac]] = {}
    for i, j in combinations(range(v_dim), 2):
        vals = {k: c for k, c in enumerate(mu.value((i + 1, j + 1))) if c.num}
        if vals:
            for s in range(2):
                w = omega_plane(s, 1 - s)
                p, q = _odd_index(g_dim, i, s), _odd_index(g_dim, j, 1 - s)
                oo_rows[(p, q)] = {k: w * c for k, c in vals.items()}
    for i in range(v_dim):
        for j in range(i, v_dim):
            b = gram_v[i][j]
            for s in range(2):
                for t in range(2):
                    p, q = _odd_index(g_dim, i, s), _odd_index(g_dim, j, t)
                    if b.num and q >= p:
                        row = oo_rows.setdefault((p, q), {})
                        for k, c in enumerate(mu_plane(s, t)):
                            if c.num:
                                row[g_dim + k] = b * c
    # the form: B_g, the sl2 block, and (v, w) omega(a, b) on odd
    dim = even_dim + 2 * v_dim
    form = [[ZERO] * dim for _ in range(dim)]
    for i in range(g_dim):
        form[i][:g_dim] = g.form[i]
    s_gram = sl2_half_trace_gram()
    for i in range(3):
        for j in range(3):
            if s_gram[i][j].num:
                form[g_dim + i][g_dim + j] = s_gram[i][j]
    for i in range(v_dim):
        for j in range(v_dim):
            if gram_v[i][j].num:
                for s in range(2):
                    p, q = _odd_index(g_dim, i, s), _odd_index(g_dim, j, 1 - s)
                    form[p][q] = gram_v[i][j] * omega_plane(s, 1 - s)
    # solve the odd-odd scale from invariance: B(p, [q, x]) = c B(OO(p,q), x)
    scale = None
    for (p, q), row in sorted(oo_rows.items()):
        for x in range(even_dim):
            den = dot((c, form[m][x]) for m, c in row.items())
            if not den.num:
                continue
            # [q, x] = -[x, q] from the stored even-odd rows
            qx = brackets.get((x, q), {})
            scale = -dot((c, form[p][m]) for m, c in qx.items()) / den
            break
        if scale is not None:
            break
    solved = scale is not None and bool(scale.num)
    if not solved and not force:
        raise ShapeMismatch("could not normalize the odd bracket")
    for (p, q), row in oo_rows.items():
        if row:
            brackets[(p, q)] = {k: scale * c for k, c in row.items()} if solved else row
    out = SuperAlgebra(name, even_labels, odd_labels, brackets, form)
    out.odd_odd_scale = scale if solved else ZERO
    return out


def module_witnesses(
    cov: Covariants, name: str, dims: tuple[int, int]
) -> dict[str, Outcome]:
    """The outcomes of the scanned records of cov's module, from one forced
    build_tilde (named ``name``) and its two scans.

    Keys ``jacobi``, ``invariant-form``, ``representation``, ``skew-action``
    and ``equivariance`` hold None or the witness of the identity's first
    failing basis tuple; ``superalgebra`` holds the (witness, constant) of
    the assembly closing at dimension ``dims``.

    Each sector's first failing sorted triple names the first failing tuple
    of one identity.  EEE is the Jacobi identity of g, and the EEE sector of
    the form scan the invariance of B_g: sl2 is fixed, commutes with g and
    is orthogonal to it.  EEO at x < y in g is rho([x,y]) - [rho x, rho y].
    With c the odd-odd scale, EOO at x in g and v_i (x) a_s, v_j (x) a_t is,
    in g, c omega(a_s, a_t) times the equivariance defect
    [x, mu(v_i, v_j)] - mu(x v_i, v_j) - mu(v_i, x v_j), and in sl2
    -c mu_s(a_s, a_t) times the skewness defect (x v_i, v_j) + (v_i, x v_j),
    whose least (x, i, j >= i) is the least sorted triple; at x in sl2 it
    vanishes, as sl2 preserves omega and mu_s.  The scale c is nonzero, or
    the forced build keeps the unscaled rows, so the failing triples are
    those of the unscaled assembly.  Off the special locus the superalgebra
    record names the moment map's witness and OOO's first failure; on it,
    the sectors, the dimension and the least failing triple of the form
    scan.  Either way a zero scale is named first, and the record then
    carries no constant.
    """
    sa = build_tilde(cov, name, force=True)
    failures = sa.super_jacobi_check()
    form = sa.form_invariance_witness()
    sectors = {s: sa.jacobi_text(min(f.values(), default=None)) for s, f in failures.items()}
    out: dict[str, Outcome] = {"jacobi": sectors["EEE"]}
    out["invariant-form"] = sa.invariance_text(form.get("EEE"))
    out["representation"] = out["skew-action"] = out["equivariance"] = None
    if failures["EEO"]:
        x, y, _ = (sa.labels[t] for t in min(failures["EEO"].values()))
        out["representation"] = f"rho([{x},{y}]) != [rho {x}, rho {y}]"
    # EOO outputs are even: those in g are equivariance, those in sl2
    # skewness; the scan meets the output indices in the order of their triples
    texts = {
        "equivariance": "equivariance fails at x={}, (v,w)=(e{},e{})",
        "skew-action": "B(rho({}) e{}, e{}) is not skew",
    }
    for k, (x, p, q) in failures["EOO"].items():
        record = "equivariance" if k < sa.even_dim - 3 else "skew-action"
        if out[record] is None:
            i, j = ((t - sa.even_dim) // 2 + 1 for t in (p, q))
            out[record] = texts[record].format(sa.labels[x], i, j)
    scaled = bool(sa.odd_odd_scale.num)
    problems = [] if scaled else [_ZERO_SCALE]
    if not cov.special:
        problems.append(
            "forced assembly violates the graded Jacobi identity, "
            f"sector OOO: {sectors['OOO']}"
        )
        out["superalgebra"] = "; ".join([_not_special(cov)] + problems), None
        return out
    if (sa.even_dim, sa.odd_dim) != dims:
        problems.append(f"dimension {sa.even_dim}|{sa.odd_dim}")
    problems += [f"{s}: {w}" for s, w in sectors.items() if w is not None]
    if form:
        problems.append(sa.invariance_text(min(form.values())))
    constant = sa.odd_odd_scale.render() if scaled else None
    out["superalgebra"] = "; ".join(problems) or None, constant
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _canonical_payload(sa: SuperAlgebra) -> tuple[list, list]:
    brackets = []
    for (i, j) in sorted(sa.table):
        row = sa.table[(i, j)]
        brackets.append([i, j, [[k, row[k].render()] for k in sorted(row)]])
    form = [[c.render() for c in row] for row in sa.form]
    return brackets, form


def _digest(brackets: list, form: list) -> str:
    import hashlib
    import json

    blob = json.dumps(
        {"brackets": brackets, "form": form}, separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def export_superalgebra(sa: SuperAlgebra, parameters: Optional[dict] = None) -> str:
    """Serialize to deterministic JSON with a content digest."""
    import json

    brackets, form = _canonical_payload(sa)
    doc = {
        "name": sa.name,
        "even_dim": sa.even_dim,
        "odd_dim": sa.odd_dim,
        "basis": {
            "even_basis": list(sa.even_labels),
            "odd_basis": list(sa.odd_labels),
        },
        "brackets": brackets,
        "form": form,
        "parameters": dict(parameters or {}),
        "digest": _digest(brackets, form),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def import_superalgebra(text: str) -> SuperAlgebra:
    """Inverse of export_superalgebra; verifies the content digest."""
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    try:
        even_labels = doc["basis"]["even_basis"]
        odd_labels = doc["basis"]["odd_basis"]
        brackets = {}
        for i, j, row in doc["brackets"]:
            brackets[(i, j)] = {k: parse_scalar(c) for k, c in row}
        form = [[parse_scalar(c) for c in row] for row in doc["form"]]
        name = doc["name"]
        digest = doc["digest"]
        dims = (doc["even_dim"], doc["odd_dim"])
        parameters = doc.get("parameters", {})
        if not isinstance(parameters, dict):
            raise TypeError("parameters is not an object")
        sa = SuperAlgebra(name, even_labels, odd_labels, brackets, form)
    except (KeyError, TypeError, ValueError) as e:  # ShapeMismatch is a ValueError
        raise ParseError(f"malformed superalgebra document: {e}") from None
    got_brackets, got_form = _canonical_payload(sa)
    if _digest(got_brackets, got_form) != digest:
        raise ParseError("digest mismatch: content was altered")
    if (sa.even_dim, sa.odd_dim) != dims:
        raise ParseError("declared dimensions do not match the basis")
    sa._imported_parameters = dict(parameters)
    return sa
