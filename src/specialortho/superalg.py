"""Lie superalgebras from special orthogonal moment maps.

Given a quadratic representation whose moment map is special orthogonal, the
space g + sl2 + V (x) k^2 closes into a Lie superalgebra: the even part acts
on the odd part through rho and the defining plane, and the odd bracket is

    {v (x) a, w (x) b} = omega(a, b) mu(v, w) + (v, w) mu_s(a, b)

up to one global scale solved from invariance of the supersymmetric form.
The three orthogonal families produce D(2,1;alpha) from the tensor product
of symplectic planes, the 17|14-dimensional algebra from the imaginary
octonions, and the 24|16-dimensional one from the full octonions.  The
graded Jacobi identity in the all-odd sector is equivalent to the special
condition; the other sectors hold for any moment map.

The bracket table type, SuperAlgebra, is defined in quadlie, where the Lie
algebra g of every representation is already one (purely even); it is
re-exported here.  build_tilde seeds the even part with g's table and form.
"""

from __future__ import annotations

from typing import Optional

from .errors import NotSpecial, ParseError, ShapeMismatch
from .family import (
    mu_plane,
    omega_plane,
    sl2_bracket_table,
    sl2_half_trace_gram,
    sl2_plane_action,
)
from .quadlie import Covariants, SuperAlgebra
from .scalars import Frac, ZERO, dot, parse as parse_scalar


def build_tilde(cov: Covariants, name: str, force: bool = False) -> SuperAlgebra:
    """Assemble g + sl2 + V (x) k^2 from a representation's covariants.

    Raises NotSpecial, naming cov.witness, unless cov.special holds; the
    special orthogonality of the moment map was already decided when the
    covariants were computed.  force=True builds anyway (the all-odd Jacobi
    sector then records the failure).
    """
    if not cov.special and not force:
        raise NotSpecial(f"moment map is not special orthogonal at {cov.witness}")
    rep, mu = cov.rep, cov.mu
    g = rep.algebra
    g_dim = g.dim
    v_dim = rep.space.dim
    even_dim = g_dim + 3
    even_labels = list(g.even_labels) + ["h", "e", "f"]
    odd_labels = [
        f"{rep.space.labels[i]}*a{s+1}" for i in range(v_dim) for s in range(2)
    ]

    def odd_index(i: int, s: int) -> int:
        return even_dim + 2 * i + s

    brackets = {key: dict(row) for key, row in g.table.items()}
    for (i, j), row in sl2_bracket_table().items():
        brackets[(g_dim + i, g_dim + j)] = {g_dim + k: c for k, c in row.items()}
    # even-odd: g through the action, sl2 through the defining plane
    for a, rows in enumerate(rep.act.table):
        for i, col in enumerate(rows):
            for s in range(2):
                row_s = {odd_index(r, s): c for r, c in enumerate(col) if c.num}
                if row_s:
                    brackets[(a, odd_index(i, s))] = row_s
    plane = sl2_plane_action()
    for t, mat in enumerate(plane):
        for i in range(v_dim):
            for s in range(2):
                row = {
                    odd_index(i, r): mat[r][s] for r in range(2) if mat[r][s].num
                }
                if row:
                    brackets[(g_dim + t, odd_index(i, s))] = row
    # unscaled odd-odd rows
    gram_v = rep.space.gram
    oo_rows: dict[tuple[int, int], dict[int, Frac]] = {}
    for i in range(v_dim):
        for s in range(2):
            p = odd_index(i, s)
            for j in range(i, v_dim):
                for t in range(2):
                    q = odd_index(j, t)
                    if q < p:
                        continue
                    row: dict[int, Frac] = {}
                    w = omega_plane(s, t)
                    if w.num and i != j:
                        vals = mu.value((i + 1, j + 1))
                        for k, c in enumerate(vals):
                            if c.num:
                                row[k] = w * c
                    b = gram_v[i][j]
                    if b.num:
                        for k, c in enumerate(mu_plane(s, t)):
                            if c.num:
                                s2 = row.get(g_dim + k, ZERO) + b * c
                                if s2.num:
                                    row[g_dim + k] = s2
                                else:
                                    row.pop(g_dim + k, None)
                    if row:
                        oo_rows[(p, q)] = row
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
            if not gram_v[i][j].num:
                continue
            for s in range(2):
                for t in range(2):
                    w = omega_plane(s, t)
                    if w.num:
                        form[odd_index(i, s)][odd_index(j, t)] = gram_v[i][j] * w
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
    if scale is None:
        raise ShapeMismatch("could not normalize the odd bracket")
    for (p, q), row in oo_rows.items():
        scaled = {k: scale * c for k, c in row.items()}
        if scaled:
            brackets[(p, q)] = scaled
    out = SuperAlgebra(name, even_labels, odd_labels, brackets, form)
    out.odd_odd_scale = scale
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
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed superalgebra document: {e}") from None
    sa = SuperAlgebra(name, even_labels, odd_labels, brackets, form)
    got_brackets, got_form = _canonical_payload(sa)
    if _digest(got_brackets, got_form) != digest:
        raise ParseError("digest mismatch: content was altered")
    if sa.even_dim != doc["even_dim"] or sa.odd_dim != doc["odd_dim"]:
        raise ParseError("declared dimensions do not match the basis")
    sa._imported_parameters = dict(doc.get("parameters", {}))
    return sa
