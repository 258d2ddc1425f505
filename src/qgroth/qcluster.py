"""Quantum seeds and the two-term quantum exchange mutation.

A seed carries one torus element per slice vertex (all expressed in the
initial torus), plus the current exchange matrix and current skew form.
Mutation at an exchangeable vertex k builds the two exchange monomials from
the signs of column k, normalizes each as a bar-invariant monomial of the
current cluster, adds the two v-power unit factors dictated by the current
skew form, and divides on the left by the old variable.  Exactness of that
division is the Laurent phenomenon; failure is reported as a bug, never
papered over.

A classical (t=1) engine over commutative Laurent polynomials is included
as an independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .cartan import CartanData
from .compat import build_lambda, check_compatible, mutate_lambda
from .quiver import QuiverError, QuiverSlice, Vertex, mutate_matrix
from .qtorus import (
    ExpKey,
    TorusElement,
    TorusError,
    divide_terms,
    exact_left_divide,
    make_key,
    multiply_terms,
)


class MutationError(ValueError):
    """A mutation failed.  vertex is the mutation that failed and path the
    mutations applied before it, when known."""

    def __init__(
        self,
        message: str,
        vertex: Vertex | None = None,
        path: tuple[Vertex, ...] | None = None,
    ):
        super().__init__(message)
        self.vertex = vertex
        self.path = path


@dataclass(frozen=True)
class QuantumSeed:
    slice: QuiverSlice
    vars: dict[Vertex, TorusElement]
    b_current: np.ndarray
    lambda_current: np.ndarray
    history: tuple[Vertex, ...]

    @property
    def cartan(self) -> CartanData:
        return self.slice.cartan

    def check_commutation(self, pairs=None) -> None:
        """Verify vars[u] * vars[w] = t^{Lambda_cur(u,w)} vars[w] * vars[u]."""
        verts = self.slice.vertices
        idx = self.slice.index
        if pairs is None:
            pairs = [
                (verts[a], verts[b])
                for a in range(len(verts))
                for b in range(a + 1, len(verts))
            ]
        for u, w in pairs:
            lhs = self.vars[u] * self.vars[w]
            rhs = (self.vars[w] * self.vars[u]).scaled(
                {2 * int(self.lambda_current[idx[u], idx[w]]): 1}
            )
            if lhs != rhs:
                raise MutationError(
                    f"commutation drift between {u} and {w}: "
                    f"{lhs.to_text()} vs {rhs.to_text()}"
                )


def initial_seed(c: CartanData, slc: QuiverSlice) -> QuantumSeed:
    """Seed whose variable at (i,r) is the single monomial z[i,r]."""
    lam = build_lambda(c, slc)
    report = check_compatible(slc.b_matrix, lam, slc.exch_rows)
    if not report.ok:
        raise MutationError(f"initial pair not compatible: {report}")
    vars_ = {
        v: TorusElement.monomial(c, {v: 1}) for v in slc.vertices
    }
    return QuantumSeed(
        slice=slc,
        vars=vars_,
        b_current=slc.b_matrix,
        lambda_current=lam,
        history=(),
    )


def _frame_monomial(
    seed: QuantumSeed, exps: dict[int, int], shift: int
) -> TorusElement:
    """Bar-invariant monomial of the current cluster with row exponents exps,
    times v^shift.

    Computes v^{shift - sum_{u<w} a_u a_w Lambda_cur(u,w)} times the ordered
    star product of the current variables, rows ascending."""
    rows = sorted(exps)
    lam = seed.lambda_current
    for a_idx, u in enumerate(rows):
        for w in rows[a_idx + 1 :]:
            shift -= exps[u] * exps[w] * int(lam[u, w])
    verts = seed.slice.vertices
    factors = [seed.vars[verts[u]] for u in rows for _ in range(exps[u])]
    if not factors:
        return TorusElement.monomial(seed.cartan, {}, {shift: 1})
    return reduce(mul, factors).scaled({shift: 1})


def mutate(seed: QuantumSeed, k: Vertex) -> QuantumSeed:
    """One quantum exchange mutation in direction k."""
    col = seed.slice.column_of(k)
    rk = seed.slice.exch_rows[col]
    bcol = seed.b_current[:, col]
    a_plus = {i: int(b) for i, b in enumerate(bcol) if b > 0}
    a_minus = {i: -int(b) for i, b in enumerate(bcol) if b < 0}

    lam = seed.lambda_current
    gamma_plus = sum(int(lam[rk, u]) * e for u, e in a_plus.items())
    gamma_minus = sum(int(lam[rk, u]) * e for u, e in a_minus.items())

    s = _frame_monomial(seed, a_plus, gamma_plus) + _frame_monomial(
        seed, a_minus, gamma_minus
    )
    try:
        new_var = exact_left_divide(s, seed.vars[k])
    except TorusError as exc:
        raise MutationError(
            f"Laurent-phenomenon violation mutating at {k} "
            f"after path {list(seed.history)}: {exc}",
            vertex=k,
            path=seed.history,
        ) from exc
    if new_var.bar() != new_var:
        raise MutationError(
            f"mutated variable at {k} after path {list(seed.history)} "
            "is not bar-invariant",
            vertex=k,
            path=seed.history,
        )

    new_vars = dict(seed.vars)
    new_vars[k] = new_var
    return QuantumSeed(
        slice=seed.slice,
        vars=new_vars,
        b_current=mutate_matrix(seed.b_current, seed.slice.exch_rows, col),
        lambda_current=mutate_lambda(lam, seed.b_current, seed.slice.exch_rows, col),
        history=seed.history + (k,),
    )


def mutate_along(seed: QuantumSeed, path) -> QuantumSeed:
    for k in path:
        seed = mutate(seed, k)
    return seed


# ------------------------------------------------------- classical (t=1) oracle

CPoly = dict[ExpKey, int]  # commutative Laurent polynomial over the z-variables


def cp_monomial(exp: dict[Vertex, int], coeff: int = 1) -> CPoly:
    return {make_key(exp): coeff} if coeff else {}


def cp_add(a: CPoly, b: CPoly) -> CPoly:
    out = dict(a)
    for k, v in b.items():
        n = out.get(k, 0) + v
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


def _lift(a: CPoly) -> dict:
    return {k: {0: v} for k, v in a.items()}


def cp_mul(a: CPoly, b: CPoly) -> CPoly:
    """Classical product: the shared product core with zero twist."""
    return {k: c[0] for k, c in multiply_terms(_lift(a), _lift(b), None).items()}


def cp_pow(a: CPoly, n: int) -> CPoly:
    out = cp_monomial({})
    for _ in range(n):
        out = cp_mul(out, a)
    return out


def cp_exact_div(a: CPoly, d: CPoly) -> CPoly:
    """Exact classical division: the shared division core with zero twist."""
    if not d:
        raise MutationError("classical division by zero")
    quot, rem, reason = divide_terms(_lift(a), _lift(d), None)
    if reason:
        rem_cp = {k: c[0] for k, c in rem.items()}
        raise MutationError(f"classical division not exact ({reason}), remainder {rem_cp}")
    return {k: c[0] for k, c in quot.items()}


def classical_mutate_along(
    c: CartanData, slc: QuiverSlice, path
) -> dict[Vertex, CPoly]:
    """Run the commutative exchange relation along a path; the t=1 oracle."""
    vars_: dict[Vertex, CPoly] = {v: cp_monomial({v: 1}) for v in slc.vertices}
    b = slc.b_matrix
    verts = slc.vertices
    path = tuple(path)
    for step, k in enumerate(path):
        try:
            col = slc.exchangeable.index(k)
        except ValueError:
            raise QuiverError(f"vertex {k} is not exchangeable") from None
        num: CPoly = cp_monomial({})
        den: CPoly = cp_monomial({})
        for row, entry in enumerate(b[:, col]):
            e = int(entry)
            if e > 0:
                num = cp_mul(num, cp_pow(vars_[verts[row]], e))
            elif e < 0:
                den = cp_mul(den, cp_pow(vars_[verts[row]], -e))
        vars_ = dict(vars_)
        try:
            vars_[k] = cp_exact_div(cp_add(num, den), vars_[k])
        except MutationError as exc:
            raise MutationError(
                f"classical mutation at {k} after path {list(path[:step])}: {exc}",
                vertex=k,
                path=tuple(path[:step]),
            ) from exc
        b = mutate_matrix(b, slc.exch_rows, col)
    return vars_
