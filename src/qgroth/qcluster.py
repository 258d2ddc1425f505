"""Quantum seeds and the two-term quantum exchange mutation.

A seed carries one torus element per slice vertex (all expressed in the
initial torus), plus the current exchange matrix and current skew form.
Mutation at an exchangeable vertex k builds the two exchange monomials from
the signs of column k, normalizes each as a bar-invariant monomial of the
current cluster, adds the two v-power unit factors dictated by the current
skew form, and divides on the left by the old variable.  Exactness of that
division is the Laurent phenomenon; failure is reported as a bug, never
papered over.

A classical (t=1) engine is included as an independent cross-check oracle.
It runs its own commutative exchange relation on the same TorusElement with
no Cartan data, the untwisted ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import CartanData
from .compat import build_lambda, check_compatible, mutate_lambda
from .quiver import QuiverSlice, Vertex, mutate_matrix
from .qtorus import (
    ExpKey,
    TorusElement,
    TorusError,
    evaluate_t1,
    exact_left_divide,
    frame_variables,
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


# The most terms an exchange product, partial or whole, or the sum of the
# two exchange monomials may have: a cap on one mutation's memory.  The
# largest sum known to finish, D5 (2,1)'s, has 1 201 258 terms.
TERM_BUDGET = 2_000_000


class TermBudgetExceeded(MutationError):
    """A mutation's exchange product or sum has more than TERM_BUDGET terms;
    terms is its size and budget the cap it broke."""

    def __init__(self, what: str, terms: int, vertex: Vertex, path: tuple[Vertex, ...]):
        super().__init__(
            f"mutation at {vertex} after path {list(path)}: {what} has {terms} "
            f"terms, more than the term budget of {TERM_BUDGET}",
            vertex=vertex,
            path=path,
        )
        self.terms = terms
        self.budget = TERM_BUDGET


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
    """Seed whose variable at (i,r) is the single monomial z[i,r], all in
    one frame on the slice vertices whose skew form is the seed's Lambda."""
    lam = build_lambda(c, slc)
    report = check_compatible(slc.b_matrix, lam, slc.exch_rows)
    if not report.ok:
        raise MutationError(f"initial pair not compatible: {report}")
    return QuantumSeed(
        slice=slc,
        vars=frame_variables(c, slc.vertices),
        b_current=slc.b_matrix,
        lambda_current=lam,
        history=(),
    )


def _within_budget(
    el: TorusElement, what: str, k: Vertex, path: tuple[Vertex, ...]
) -> TorusElement:
    if len(el.dense) > TERM_BUDGET:
        raise TermBudgetExceeded(what, len(el.dense), k, path)
    return el


def _product(
    first: TorusElement, factors, k: Vertex, path: tuple[Vertex, ...]
) -> TorusElement:
    """first times factors in order, each partial product within TERM_BUDGET;
    k and path name the mutation in the error."""
    for f in factors:
        first = _within_budget(first * f, "an exchange product", k, path)
    return first


def _frame_monomial(
    seed: QuantumSeed, k: Vertex, exps: dict[int, int], shift: int
) -> TorusElement:
    """Bar-invariant monomial of the current cluster with row exponents exps,
    times v^shift, for the mutation at k.

    Computes v^{shift - sum_{u<w} a_u a_w Lambda_cur(u,w)} times the ordered
    star product of the current variables, rows ascending.  v is central, so
    the power scales the first factor, not the whole product."""
    rows = sorted(exps)
    lam = seed.lambda_current
    for a_idx, u in enumerate(rows):
        for w in rows[a_idx + 1 :]:
            shift -= exps[u] * exps[w] * int(lam[u, w])
    verts = seed.slice.vertices
    factors = [seed.vars[verts[u]] for u in rows for _ in range(exps[u])]
    if not factors:
        return TorusElement.monomial(seed.cartan, {}, {shift: 1})
    return _product(factors[0].scaled({shift: 1}), factors[1:], k, seed.history)


def _exchange_sum(seed: QuantumSeed, k: Vertex, col: int) -> TorusElement:
    """The sum of the two exchange monomials of the mutation at k, whose
    exchange column is col, each with its v-power unit factor."""
    rk = seed.slice.exch_rows[col]
    bcol = seed.b_current[:, col]
    a_plus = {i: int(b) for i, b in enumerate(bcol) if b > 0}
    a_minus = {i: -int(b) for i, b in enumerate(bcol) if b < 0}

    lam = seed.lambda_current
    gamma_plus = sum(int(lam[rk, u]) * e for u, e in a_plus.items())
    gamma_minus = sum(int(lam[rk, u]) * e for u, e in a_minus.items())

    return _within_budget(
        _frame_monomial(seed, k, a_plus, gamma_plus)
        + _frame_monomial(seed, k, a_minus, gamma_minus),
        "the exchange sum",
        k,
        seed.history,
    )


def mutate(seed: QuantumSeed, k: Vertex) -> QuantumSeed:
    """One quantum exchange mutation in direction k."""
    col = seed.slice.column_of(k)
    try:
        # no local keeps the sum, often the largest value of the mutation,
        # alive through the bar check below
        new_var = exact_left_divide(_exchange_sum(seed, k, col), seed.vars[k])
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
        lambda_current=mutate_lambda(
            seed.lambda_current, seed.b_current, seed.slice.exch_rows, col
        ),
        history=seed.history + (k,),
    )


def mutate_along(seed: QuantumSeed, path) -> QuantumSeed:
    for k in path:
        seed = mutate(seed, k)
    return seed


# ------------------------------------------------------- classical (t=1) oracle

def cp_exact_div(a: TorusElement, d: TorusElement) -> TorusElement:
    """Exact division of untwisted (t=1) elements, failing with MutationError."""
    try:
        return exact_left_divide(a, d)
    except TorusError as exc:
        raise MutationError(f"classical {exc}") from exc


def classical_mutate_along(
    c: CartanData, slc: QuiverSlice, path
) -> dict[Vertex, dict[ExpKey, int]]:
    """Run the commutative exchange relation along a path; the t=1 oracle.

    The variables are TorusElements with no Cartan data, all in one
    untwisted frame on the slice vertices, and the exchange monomials are
    plain products of them, with no v-powers.  Returns the t=1 images."""
    vars_ = frame_variables(None, slc.vertices)
    one = TorusElement.one(None)
    b = slc.b_matrix
    verts = slc.vertices
    path = tuple(path)
    for step, k in enumerate(path):
        col = slc.column_of(k)
        powers = [(vars_[verts[row]], int(e)) for row, e in enumerate(b[:, col]) if e]
        done = path[:step]
        total = _within_budget(
            _product(one, (x for x, e in powers for _ in range(e)), k, done)
            + _product(one, (x for x, e in powers for _ in range(-e)), k, done),
            "the exchange sum",
            k,
            done,
        )
        try:
            vars_[k] = cp_exact_div(total, vars_[k])
        except MutationError as exc:
            raise MutationError(
                f"classical mutation at {k} after path {list(done)}: {exc}",
                vertex=k,
                path=done,
            ) from exc
        b = mutate_matrix(b, slc.exch_rows, col)
    return {v: evaluate_t1(x) for v, x in vars_.items()}
