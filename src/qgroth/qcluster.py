"""Quantum seeds and the two-term quantum exchange mutation.

A seed carries one torus element per slice vertex (all expressed in the
initial torus), plus the current exchange matrix and current skew form.
Mutation at an exchangeable vertex k builds the two exchange monomials from
the signs of column k, normalizes each as a bar-invariant monomial of the
current cluster, adds the two v-power unit factors dictated by the current
skew form, and divides on the left by the old variable.  Exactness of that
division is the Laurent phenomenon; failure is reported as a bug, never
papered over.  Both engines locate a failed mutation in _located: a star
product, division remainder or sum past qtorus.TERM_BUDGET stops it with
TermBudgetExceeded, and any other torus failure becomes a MutationError;
both name the vertex and the path.

mutate_along runs every step of a path and returns the seed.  read_along
returns only the variables at the vertices it reads: one pass over B~ alone
plans each step and collects the steps those variables depend on, and the
run mutates B~ and Lambda at every step but runs the exchange and the
division only at the collected steps, each doing exactly the arithmetic of a
full run.  So a read variable is the same either way.

A classical (t=1) engine is included as an independent cross-check oracle.
It runs its own commutative exchange relation on the same TorusElement with
no Cartan data, the untwisted ring, and returns those untwisted elements.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .cartan import CartanData
from .compat import build_lambda, check_compatible, mutate_lambda
from .quiver import QuiverError, QuiverSlice, Vertex, mutate_matrix
from .qtorus import (
    TermBudgetError,
    TorusElement,
    TorusError,
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


class TermBudgetExceeded(MutationError):
    """A product, division remainder or sum of a mutation grew past
    qtorus.TERM_BUDGET terms; terms is its size at the stop, budget the cap."""

    def __init__(self, exc: TermBudgetError, vertex: Vertex, path: tuple[Vertex, ...]):
        super().__init__(
            f"mutation at {vertex} after path {list(path)}: {exc}", vertex=vertex, path=path
        )
        self.terms = exc.terms
        self.budget = exc.budget


@contextmanager
def _located(what: str, k: Vertex, path: tuple[Vertex, ...]):
    """Turn a torus failure of the mutation at k after path into a mutation
    error naming both; what starts the message of a non-budget failure."""
    try:
        yield
    except TermBudgetError as exc:
        raise TermBudgetExceeded(exc, k, path) from exc
    except TorusError as exc:
        raise MutationError(
            f"{what} at {k} after path {list(path)}: {exc}", vertex=k, path=path
        ) from exc


@dataclass(frozen=True, eq=False)
class QuantumSeed:
    slice: QuiverSlice
    vars: dict[Vertex, TorusElement]
    b_current: np.ndarray
    lambda_current: np.ndarray
    history: tuple[Vertex, ...]

    @property
    def cartan(self) -> CartanData:
        return self.slice.cartan

    def check_commutation(self) -> None:
        """Verify vars[u] * vars[w] = t^{Lambda_cur(u,w)} vars[w] * vars[u] for all u, w."""
        idx = self.slice.index
        for u, w in combinations(self.slice.vertices, 2):
            lhs = self.vars[u] * self.vars[w]
            rhs = (self.vars[w] * self.vars[u]).scaled(
                {2 * int(self.lambda_current[idx[u], idx[w]]): 1}
            )
            if lhs != rhs:
                raise MutationError(
                    f"commutation drift between {u} and {w}: "
                    f"{lhs.to_text()} vs {rhs.to_text()}"
                )


def initial_seed(slc: QuiverSlice) -> QuantumSeed:
    """Seed whose variable at (i,r) is the single monomial z[i,r], all in
    one frame on the slice vertices built with the seed's Lambda as its
    skew form."""
    lam = build_lambda(slc.cartan, slc)
    report = check_compatible(slc.b_matrix, lam, slc.exch_rows)
    if not report.ok:
        raise MutationError(f"initial pair not compatible: {report}")
    return QuantumSeed(
        slice=slc,
        vars=frame_variables(slc.cartan, slc.vertices, lam.tolist()),
        b_current=slc.b_matrix,
        lambda_current=lam,
        history=(),
    )


def _frame_monomial(seed: QuantumSeed, exps: dict[int, int], shift: int) -> TorusElement:
    """Bar-invariant monomial of the current cluster with row exponents exps,
    times v^shift.

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
    return prod(factors[1:], start=factors[0].scaled({shift: 1}))


def _exchange_sum(seed: QuantumSeed, col: int) -> TorusElement:
    """The sum of the two exchange monomials of the mutation whose exchange
    column is col, each with its v-power unit factor."""
    rk = seed.slice.exch_rows[col]
    bcol = seed.b_current[:, col]
    a_plus = {i: int(b) for i, b in enumerate(bcol) if b > 0}
    a_minus = {i: -int(b) for i, b in enumerate(bcol) if b < 0}

    lam = seed.lambda_current
    gamma_plus = sum(int(lam[rk, u]) * e for u, e in a_plus.items())
    gamma_minus = sum(int(lam[rk, u]) * e for u, e in a_minus.items())

    return _frame_monomial(seed, a_plus, gamma_plus) + _frame_monomial(seed, a_minus, gamma_minus)


def _matrix_step(seed: QuantumSeed, k: Vertex, col: int, new_var) -> QuantumSeed:
    """The seed after mutating B~ and Lambda at k, col its exchange column,
    with new_var at k; with new_var None the variable at k is dropped."""
    new_vars = dict(seed.vars)
    if new_var is None:
        new_vars.pop(k, None)
    else:
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


def mutate(seed: QuantumSeed, k: Vertex) -> QuantumSeed:
    """One quantum exchange mutation in direction k."""
    col = seed.slice.column_of(k)
    with _located("Laurent-phenomenon violation mutating", k, seed.history):
        # no local keeps the sum, often the largest value of the mutation,
        # alive through the bar check below
        new_var = exact_left_divide(_exchange_sum(seed, col), seed.vars[k])
    if new_var.bar() != new_var:
        raise MutationError(
            f"mutated variable at {k} after path {list(seed.history)} "
            "is not bar-invariant",
            vertex=k,
            path=seed.history,
        )
    return _matrix_step(seed, k, col, new_var)


def _steps(slc: QuiverSlice, b: np.ndarray, path: tuple[Vertex, ...], read) -> list[tuple]:
    """The plan of path, b the B~ before it: per step its vertex, exchange
    column, that column of B~ just before the step, and whether it runs.

    A step runs when the variables at the vertices in read depend on it;
    read None reads every vertex.  Step s at k reads the variable at k and
    at every row where column k of the current B~ is nonzero, each from the
    last earlier step that wrote that vertex, or from the initial seed.  One
    forward pass over B~ records those reads, and one walk back from the
    last writer of each vertex read collects them.  A vertex in read that is
    not in the slice raises QuiverError before any step is planned."""
    verts = slc.vertices
    gone = next((v for v in read or () if v not in verts), None)
    if gone is not None:
        raise QuiverError(f"vertex {gone} is not in this slice")
    last: dict[Vertex, int] = {}
    plan: list[tuple[Vertex, int, np.ndarray]] = []
    deps: list[list[int]] = []
    for s, k in enumerate(path):
        col = slc.column_of(k)
        plan.append((k, col, b[:, col].copy()))  # a copy keeps no whole B~ alive
        reads = [k, *(verts[row] for row in b[:, col].nonzero()[0])]
        deps.append([last[v] for v in reads if v in last])
        last[k] = s
        b = mutate_matrix(b, slc.exch_rows, col)
    runs = {last[v] for v in (verts if read is None else read) if v in last}
    for s in reversed(range(len(path))):
        if s in runs:
            runs.update(deps[s])
    return [(*step, s in runs) for s, step in enumerate(plan)]


def _run(seed: QuantumSeed, path, read) -> QuantumSeed:
    """The seed after path, read as in _steps.  B~ and Lambda mutate at every
    step, a step that runs is one mutate, and the vertex of every other step
    is dropped from vars."""
    for k, col, _, run in _steps(seed.slice, seed.b_current, tuple(path), read):
        seed = mutate(seed, k) if run else _matrix_step(seed, k, col, None)
    return seed


def mutate_along(seed: QuantumSeed, path) -> QuantumSeed:
    """Mutate along path, one mutate per step."""
    return _run(seed, path, None)


def read_along(seed: QuantumSeed, path, read) -> dict[Vertex, TorusElement]:
    """The variables at the vertices in read, in that order, after path; only
    the steps they depend on run the exchange, so the values are those of
    mutate_along."""
    vars_ = _run(seed, path, read).vars
    return {v: vars_[v] for v in read}


# ------------------------------------------------------- classical (t=1) oracle

def cp_exact_div(a: TorusElement, d: TorusElement) -> TorusElement:
    """Exact division of untwisted (t=1) elements; a name of its own, so that
    a trace times the classical engine's divisions apart from the quantum ones."""
    return exact_left_divide(a, d)


def classical_mutate_along(slc: QuiverSlice, path, read=None) -> dict[Vertex, TorusElement]:
    """Run the commutative exchange relation along a path; the t=1 oracle.

    The variables are TorusElements with no Cartan data, all in one
    untwisted frame on the slice vertices, and the exchange monomials are
    plain products of them, with no v-powers.  Returns them by vertex, like
    mutate_along's vars; evaluate_t1 gives one's t=1 image.  With read given,
    only the steps the variables at its vertices depend on run, as in
    read_along, and only those variables are returned, in that order."""
    vars_ = frame_variables(None, slc.vertices)
    one = TorusElement.one(None)
    verts = slc.vertices
    path = tuple(path)
    for s, (k, _, bcol, run) in enumerate(_steps(slc, slc.b_matrix, path, read)):
        if run:
            powers = [(vars_[verts[row]], int(e)) for row, e in enumerate(bcol) if e]
            with _located("classical mutation", k, path[:s]):
                total = (
                    prod((x for x, e in powers for _ in range(e)), start=one)
                    + prod((x for x, e in powers for _ in range(-e)), start=one)
                )
                vars_[k] = cp_exact_div(total, vars_[k])
        else:
            vars_.pop(k, None)
    return vars_ if read is None else {v: vars_[v] for v in read}
