"""Representation-theoretic layer on top of the mutation engine.

Provides the distinguished mutation sequence that produces fundamental
(q,t)-characters as quantum cluster variables, an independent classical
q-character oracle (iterative ladder expansion, valid for the fundamental
modules of minuscule nodes only, refusing every other node and any module
of more than FM_BUDGET monomials), the quantized Baxter relation, the
Drinfeld-double relation battery, and the type-A thinness check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanData, build_cartan
from .quiver import Vertex, build_slice
from .qcluster import initial_seed, mutate_along, read_along
from .qtorus import TorusElement, a_monomial, embed_Y_key

Verdict = tuple[str, bool, str]


class RepCharError(ValueError):
    pass


# ----------------------------------------------------------- mutation sequence

@dataclass(frozen=True)
class MutationSequenceSpec:
    origin: Vertex
    h_prime: int
    column_order: tuple[int, ...]
    sequence: tuple[Vertex, ...]

    @property
    def read_vertex(self) -> Vertex:
        return self.sequence[-1]


def mutation_sequence(c: CartanData, i: int, r: int) -> MutationSequenceSpec:
    """The column-by-column mutation sequence producing the fundamental
    (q,t)-character at origin (i, r), read off at (i, r + 2h')."""
    if not c.in_ihat(i, r):
        raise RepCharError(f"origin ({i},{r}) lies off the vertex lattice")
    h_prime = (c.dual_coxeter + 1) // 2
    same = [j for j in c.nodes if c.node_class(j) == c.node_class(i) and j != i]
    other = [j for j in c.nodes if c.node_class(j) != c.node_class(i)]
    column_order = (i, *same, *other)
    top = r + 2 * h_prime
    seq: list[Vertex] = []
    for k in range(h_prime, 1, -1):
        for j in column_order:
            eps = 0 if c.node_class(j) == c.node_class(i) else 1
            seq.extend((j, top - eps - 2 * l) for l in range(k))
    seq.append((i, top))
    return MutationSequenceSpec(
        origin=(i, r),
        h_prime=h_prime,
        column_order=column_order,
        sequence=tuple(seq),
    )


# ------------------------------------------------------ fundamental characters

def default_window(c: CartanData, i: int, r: int) -> tuple[int, int]:
    """The slice window [r-1, r+2h'+2] of the sequence from origin (i, r), the
    same for every node i.  The sequence mutates at levels r+1 .. r+2h', and
    a window [a, b] has exchangeable levels a+2 .. b-2, so a window holds the
    sequence only if a <= r-1 and b >= r+2h'+2: each such window holds this one."""
    h_prime = (c.dual_coxeter + 1) // 2
    return (r - 1, r + 2 * h_prime + 2)


def fundamental_qt_character(c: CartanData, i: int, r: int) -> TorusElement:
    """Run the mutation sequence from the initial seed of the default window
    and return the variable it reads, the one at (i, r + 2h')."""
    spec = mutation_sequence(c, i, r)
    slc = build_slice(c, window=default_window(c, i, r))
    v = spec.read_vertex
    return read_along(initial_seed(slc), spec.sequence, [v])[v]


# ----------------------------------------------------- classical q-char oracle

# The most monomials the oracle expands; a cap on memory for large A_n.
FM_BUDGET = 10000


# Minuscule nodes in Bourbaki numbering, per type and rank.
MINUSCULE_NODES = {
    "A": lambda n: tuple(range(1, n + 1)),
    "D": lambda n: (1, n - 1, n),
    "E": lambda n: {6: (1, 6), 7: (7,), 8: ()}[n],
}


def classical_fm_qchar(c: CartanData, i: int, r: int) -> dict[tuple, int]:
    """Classical q-character of the fundamental module with highest Y-key
    (i, r), by iterated ladder expansion from the dominant monomial.

    Each positive Y-factor of a monomial spawns the monomial obtained by
    dividing out the root monomial anchored at that factor.  This plain
    saturation gives every monomial multiplicity 1, which is right only for
    minuscule nodes, so any other node i is refused with RepCharError, and
    so is a module of more than FM_BUDGET monomials.  A node out of range
    raises CartanError first."""
    if not c.in_ihat(i, r):
        raise RepCharError(f"highest Y-key ({i},{r}) lies off the vertex lattice")
    if i not in MINUSCULE_NODES[c.dynkin_type](c.rank):
        raise RepCharError(f"node {i} of {c.dynkin_type}{c.rank} is not minuscule")
    start = frozenset({((i, r), 1)})
    seen = {start}
    queue = [start]
    while queue:
        if len(seen) > FM_BUDGET:
            raise RepCharError(
                f"the q-character at origin ({i},{r}) has more than "
                f"{FM_BUDGET} monomials, the oracle's cap"
            )
        mono = queue.pop()
        exp = dict(mono)
        for (j, s), e in exp.items():
            if e <= 0:
                continue
            nxt = dict(exp)
            for key, de in a_monomial(c, j, s + 3).items():
                nxt[key] = nxt.get(key, 0) - de
            cand = frozenset(kv for kv in nxt.items() if kv[1] != 0)
            if cand not in seen:
                seen.add(cand)
                queue.append(cand)
    return {tuple(sorted(m)): 1 for m in seen}


def fm_qchar_embedded(c: CartanData, i: int, r: int) -> dict:
    """The oracle's q-character pushed into the z-torus and read at t=1,
    summed monomial by monomial into one dict of t=1 terms."""
    total: dict = {}
    for mono, mult in classical_fm_qchar(c, i, r).items():
        key = embed_Y_key(c, dict(mono))
        total[key] = total.get(key, 0) + mult
    return {k: n for k, n in total.items() if n}


# ------------------------------------------------------------ Baxter relation

@dataclass(frozen=True)
class BaxterVerdict:
    r: int
    ok: bool
    lhs: TorusElement
    rhs: TorusElement

    def __str__(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return (
            f"{tag} baxter r={self.r}\n  lhs = {self.lhs.to_text()}\n"
            f"  rhs = {self.rhs.to_text()}"
        )


def baxter_check(r: int) -> BaxterVerdict:
    """Quantized Baxter relation in rank 1 at spectral level 2r:

        chi * z[1,2r] = t^{-1/2} z[1,2r-2] + t^{1/2} z[1,2r+2]

    where chi is the fundamental (q,t)-character with highest Y-key
    (1, 2r-2)."""
    c = build_cartan("A", 1)
    chi = fundamental_qt_character(c, 1, 2 * r - 2)
    lhs = chi * TorusElement.monomial(c, {(1, 2 * r): 1})
    rhs = TorusElement.monomial(c, {(1, 2 * r - 2): 1}, {-1: 1}) + (
        TorusElement.monomial(c, {(1, 2 * r + 2): 1}, {1: 1})
    )
    return BaxterVerdict(r=r, ok=lhs == rhs, lhs=lhs, rhs=rhs)


# ------------------------------------------------------------ Drinfeld double

def drinfeld_double_check(q_sign: int = -1) -> list[Verdict]:
    """Relation battery for the rank-1 realization.

    E is the mutated cluster variable of the three-vertex slice, F = z[1,0],
    K = z[1,-2], K' = z[1,2], and q = q_sign * t^{1/2}.  The expected sign is
    q_sign = -1; passing +1 falsifies the E/F commutator relation."""
    if q_sign not in (-1, 1):
        raise RepCharError("q_sign must be +1 or -1")
    c = build_cartan("A", 1)
    slc = build_slice(c, N=1)
    seed = mutate_along(initial_seed(slc), [(1, 0)])
    E = seed.vars[(1, 0)]
    F = TorusElement.monomial(c, {(1, 0): 1})
    K = TorusElement.monomial(c, {(1, -2): 1})
    Kp = TorusElement.monomial(c, {(1, 2): 1})

    # q = q_sign v, so q^2 = t and q - q^{-1} = q_sign (t^{1/2} - t^{-1/2})
    q2 = {2: 1}
    qm2 = {-2: 1}
    q_minus_qinv = {1: q_sign, -1: -q_sign}

    checks: list[Verdict] = []

    def rel(name: str, lhs: TorusElement, rhs: TorusElement) -> None:
        ok = lhs == rhs
        detail = "" if ok else f"lhs={lhs.to_text()} rhs={rhs.to_text()}"
        checks.append((name, ok, detail))

    rel("KE = q^2 EK", K * E, (E * K).scaled(q2))
    rel("K'E = q^-2 EK'", Kp * E, (E * Kp).scaled(qm2))
    rel("KF = q^-2 FK", K * F, (F * K).scaled(qm2))
    rel("K'F = q^2 FK'", Kp * F, (F * Kp).scaled(q2))
    rel("KK' = K'K", K * Kp, Kp * K)
    rel(
        "[E,F] = (q - q^-1)(K - K')",
        E * F - F * E,
        (K - Kp).scaled(q_minus_qinv),
    )
    rel(
        "EF = t^-1/2 K + t^1/2 K'",
        E * F,
        K.scaled({-1: 1}) + Kp.scaled({1: 1}),
    )
    return checks


# ------------------------------------------------------------------- thinness

def thinness_flatten_check(c: CartanData, i: int, r: int) -> Verdict:
    """Type A only: every coefficient of the fundamental (q,t)-character
    must be the constant 1 (thin module, trivial t-powers)."""
    if c.dynkin_type != "A":
        raise RepCharError("the thinness check applies to type A only")
    dense = fundamental_qt_character(c, i, r).dense
    bad = sum(coeff != {0: 1} for coeff in dense.values())
    label = f"thin A{c.rank} ({i},{r})"
    if bad:
        return (label, False, f"{bad} monomials with nontrivial coefficients")
    return (label, True, f"{len(dense)} monomials")
