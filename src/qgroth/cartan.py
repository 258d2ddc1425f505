"""Simply-laced Cartan data and the coefficient functions derived from the
quantum Cartan matrix.

Node numbering follows the Bourbaki convention:

* type A_n: a path 1 - 2 - ... - n;
* type D_n: a path 1 - 2 - ... - (n-2) - (n-1), with node n also attached
  to node n-2 (so for D_4 the branch node is 2);
* type E_n: a path 1 - 3 - 4 - 5 - 6 (- 7 - 8), with node 2 attached to
  node 4.

The inverse of the quantum Cartan matrix C(z) is a matrix of power series
in z.  Its integer coefficients ctilde(i, j, m) form matrices Ct(m), and the
z-variable skew form has matrices F(m) = -(Ct(m-1) + Ct(m-3) + ...).  With
A the adjacency matrix of the Dynkin graph,

    Ct(m + 1) = Ct(m) A - Ct(m - 1),  Ct(0) = 0,  Ct(1) = 1,
    F(m) = F(m - 2) - Ct(m - 1),      F(0) = F(1) = 0,

and each Ct(m), a polynomial in A, is symmetric.  Each CartanData holds a
table of (Ct(m), F(m)) per degree as Python-int matrices, extended on demand
by these recurrences, so equal instances hold equal tables; ctilde, n_form,
f_form and skew_form (the form Lambda((i,r),(j,s)) = F_ij(s - r) on a
vertex list) all read it, so no rational-function arithmetic is ever needed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

DUAL_COXETER = {
    "A": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
}

VALID_RANKS = {
    "A": lambda n: n >= 1,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
}


class CartanError(ValueError):
    """Invalid Dynkin type or node/level arguments."""


def _edges(type_label: str, rank: int) -> set[frozenset[int]]:
    if type_label == "A":
        return {frozenset((k, k + 1)) for k in range(1, rank)}
    if type_label == "D":
        edges = {frozenset((k, k + 1)) for k in range(1, rank - 1)}
        edges.add(frozenset((rank - 2, rank)))
        return edges
    # type E: path 1-3-4-...-n plus the branch 2-4
    chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
    edges = {frozenset((a, b)) for a, b in zip(chain, chain[1:])}
    edges.add(frozenset((2, 4)))
    return edges


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix, Dynkin graph and quantum-Cartan coefficient cache.

    A value: it compares and hashes by (dynkin_type, rank), which fix every
    other field.  The Cartan matrix is read-only and the memo table a pure
    cache (idempotent fills), so equal instances are interchangeable.
    """

    dynkin_type: str
    rank: int
    cartan: np.ndarray = field(compare=False)
    dual_coxeter: int = field(compare=False)
    # _table[m] = (Ct(m), F(m)), filled on demand from the two seed degrees
    _table: list[tuple[list[list[int]], list[list[int]]]] = field(repr=False, compare=False)
    _neighbors: dict[int, tuple[int, ...]] = field(repr=False, compare=False)
    _node_class: dict[int, int] = field(repr=False, compare=False)

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_node(i)
        return self._neighbors[i]

    def node_class(self, i: int) -> int:
        """Bipartite class of node i: distance from node 1, mod 2."""
        self._check_node(i)
        return self._node_class[i]

    def in_ihat(self, i: int, r: int) -> bool:
        """Whether the vertex (i, r) lies on the chosen bipartite component
        (the one containing (1, 0))."""
        self._check_node(i)
        return (r - self._node_class[i]) % 2 == 0

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise CartanError(f"node {i} out of range for {self.dynkin_type}{self.rank}")


def build_cartan(type_label: str, rank: int) -> CartanData:
    """Construct the Cartan data of the simply-laced type (type_label, rank)."""
    if type_label not in VALID_RANKS:
        raise CartanError(
            f"unknown Dynkin type {type_label!r}: expected one of A, D, E"
        )
    if not isinstance(rank, int) or not VALID_RANKS[type_label](rank):
        raise CartanError(
            f"invalid rank {rank} for type {type_label} "
            "(A: n>=1, D: n>=4, E: n in {6,7,8})"
        )
    edges = _edges(type_label, rank)
    cartan = 2 * np.eye(rank, dtype=np.int64)
    for e in edges:
        a, b = sorted(e)
        cartan[a - 1, b - 1] = cartan[b - 1, a - 1] = -1
    cartan.flags.writeable = False

    neighbors = {
        i: tuple(sorted(j for j in range(1, rank + 1) if frozenset((i, j)) in edges))
        for i in range(1, rank + 1)
    }

    # bipartite classes by BFS from node 1
    node_class = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for i in frontier:
            for j in neighbors[i]:
                if j not in node_class:
                    node_class[j] = (node_class[i] + 1) % 2
                    nxt.append(j)
        frontier = nxt

    zero = np.zeros_like(cartan).tolist()
    return CartanData(
        dynkin_type=type_label,
        rank=rank,
        cartan=cartan,
        dual_coxeter=DUAL_COXETER[type_label](rank),
        _neighbors=neighbors,
        _node_class=node_class,
        _table=[(zero, zero), (np.eye(rank, dtype=np.int64).tolist(), zero)],
    )


def _degrees(c: CartanData, m: int) -> list[tuple[list[list[int]], list[list[int]]]]:
    """The degree table, extended through degree m >= 0."""
    table = c._table
    while len(table) <= m:
        (ct1, _), (ct2, f2) = table[-1], table[-2]
        ct = [
            [sum(row1[k - 1] for k in c._neighbors[j]) - row2[j - 1] for j in c.nodes]
            for row1, row2 in zip(ct1, ct2)
        ]
        f = [[x - y for x, y in zip(rowf, row1)] for rowf, row1 in zip(f2, ct1)]
        table.append((ct, f))
    return table


def ctilde(c: CartanData, i: int, j: int, m: int) -> int:
    """Coefficient of z^m in entry (i, j) of the inverse quantum Cartan matrix."""
    c._check_node(i)
    c._check_node(j)
    if m < 0:
        raise CartanError(f"ctilde degree must be non-negative, got {m}")
    return _degrees(c, m)[m][0][i - 1][j - 1]


def n_form(c: CartanData, i: int, j: int, m: int) -> int:
    """Skew form coefficient governing t-commutation of the Y-variables.

    Antisymmetric in m; for m >= 0 it is ctilde(m+1) - ctilde(m-1)."""
    if m == 0:
        c._check_node(i)
        c._check_node(j)
        return 0
    n = ctilde(c, i, j, abs(m) + 1) - ctilde(c, i, j, abs(m) - 1)
    return n if m > 0 else -n


def f_form(c: CartanData, i: int, j: int, m: int) -> int:
    """Skew form coefficient governing t-commutation of the z-variables.

    Antisymmetric in m; for m >= 0 it is -sum_{k>=1, m>=2k-1} ctilde(m-2k+1),
    i.e. minus the sum of ctilde over degrees m-1, m-3, ..., down to 0 or 1.
    """
    c._check_node(i)
    c._check_node(j)
    f = _degrees(c, abs(m))[abs(m)][1][i - 1][j - 1]
    return f if m >= 0 else -f


def check_vertices(c: CartanData, verts: Iterable[tuple[int, int]]) -> None:
    """Raise CartanError if a vertex (i, r) names a node outside c."""
    for i in {i for i, _ in verts}:
        c._check_node(i)


def skew_form(c: CartanData, verts: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The skew form on a list of vertices (i, r): entry [a][b] is
    Lambda(verts[a], verts[b]) = f_form(i_a, i_b, r_b - r_a)."""
    check_vertices(c, verts)
    levels = [r for _, r in verts]
    table = _degrees(c, max(levels, default=0) - min(levels, default=0))
    return [
        [
            table[s - r][1][i - 1][j - 1] if s >= r else -table[r - s][1][i - 1][j - 1]
            for j, s in verts
        ]
        for i, r in verts
    ]
