"""Finite slices of the infinite bipartite quiver attached to a simply-laced
Dynkin diagram, and classical exchange-matrix mutation.

A vertex is a pair (i, r) with i a Dynkin node and r an integer level whose
parity matches the bipartite class of i.  A slice carries the vertices of a
level window ordered by decreasing level then increasing node (the "reading
order" of the layered quiver drawing); the two extreme level rows on each
side are frozen and the rest are exchangeable.

The exchange matrix is stored rectangularly: rows over all vertices, columns
over exchangeable vertices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import CartanData

Vertex = tuple[int, int]


class QuiverError(ValueError):
    """Invalid slice window or mutation direction."""


@dataclass(frozen=True, eq=False)
class QuiverSlice:
    """A finite window of the infinite quiver.

    vertices: all (i, r) in the window, ordered by (level desc, node asc);
    exchangeable: the sub-list at interior levels, same ordering;
    b_matrix: len(vertices) x len(exchangeable) integer matrix;
    exch_rows: row index in `vertices` of each exchangeable column.
    """

    cartan: CartanData
    r_min: int
    r_max: int
    vertices: tuple[Vertex, ...]
    exchangeable: tuple[Vertex, ...]
    b_matrix: np.ndarray
    exch_rows: tuple[int, ...]

    def __post_init__(self):
        self.b_matrix.setflags(write=False)

    @property
    def index(self) -> dict[Vertex, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def column_of(self, v: Vertex) -> int:
        try:
            return self.exchangeable.index(v)
        except ValueError:
            raise QuiverError(f"vertex {v} is not exchangeable in this slice") from None

    def principal_part(self) -> np.ndarray:
        """Square submatrix over the exchangeable vertices (skew-symmetric)."""
        return self.b_matrix[list(self.exch_rows), :]


def _window_vertices(c: CartanData, r_min: int, r_max: int) -> list[Vertex]:
    out = []
    for r in range(r_max, r_min - 1, -1):
        for i in c.nodes:
            if c.in_ihat(i, r):
                out.append((i, r))
    return out


def b_entry(c: CartanData, row: Vertex, col: Vertex) -> int:
    """Arrow count between two quiver vertices.

    +1 if the levels differ by +2 on the same node or by -1 across an edge;
    -1 for the mirrored cases; 0 otherwise."""
    (i, r), (j, s) = row, col
    if i == j:
        if s == r + 2:
            return 1
        if s == r - 2:
            return -1
    elif j in c.neighbors(i):
        if s == r - 1:
            return 1
        if s == r + 1:
            return -1
    return 0


def build_slice(
    c: CartanData,
    N: int | None = None,
    window: tuple[int, int] | None = None,
) -> QuiverSlice:
    """Build the slice Gamma_N (levels -2N-1 .. 2N) or an arbitrary window.

    Exactly one of N and window must be given.  The window [r_min, r_max] is
    inclusive; levels within distance 1 of either end are frozen, so the
    exchangeable levels are [r_min+2, r_max-2].  Column (j, s) asks b_entry
    only about the rows that can carry an arrow, (j, s+-2) and (i, s+-1)
    for i adjacent to j."""
    if (N is None) == (window is None):
        raise QuiverError("specify exactly one of N or window")
    if N is not None:
        if N < 1:
            raise QuiverError(f"N must be >= 1, got {N}")
        r_min, r_max = -2 * N - 1, 2 * N
    else:
        r_min, r_max = window
        if r_max - r_min < 3:
            raise QuiverError(
                f"window [{r_min}, {r_max}] too short: needs at least 4 levels"
            )
    vertices = _window_vertices(c, r_min, r_max)
    exchangeable = [(i, r) for (i, r) in vertices if r_min + 2 <= r <= r_max - 2]
    idx = {v: k for k, v in enumerate(vertices)}
    b = np.zeros((len(vertices), len(exchangeable)), dtype=np.int64)
    for col, (j, s) in enumerate(exchangeable):
        near = [(i, s + d) for i in c.neighbors(j) for d in (1, -1)]
        for v in [(j, s + 2), (j, s - 2), *near]:
            if v in idx:
                b[idx[v], col] = b_entry(c, v, (j, s))
    return QuiverSlice(
        cartan=c,
        r_min=r_min,
        r_max=r_max,
        vertices=tuple(vertices),
        exchangeable=tuple(exchangeable),
        b_matrix=b,
        exch_rows=tuple(idx[w] for w in exchangeable),
    )


def _check_column(b: np.ndarray, exch_rows: tuple[int, ...], k: int) -> None:
    if not 0 <= k < b.shape[1]:
        raise QuiverError(f"column {k} out of range for {b.shape[1]} exchangeable")
    if len(exch_rows) != b.shape[1]:
        raise QuiverError("exch_rows length must match the number of columns")


def check_int64(bound: int, what: str, k: int) -> None:
    """Refuse a mutation whose intermediate values may reach 2^63.  Guarded
    outputs stay inside (-2^63, 2^63), so np.abs of them cannot wrap."""
    if bound >= 2**63:
        raise QuiverError(f"{what} mutation at column {k} may overflow int64: bound {bound}")


def mutate_matrix(b: np.ndarray, exch_rows: tuple[int, ...], k: int) -> np.ndarray:
    """Exchange-matrix mutation in direction k (a column index).

    b'_{ij} = -b_{ij} when i or j is the mutation direction, and otherwise
    b_{ij} + (|b_{ik}| b_{kj} + b_{ik} |b_{kj}|) / 2, which changes only the
    block where column k and its pivot row are nonzero: one copy of b plus
    work on that block.  Raises QuiverError, never wraps: max|block| +
    2 max|column k| max|row| bounds every new entry and partial sum."""
    _check_column(b, exch_rows, k)
    rk = exch_rows[k]
    (ci,), (rj,) = b[:, k].nonzero(), b[rk].nonzero()
    col, row, block = b[ci, k], b[rk, rj], b[ci[:, None], rj]
    mb, mc, mr = (max(map(abs, x.ravel().tolist()), default=0) for x in (block, col, row))
    check_int64(mb + 2 * mc * mr, "B", k)
    out = b.copy()
    out[ci[:, None], rj] = block + (abs(col[:, None]) * row + col[:, None] * abs(row)) // 2
    out[ci, k] = -col
    out[rk, rj] = -row
    return out


def e_matrix(b: np.ndarray, exch_rows: tuple[int, ...], k: int) -> np.ndarray:
    """Row-side mutation factor: identity except column k of the exchangeable
    row block, which holds max(0, -b_{ik}) off the pivot and -1 at it."""
    _check_column(b, exch_rows, k)
    m = b.shape[0]
    rk = exch_rows[k]
    e = np.eye(m, dtype=np.int64)
    e[:, rk] = np.maximum(0, -b[:, k])
    e[rk, rk] = -1
    return e


def f_matrix(b: np.ndarray, exch_rows: tuple[int, ...], k: int) -> np.ndarray:
    """Column-side mutation factor: identity except row k, which holds
    max(0, b_{kj}) off the pivot and -1 at it."""
    _check_column(b, exch_rows, k)
    n = b.shape[1]
    rk = exch_rows[k]
    f = np.eye(n, dtype=np.int64)
    f[k, :] = np.maximum(0, b[rk, :])
    f[k, k] = -1
    return f
