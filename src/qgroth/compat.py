"""Skew form on a quiver slice and compatible-pair verification.

The skew-symmetric matrix Lambda over the slice vertices is the level-gap
form cartan.skew_form on the slice's vertex list; together with the exchange
matrix it forms a compatible pair, meaning B^T Lambda is diagonal on the
exchangeable columns.  For this construction the diagonal is the constant
-2; the checker reports the signed diagonal rather than insisting on a
positivity convention, and raises QuiverError rather than let B^T Lambda
wrap past int64.

Mutation transports Lambda to E_k^T Lambda E_k.  As E_k - I is rank one,
mutate_lambda rewrites only row and column rk, reading only the rows and
columns of Lambda on the support of E_k's column rk.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .cartan import CartanData, skew_form
from .quiver import QuiverError, QuiverSlice, _check_column, check_int64


@dataclass(frozen=True)
class CompatReport:
    ok: bool
    diag: tuple[int, ...]
    violations: tuple[tuple[int, int, int], ...]  # (col, row, value) of bad entries

    def __str__(self) -> str:
        if self.ok:
            return f"PASS diagonal={list(self.diag)}"
        lines = [f"FAIL {len(self.violations)} off-pattern entries:"]
        lines += [f"  (B^T L)[{c},{r}] = {v}" for c, r, v in self.violations[:20]]
        return "\n".join(lines)


def build_lambda(c: CartanData, slc: QuiverSlice) -> np.ndarray:
    """Skew form matrix: entry ((i,r),(j,s)) is the gap form at (i, j, s-r)."""
    return np.array(skew_form(c, slc.vertices), dtype=np.int64)


def check_compatible(
    b: np.ndarray, lam: np.ndarray, exch_rows: tuple[int, ...]
) -> CompatReport:
    """Verify that B^T Lambda is diagonal on the exchangeable columns.

    Returns the signed diagonal; any constant nonzero diagonal with zero
    off-pattern entries counts as compatible, and so, vacuously, does the
    empty diagonal of a slice with no exchangeable vertex (4 levels).
    Raises QuiverError rather than wrap when max|B| max|Lambda| times the
    number of rows, a bound on every entry and partial sum, reaches 2^63."""
    if lam.shape != (b.shape[0], b.shape[0]):
        raise QuiverError(
            f"shape mismatch: B is {b.shape}, Lambda is {lam.shape}"
        )
    # min is read as a Python int: np.abs wraps at -2^63
    mb, ml = (max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (b, lam))
    if (bound := mb * ml * b.shape[0]) >= 2**63:
        raise QuiverError(f"B^T Lambda may overflow int64: bound {bound}")
    prod = b.T @ lam  # n x m
    pivots = (np.arange(len(exch_rows)), list(exch_rows))
    diag = tuple(prod[pivots].tolist())
    prod[pivots] = 0
    violations = tuple((k, u, int(prod[k, u])) for k, u in np.argwhere(prod).tolist())
    ok = not violations and 0 not in diag and len(set(diag)) <= 1
    return CompatReport(ok=ok, diag=diag, violations=violations)


def mutate_lambda(
    lam: np.ndarray, b: np.ndarray, exch_rows: tuple[int, ...], k: int
) -> np.ndarray:
    """Transport the skew form along a mutation: E_k^T Lambda E_k.

    With c = max(0, -B[:, k]), c[rk] = -1 the column rk = exch_rows[k] of
    E_k, this is Lambda with column rk set to Lambda c, row rk to c^T Lambda
    and entry (rk, rk) to c^T Lambda c, for any square Lambda: one copy plus
    O(n |u|), u the support of c.  Raises QuiverError rather than wrap past
    int64: max|Lambda| on rows and columns u times |c|_1 bounds the new row
    and column and the partial sums of both products; the corner, |u|
    products, is summed in Python ints and must fit."""
    _check_column(b, exch_rows, k)
    rk = exch_rows[k]
    c = np.maximum(0, -b[:, k])
    c[rk] = -1
    (u,) = c.nonzero()
    cu = c[u]
    cl = cu.tolist()
    l1 = sum(map(abs, cl))
    rows = np.array((lam.take(u, 0), lam.T.take(u, 0)))  # Lambda[u, :], Lambda[:, u]^T
    # read as Python ints: np.abs wraps at -2^63
    check_int64(max(int(rows.max()), -int(rows.min())) * l1, "Lambda", k)
    out = lam.astype(np.int64)
    row_col = cu @ rows
    out[:, rk] = row_col[1]
    out[rk] = row = row_col[0]
    corner = sum(map(mul, row[u].tolist(), cl))
    check_int64(abs(corner), "Lambda", k)
    out[rk, rk] = corner
    return out
