"""Skew form on a quiver slice and compatible-pair verification.

The skew-symmetric matrix Lambda over the slice vertices is the level-gap
form cartan.skew_form on the slice's vertex list; together with the exchange
matrix it forms a compatible pair, meaning B^T Lambda is diagonal on the
exchangeable columns.  For this construction the diagonal is the constant
-2; the checker reports the signed diagonal rather than insisting on a
positivity convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import CartanData, skew_form
from .quiver import QuiverError, QuiverSlice, e_matrix


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
    off-pattern entries counts as compatible."""
    if lam.shape != (b.shape[0], b.shape[0]):
        raise QuiverError(
            f"shape mismatch: B is {b.shape}, Lambda is {lam.shape}"
        )
    prod = b.T @ lam  # n x m
    diag = [int(prod[k, rk]) for k, rk in enumerate(exch_rows)]
    violations = []
    for k in range(prod.shape[0]):
        for u in range(prod.shape[1]):
            if u == exch_rows[k]:
                continue
            if prod[k, u] != 0:
                violations.append((k, u, int(prod[k, u])))
    ok = not violations and all(d != 0 for d in diag) and len(set(diag)) == 1
    return CompatReport(ok=ok, diag=tuple(diag), violations=tuple(violations))


def mutate_lambda(
    lam: np.ndarray, b: np.ndarray, exch_rows: tuple[int, ...], k: int
) -> np.ndarray:
    """Transport the skew form along a mutation: E_k^T Lambda E_k."""
    e = e_matrix(b, exch_rows, k)
    return e.T @ lam @ e
