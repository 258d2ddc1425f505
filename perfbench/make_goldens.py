"""Record the benchmark goldens from the current checkout.

    python3 perfbench/make_goldens.py

For every op any seed can generate (each workload at each level shift in
``workloads.LEVEL_SHIFTS``, smoke variants too) this stores the SHA-256 digest of the CLI op's
standard output.  For verify-all it stores the ten criterion names.  For a
matrix-seq op it stores digests of the final B and Lambda, and only after
checking them against an exact Python-int recomputation of the same
mutation sequence.  It also checks that the sequences and windows that
``workloads.py`` writes agree with ``qgroth.repchar``.  Run it only on a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import itertools
import json
import sys

import worker
import workloads

sys.path.insert(0, str(worker.ROOT / "src"))

import qgroth  # noqa: E402
from qgroth.repchar import default_window, mutation_sequence  # noqa: E402


def exact_mutation(b, lam, exch_rows, sequence, exchangeable):
    """B and Lambda after the sequence, in Python ints.  Only the rows of B
    with b[i][k] != 0 change, and E_k^T Lambda E_k changes only row and
    column k of Lambda."""
    b = [list(map(int, row)) for row in b.tolist()]
    lam = [list(map(int, row)) for row in lam.tolist()]
    m, n = len(b), len(b[0])
    for v in sequence:
        k = exchangeable.index(tuple(v))
        rk = exch_rows[k]
        e = {i: -b[i][k] for i in range(m) if b[i][k] < 0 and i != rk}
        e[rk] = -1
        col = [sum(lam[a][i] * x for i, x in e.items()) for a in range(m)]
        for a in range(m):
            lam[a][rk] = col[a]
        row = [sum(x * lam[i][c] for i, x in e.items()) for c in range(m)]
        lam[rk] = row
        row_k = b[rk][:]
        new = [r[:] for r in b]
        for i in range(m):
            bik = b[i][k]
            if i == rk or bik == 0:
                continue
            for j in range(n):
                if j != k:
                    new[i][j] = b[i][j] + (abs(bik) * row_k[j] + bik * abs(row_k[j])) // 2
        for i in range(m):
            new[i][k] = -b[i][k]
        new[rk] = [-x for x in b[rk]]
        new[rk][k] = -b[rk][k]
        b = new
    return b, lam


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"no goldens written: {message}")


def _list_digest(rows) -> str:
    return worker.digest(json.dumps(rows))


def golden_of(op):
    if op["check"] == "verify_all":
        obj = json.loads(worker.run_cli(op)["stdout"])
        _require(obj["ok"] and len(obj["results"]) == workloads.VERIFY_CRITERIA, str(obj))
        return [r["name"] for r in obj["results"]]
    if op["kind"] == "cli":
        res = worker.run_cli(op)
        _require(res["rc"] == 0, res["stderr"])
        return worker.digest(res["stdout"])
    res = worker.run_matrix_seq(op)
    c = qgroth.build_cartan(*op["dynkin"])
    slc = qgroth.build_slice(c, window=tuple(op["window"]))
    b, lam = exact_mutation(slc.b_matrix, qgroth.build_lambda(c, slc), slc.exch_rows,
                            op["sequence"], slc.exchangeable)
    got = {"b": worker.matrix_digest(res["b"]), "lam": worker.matrix_digest(res["lam"])}
    want = {"b": _list_digest(b), "lam": _list_digest(lam)}
    _require(got == want, f"{workloads.op_key(op)} differs from the exact recomputation")
    return want


def check_sequences() -> None:
    cases = [("D", 4, 1), ("D", 4, 2), *((d, n, 1) for d, n in workloads.MATRIX_SEQ_TYPES)]
    for d, n, i in cases:
        c = qgroth.build_cartan(d, n)
        for shift in workloads.LEVEL_SHIFTS:
            r = shift + workloads.node_classes(d, n)[i]
            want = mutation_sequence(c, i, r).sequence
            _require(tuple(workloads.fundamental_sequence(d, n, i, r)) == want,
                     f"sequence of {d}{n} ({i},{r})")
            _require(workloads.default_window(d, n, r) == default_window(c, i, r),
                     f"window of {d}{n} ({i},{r})")


def main() -> int:
    check_sequences()
    goldens = {}
    for name in workloads.WORKLOADS:
        for shift, smoke in itertools.product(workloads.LEVEL_SHIFTS, (False, True)):
            for op in workloads.ops_for_level(name, shift, smoke):
                key = workloads.op_key(op)
                if key not in goldens:
                    goldens[key] = golden_of(op)
                    print(f"{name} {key[:72]}", flush=True)
    workloads.GOLDENS.write_text(json.dumps(
        {"recorded_from": "qgroth " + qgroth.__version__, "ops": goldens},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
