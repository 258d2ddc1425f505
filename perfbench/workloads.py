"""Operation lists of the benchmark workloads, generated from a seed.

Nothing here imports qgroth: the program under test only ever sees the
argument lists and parameters built below.  The Dynkin bookkeeping needed to
write a mutation path (bipartite node classes, dual Coxeter numbers, the
column-by-column fundamental sequence and its default level window) is
restated here from its definition, and ``make_goldens.py`` checks it against
``qgroth.repchar`` on the commit that recorded the goldens.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

# The seed picks the spectral level r of every op from these translates of
# the same computation; goldens exist for each of them.
LEVEL_SHIFTS = (-4, -2, 0, 2, 4)

# Per-op deadline (seconds).  Long enough for every listed op to finish
# with a wide margin; frontier-D5-full keeps the ten-second target of the
# star-product rewrite well inside it.
DEADLINE_S = 60.0
FRONTIER_FULL_DEADLINE_S = 20.0
# The smoke variant of frontier-D5-full exercises the missed-deadline path.
FRONTIER_SMOKE_DEADLINE_S = 1.0

# The D5 (1,r) sequence is cut after this many mutations in frontier-D5: the
# 26th mutation builds an 823-term variable, and the 29th alone runs for
# about a minute on the seed code.  The smoke mode stops two steps earlier.
D5_PREFIX_STEPS = 26
D5_SMOKE_STEPS = 24

MATRIX_SEQ_TYPES = (("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8))

# The workloads listed in BENCHMARK.json.  "torus" is the union of the three
# torus op groups below, so that one run measures long enough to average
# out this machine's speed drift; each group still runs on its own.
WORKLOADS = ("torus", "matrix-seq")
# Runnable but not listed.  frontier-D5-full misses its deadline on the seed
# code, and listed workloads must complete every op.
EXTRA_WORKLOADS = ("fund-char-D4", "verify-all", "frontier-D5", "frontier-D5-full")

VERIFY_CRITERIA = 10


# ------------------------------------------------------------ Dynkin data

def _edges(dynkin: str, rank: int) -> set[frozenset[int]]:
    if dynkin == "A":
        return {frozenset((k, k + 1)) for k in range(1, rank)}
    if dynkin == "D":
        edges = {frozenset((k, k + 1)) for k in range(1, rank - 1)}
        edges.add(frozenset((rank - 2, rank)))
        return edges
    chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
    edges = {frozenset((a, b)) for a, b in zip(chain, chain[1:])}
    edges.add(frozenset((2, 4)))
    return edges


def node_classes(dynkin: str, rank: int) -> dict[int, int]:
    """Bipartite class of each node: distance from node 1, mod 2."""
    edges = _edges(dynkin, rank)
    cls = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(1, rank + 1):
                if frozenset((i, j)) in edges and j not in cls:
                    cls[j] = 1 - cls[i]
                    nxt.append(j)
        frontier = nxt
    return cls


def dual_coxeter(dynkin: str, rank: int) -> int:
    if dynkin == "A":
        return rank + 1
    if dynkin == "D":
        return 2 * rank - 2
    return {6: 12, 7: 18, 8: 30}[rank]


def fundamental_sequence(dynkin: str, rank: int, i: int, r: int) -> list[tuple[int, int]]:
    """The mutation path whose last vertex carries the fundamental character
    at origin (i, r)."""
    cls = node_classes(dynkin, rank)
    h_prime = (dual_coxeter(dynkin, rank) + 1) // 2
    nodes = range(1, rank + 1)
    same = [j for j in nodes if cls[j] == cls[i] and j != i]
    other = [j for j in nodes if cls[j] != cls[i]]
    top = r + 2 * h_prime
    seq = []
    for k in range(h_prime, 1, -1):
        for j in (i, *same, *other):
            eps = 0 if cls[j] == cls[i] else 1
            seq.extend((j, top - eps - 2 * l) for l in range(k))
    seq.append((i, top))
    return seq


def default_window(dynkin: str, rank: int, r: int) -> tuple[int, int]:
    h_prime = (dual_coxeter(dynkin, rank) + 1) // 2
    return (r - 1, r + 2 * h_prime + 2)


# ------------------------------------------------------------------ ops

def _path_arg(path) -> str:
    return ";".join(f"({i},{r})" for i, r in path)


def _window_arg(window) -> str:
    return f"{window[0]}:{window[1]}"


def fund_char_argv(dynkin, rank, i, r) -> list[str]:
    return ["fund-char", "--type", dynkin, "--rank", str(rank),
            "--i", str(i), "--r", str(r), "--json"]


def mutate_argv(dynkin, rank, window, path, t1=False) -> list[str]:
    argv = ["mutate", "--type", dynkin, "--rank", str(rank),
            "--window", _window_arg(window), "--path", _path_arg(path)]
    return argv + (["--t1", "--json"] if t1 else ["--json"])


def op_key(op: dict) -> str:
    """Golden-table key of an op: its argv, or its matrix-seq parameters."""
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    d, n = op["dynkin"]
    return f"matrix-seq {d}{n} node 1 window {_window_arg(op['window'])}"


def _fund_char_d4(r: int, smoke: bool) -> list[dict]:
    ops = [{"kind": "cli", "check": "digest", "argv": fund_char_argv("D", 4, 2, r + 1)}]
    if smoke:
        return ops
    window = default_window("D", 4, r)
    return ops + [
        {"kind": "cli", "check": "digest", "argv": fund_char_argv("D", 4, 1, r)},
        {"kind": "cli", "check": "digest",
         "argv": mutate_argv("D", 4, window, fundamental_sequence("D", 4, 1, r), t1=True)},
    ]


def _verify_all(r: int, smoke: bool) -> list[dict]:
    return [{"kind": "cli", "check": "verify_all", "argv": ["verify-all", "--json"]}]


def _matrix_seq(r: int, smoke: bool) -> list[dict]:
    types = MATRIX_SEQ_TYPES[:2] if smoke else MATRIX_SEQ_TYPES
    return [
        {"kind": "matrix_seq", "check": "matrix", "dynkin": [d, n],
         "window": list(default_window(d, n, r)),
         "sequence": [list(v) for v in fundamental_sequence(d, n, 1, r)]}
        for d, n in types
    ]


def _frontier_d5(r: int, smoke: bool) -> list[dict]:
    steps = D5_SMOKE_STEPS if smoke else D5_PREFIX_STEPS
    path = fundamental_sequence("D", 5, 1, r)[:steps]
    return [{"kind": "cli", "check": "digest_bar",
             "argv": mutate_argv("D", 5, default_window("D", 5, r), path)}]


def _frontier_d5_full(r: int, smoke: bool) -> list[dict]:
    return [{"kind": "cli", "check": "d5_oracle", "origin": [1, r],
             "argv": fund_char_argv("D", 5, 1, r),
             "deadline": FRONTIER_SMOKE_DEADLINE_S if smoke else FRONTIER_FULL_DEADLINE_S}]


def _torus(r: int, smoke: bool) -> list[dict]:
    return _fund_char_d4(r, smoke) + _verify_all(r, smoke) + _frontier_d5(r, smoke)


_BUILDERS = {
    "torus": _torus,
    "fund-char-D4": _fund_char_d4,
    "verify-all": _verify_all,
    "matrix-seq": _matrix_seq,
    "frontier-D5": _frontier_d5,
    "frontier-D5-full": _frontier_d5_full,
}


def ops_for_level(workload: str, r: int, smoke: bool = False) -> list[dict]:
    """The ops of one pass at level shift r, in their canonical order.
    The smoke variant keeps only the cheapest ops."""
    return _BUILDERS[workload](r, smoke)


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The op list of one pass: the level and the op order come from seed,
    and each op carries its golden and its deadline."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    ops = ops_for_level(workload, rng.choice(LEVEL_SHIFTS), smoke)
    rng.shuffle(ops)
    goldens = load_goldens()
    for op in ops:
        op["key"] = op_key(op)
        op.setdefault("deadline", DEADLINE_S)
        if op["check"] != "d5_oracle":
            op["golden"] = goldens[op["key"]]
    return ops


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())["ops"]
