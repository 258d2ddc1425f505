"""Summarise finished benchmark runs into a baseline file.

    for s in $(seq 101 110); do for w in fund-char-D4 verify-all matrix-seq frontier-D5; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 30 --trace 0; done; done
    for w in fund-char-D4 verify-all matrix-seq frontier-D5; do
        python3 perfbench/run.py --workload $w --seed 201 --seconds 30 --trace 1; done
    python3 perfbench/baseline.py --seeds 101-110 --traced-seed 201 --machine "..."

It reads the run records in ``.perfbench_out/`` and writes, per workload, the
median and quartiles of each end-to-end metric over the untraced runs, the
spread (quartile distance over median) the way the acceptance rule takes
it, the median time of each op family, and the per-layer metrics of the
traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads


def op_family(key: str) -> str:
    """An op key without its level: the same family at every seed."""
    tok = key.split()
    if tok[0] == "fund-char":
        return f"fund-char {tok[2]}{tok[4]} node {tok[6]}"
    if tok[0] == "mutate":
        steps = len(tok[tok.index("--path") + 1].split(";"))
        return f"mutate {tok[2]}{tok[4]} {steps} steps" + (" t=1" if "--t1" in tok else "")
    return key.split(" window")[0]


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def _record(workload: str, seed: int, trace: int) -> dict:
    path = run.OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summarise(workload: str, seeds: list[int], traced_seed: int) -> dict:
    recs = [_record(workload, s, 0) for s in seeds]
    per_op: dict[str, list[float]] = {}
    for rec in recs:
        for p in rec["passes"]:
            for op in p["ops"]:
                per_op.setdefault(op_family(op["key"]), []).append(op["seconds"])
    traced = _record(workload, traced_seed, 1)
    return {
        "end_to_end": {name: _quartiles([r["metrics"][name] for r in recs])
                       for name, _unit in run.END_TO_END_METRICS},
        "ops_attempted": sum(r["attempted"] for r in recs),
        "ops_failed": sum(r["failed"] for r in recs),
        "per_op_median_s": {k: statistics.median(v) for k, v in sorted(per_op.items())},
        "per_layer": traced["metrics"],
    }


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 101-110")
    ap.add_argument("--traced-seed", type=int, required=True)
    ap.add_argument("--machine", required=True, help="where the runs were made")
    ap.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = ap.parse_args(argv)
    obj = {
        "machine": args.machine,
        "seeds": args.seeds,
        "traced_seed": args.traced_seed,
        "workloads": {w: summarise(w, args.seeds, args.traced_seed)
                      for w in workloads.WORKLOADS},
    }
    with open(args.out, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
