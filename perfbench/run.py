"""qgroth benchmark runner.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 55 --trace 0

Run from the root of a qgroth checkout.  The seed picks the spectral level
and the op order of the workload (see ``workloads.py``).  Every pass runs the
whole op list in a fresh interpreter (``worker.py``), started one at a time,
so caches that a CLI call would not keep are cold in every pass.  Passes
repeat until the next one would end after ``--seconds``; there is at least
one.

With ``--trace 0`` the run reports the end-to-end metrics: the median pass
wall and CPU time, the median peak resident memory of a pass process, and
the median start-up time of a fresh worker (interpreter start to ``import
qgroth`` done), sampled ``SETUP_SAMPLES`` times.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
``layers.py``, medians over the traced passes, plus the median ratio of each
traced pass's wall time to that of the untraced pass before it.  Every op's output is checked; ``attempted`` and ``failed`` count ops
over all passes, and ``correct`` is false if any output was wrong or any op
raised.  A missed deadline counts as failed but not as wrong.

The last line of standard output is the JSON result.  Details, with the
seed, go to ``.perfbench_out/`` in the checkout, spans of traced passes too.
``--smoke`` runs only the cheapest ops of the workload; for frontier-D5-full
it shortens the deadline so that the op misses it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 7
# A run must end well inside three minutes even when every op hangs.
RUN_LIMIT_S = 170.0
KILL_SLACK_S = 30.0

END_TO_END_METRICS = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Worker:
    """One fresh-interpreter pass: spawn, time start-up, send the spec,
    collect the summary, and always reap the process."""

    def __init__(self, spec: dict, timeout: float):
        self.spec = spec
        self.timeout = max(timeout, 1.0)
        self.ready_s: float | None = None
        self.summary: dict | None = None
        self.seconds = 0.0

    def run(self) -> "Worker":
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER)], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        timer = threading.Timer(self.timeout, proc.kill)
        timer.start()
        try:
            if proc.stdout.readline().strip() == "ready":
                self.ready_s = time.perf_counter() - t0
                proc.stdin.write(json.dumps(self.spec))
                proc.stdin.close()
                lines = proc.stdout.read().strip().splitlines()
                if proc.wait() == 0 and lines:
                    self.summary = json.loads(lines[-1])
        except (BrokenPipeError, json.JSONDecodeError):
            self.summary = None
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if not stream.closed:
                    stream.close()
        self.seconds = time.perf_counter() - t0
        return self


def _pass_record(w: Worker, ops: list[dict], traced: bool) -> dict:
    if w.summary is None:
        lost = [{"key": op["key"], "outcome": "error", "detail": "worker died or was killed",
                 "seconds": op["deadline"], "cpu_s": 0.0, "rss_mb": 0.0} for op in ops]
        return {"traced": traced, "ops": lost, "wall_s": sum(r["seconds"] for r in lost),
                "cpu_s": 0.0, "peak_rss_mb": 0.0, "killed": True, "spawn_s": w.seconds}
    return {"traced": traced, "killed": False, "spawn_s": w.seconds, **w.summary}


class Run:
    def __init__(self, args, ops: list[dict]):
        self.args = args
        self.ops = ops
        self.t_start = time.perf_counter()
        self.passes: list[dict] = []
        self.setup: list[float] = []

    def _left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t_start)

    def _timeout(self) -> float:
        return min(sum(op["deadline"] for op in self.ops) + KILL_SLACK_S, self._left())

    def one_pass(self, traced: bool) -> dict:
        spec = {"ops": self.ops, "trace": traced}
        if traced:
            k = sum(p["traced"] for p in self.passes)
            spec["trace_path"] = str(OUT_DIR / f"{self.stem()}-spans{k}.json")
        w = Worker(spec, self._timeout()).run()
        rec = _pass_record(w, self.ops, traced)
        self.passes.append(rec)
        bad = [r for r in rec["ops"] if r["outcome"] != "ok"]
        print(f"pass {len(self.passes)}{' traced' if traced else ''}: "
              f"wall {rec['wall_s']:.3f} s, cpu {rec['cpu_s']:.3f} s, "
              f"rss {rec['peak_rss_mb']:.1f} MB, {len(rec['ops']) - len(bad)}/{len(rec['ops'])} ok"
              + "".join(f"\n  {r['outcome']}: {r['key'][:80]}: {r['detail']}" for r in bad),
              flush=True)
        return rec

    def stem(self) -> str:
        a = self.args
        return f"{a.workload}-seed{a.seed}" + ("-smoke" if a.smoke else "")

    def measure(self) -> None:
        samples = 3 if self.args.smoke else SETUP_SAMPLES
        if not self.args.trace:
            for _ in range(samples):
                w = Worker({"ops": []}, min(60.0, self._left())).run()
                if w.ready_s is None:
                    raise SystemExit("benchmark worker failed to start")
                self.setup.append(w.ready_s)
        kinds = [False, True] if self.args.trace else [False]
        t0 = time.perf_counter()
        k = 0
        while True:
            traced = kinds[k % len(kinds)]
            self.one_pass(traced)
            k += 1
            if k < len(kinds):
                continue
            nxt = kinds[k % len(kinds)]
            est = statistics.median(p["spawn_s"] for p in self.passes if p["traced"] == nxt)
            elapsed = time.perf_counter() - t0
            if elapsed + est > self.args.seconds or est > self._left():
                break

    def metrics(self) -> dict[str, float]:
        if not self.args.trace:
            plain = [p for p in self.passes if not p["traced"]]
            return {
                "wall_s": statistics.median(p["wall_s"] for p in plain),
                "cpu_s": statistics.median(p["cpu_s"] for p in plain),
                "setup_s": statistics.median(self.setup),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            }
        traced = [p for p in self.passes if p["traced"] and not p["killed"]]
        if not traced:  # every traced worker died; the run is not correct
            return {name: 0 for name, _unit in layers.PER_LAYER_METRICS}
        out = {name: statistics.median(p["layers"][name] for p in traced)
               for name, _unit in layers.PER_LAYER_METRICS if name != "trace_overhead_ratio"}
        # Each traced pass against the untraced pass just before it, so that
        # the machine's speed drift cancels as far as it can.
        pairs = zip(self.passes, self.passes[1:])
        out["trace_overhead_ratio"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in pairs
            if t["traced"] and not t["killed"] and not u["traced"])
        return out

    def outcome_counts(self) -> tuple[int, int, bool]:
        recs = [r for p in self.passes for r in p["ops"]]
        failed = sum(r["outcome"] != "ok" for r in recs)
        correct = not any(r["outcome"] in ("wrong", "error") for r in recs)
        return len(recs), failed, correct


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="only the cheapest ops of the workload (a short deadline "
                         "for frontier-D5-full)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qgroth" / "__init__.py").is_file():
        print(f"no qgroth sources under {ROOT / 'src'}; run from a qgroth checkout",
              file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed, smoke=args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(ops)} ops per pass", flush=True)
    for op in ops:
        print(f"  op: {op['key'][:100]}")

    run = Run(args, ops)
    run.measure()
    metrics = run.metrics()
    attempted, failed, correct = run.outcome_counts()
    units = dict(layers.PER_LAYER_METRICS if args.trace else END_TO_END_METRICS)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"fail_ratio = {failed / attempted} ({failed} of {attempted} ops failed)")
    largest = [p.get("largest_division") for p in run.passes if p.get("largest_division")]
    if largest:
        d = largest[-1]
        print(f"largest division: {d['num_terms']} / {d['den_terms']} -> "
              f"{d.get('quot_terms', 'unfinished')} terms, "
              f"{d['coeff_bits']} coefficient bits, {d['seconds']:.3f} s")

    (OUT_DIR / f"{run.stem()}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": [op["key"] for op in ops],
        "passes": run.passes, "setup_samples_s": run.setup,
        "metrics": metrics, "attempted": attempted, "failed": failed,
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
