"""One benchmark pass in a fresh interpreter.

Started by ``run.py`` once per pass.  It imports qgroth from the checkout's
``src`` directory, prints ``ready``, then reads the pass spec (a JSON object
with ``ops``, ``trace`` and ``trace_path``) from standard input.  Each op
runs in-process, one at a time, under its own deadline; CLI ops go through
``qgroth.cli.main(argv)`` with standard output captured.  After an op's
timed region its output is checked against the golden it carries.  The last
line of standard output is a JSON summary of the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test swallows it."""


class Deadline:
    """Per-op interval timer.  An alarm that arrives after disarm() (the op
    returned just as the timer expired) is ignored."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_digest(m) -> str:
    return digest(json.dumps([[int(x) for x in row] for row in m.tolist()]))


# ------------------------------------------------------------------- ops

def run_cli(op):
    from qgroth import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_matrix_seq(op):
    import qgroth

    c = qgroth.build_cartan(*op["dynkin"])
    slc = qgroth.build_slice(c, window=tuple(op["window"]))
    lam = qgroth.build_lambda(c, slc)
    b = slc.b_matrix
    for v in op["sequence"]:
        k = slc.column_of(tuple(v))
        b, lam = (
            qgroth.mutate_matrix(b, slc.exch_rows, k),
            qgroth.mutate_lambda(lam, b, slc.exch_rows, k),
        )
    report = qgroth.check_compatible(b, lam, slc.exch_rows)
    return {"b": b, "lam": lam, "report": report, "exch_rows": slc.exch_rows}


RUNNERS = {"cli": run_cli, "matrix_seq": run_matrix_seq}


# ---------------------------------------------------------------- checks

def _json_out(res) -> dict:
    if res["rc"] != 0:
        raise AssertionError(f"exit code {res['rc']}: {res['stderr'].strip()[:200]}")
    return json.loads(res["stdout"])


def _bar_invariant(terms) -> bool:
    by_exp: dict[str, dict[int, int]] = {}
    for t in terms:
        by_exp.setdefault(json.dumps(t["exp"]), {})[t["t_num"]] = t["c"]
    return all(coeff == {-k: v for k, v in coeff.items()} for coeff in by_exp.values())


def check_digest(op, res) -> None:
    _json_out(res)
    if digest(res["stdout"]) != op["golden"]:
        raise AssertionError("stdout differs from the golden digest")


def check_digest_bar(op, res) -> None:
    check_digest(op, res)
    if not _bar_invariant(json.loads(res["stdout"])["terms"]):
        raise AssertionError("variable is not bar-invariant")


def check_verify_all(op, res) -> None:
    obj = _json_out(res)
    names = [r["name"] for r in obj["results"]]
    if names != op["golden"]:
        raise AssertionError(f"criteria {names} differ from {op['golden']}")
    failed = [r["name"] for r in obj["results"] if not r["ok"]]
    if failed or not obj["ok"]:
        raise AssertionError(f"criteria failed: {failed}")


def check_matrix(op, res) -> None:
    import numpy as np

    b, lam, rows = res["b"], res["lam"], res["exch_rows"]
    if matrix_digest(b) != op["golden"]["b"] or matrix_digest(lam) != op["golden"]["lam"]:
        raise AssertionError("final B or Lambda differs from the exact recomputation")
    # int64 B^T Lambda is exact when no product sum can reach 2^63.
    bound = int(np.abs(b).max()) * int(np.abs(lam).max()) * b.shape[0]
    if bound >= 2**62:
        raise AssertionError(f"entries too large for an exact int64 check ({bound})")
    prod = b.astype(np.int64).T @ lam.astype(np.int64)
    want = np.zeros_like(prod)
    for k, rk in enumerate(rows):
        want[k, rk] = -2
    if not np.array_equal(prod, want):
        raise AssertionError("B^T Lambda is not -2 on the exchangeable diagonal")
    if not (res["report"].ok and set(res["report"].diag) == {-2}):
        raise AssertionError(f"check_compatible reports {res['report']}")


def check_d5_oracle(op, res) -> None:
    from qgroth import build_cartan
    from qgroth.repchar import fm_qchar_embedded

    terms = _json_out(res)["terms"]
    if not _bar_invariant(terms):
        raise AssertionError("character is not bar-invariant")
    at_t1: dict = {}
    for t in terms:
        key = tuple(((i, r), e) for i, r, e in t["exp"])
        at_t1[key] = at_t1.get(key, 0) + t["c"]
    at_t1 = {k: v for k, v in at_t1.items() if v}
    if len(at_t1) != 10:
        raise AssertionError(f"{len(at_t1)} monomials at t=1, expected 10")
    if at_t1 != fm_qchar_embedded(build_cartan("D", 5), *op["origin"]):
        raise AssertionError("t=1 value differs from the q-character oracle")


CHECKS = {
    "digest": check_digest,
    "digest_bar": check_digest_bar,
    "verify_all": check_verify_all,
    "matrix": check_matrix,
    "d5_oracle": check_d5_oracle,
}


# ------------------------------------------------------------------ pass

def _cpu() -> float:
    """CPU seconds of this process, all threads, plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(op, deadline: Deadline, tracer) -> dict:
    """Run one op under its deadline, then check its output.  The outcome is
    ok, wrong (an output failed its check), error (the op raised) or
    deadline; a missed deadline records the deadline as the op's time."""
    rec = {"key": op["key"], "outcome": "ok", "detail": ""}
    res = None
    t0, c0 = time.perf_counter(), _cpu()
    try:
        deadline.arm(op["deadline"])
        res = RUNNERS[op["kind"]](op)
        deadline.disarm()
    except DeadlineExceeded:
        rec["outcome"] = "deadline"
        rec["detail"] = f"missed the {op['deadline']} s deadline"
    except Exception as exc:  # the op failed; record it and go on
        rec["outcome"] = "error"
        rec["detail"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        deadline.disarm()
        t1, c1 = time.perf_counter(), _cpu()
    rec["seconds"] = op["deadline"] if rec["outcome"] == "deadline" else t1 - t0
    rec["cpu_s"] = c1 - c0
    rec["rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.close_open()
    if res is not None:
        try:
            CHECKS[op["check"]](op, res)
        except (AssertionError, ValueError, KeyError) as exc:
            rec["outcome"] = "wrong"
            rec["detail"] = str(exc)
    return rec


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    out = sys.stdout
    sys.path.insert(0, str(ROOT / "src"))
    import qgroth
    import qgroth.cli  # noqa: F401

    if Path(qgroth.__file__).resolve().parent != ROOT / "src" / "qgroth":
        print(f"qgroth imported from {qgroth.__file__}, not this checkout", file=sys.stderr)
        return 2
    print("ready", file=out, flush=True)
    spec = json.loads(sys.stdin.read())
    deadline = Deadline()

    tracer = None
    if spec.get("trace"):
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    ops = [run_op(op, deadline, tracer) for op in spec["ops"]]
    summary = {
        "ops": ops,
        "wall_s": sum(r["seconds"] for r in ops),
        "cpu_s": sum(r["cpu_s"] for r in ops),
        "peak_rss_mb": max((r["rss_mb"] for r in ops), default=_peak_rss_mb()),
    }
    if tracer is not None:
        summary["layers"] = layers.layer_metrics(tracer)
        summary["largest_division"] = layers.largest_division(tracer)
        if spec.get("trace_path"):
            tracer.dump(spec["trace_path"], {"ops": [r["key"] for r in ops]})
    print(json.dumps(summary), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
