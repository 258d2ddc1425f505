"""Command-line front end.

Exit codes: 0 success/PASS, 1 a verification FAILed, 2 usage or domain error
(a mutation past qtorus.TERM_BUDGET terms, or out of memory, counts as one),
141 (128 + SIGPIPE) when the reader closes stdout before all of it is written.
JSON output carries a top-level {"schema": 1} and is deterministic for a
given invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .cartan import CartanError, build_cartan, ctilde
from .compat import build_lambda, check_compatible
from .quiver import QuiverError, build_slice
from .qcluster import (
    MutationError,
    TermBudgetExceeded,
    classical_mutate_along,
    initial_seed,
    read_along,
)
from .qtorus import (
    TERM_BUDGET, TorusElement, TorusError, evaluate_t1, monomial_text, vertex_sort_key
)
from .repchar import (
    RepCharError,
    baxter_check,
    classical_fm_qchar,
    drinfeld_double_check,
    fundamental_qt_character,
    mutation_sequence,
    thinness_flatten_check,
)
from . import verify

SCHEMA = 1
# the commands that do torus arithmetic, which qtorus.TERM_BUDGET caps
TORUS_COMMANDS = {"mutate", "fund-char", "baxter", "drinfeld", "thin-check", "verify-all"}


class UsageError(Exception):
    pass


def _parse_vertex(text: str) -> tuple[int, int]:
    try:
        parts = text.strip().strip("()").split(",")
        i, r = (int(p) for p in parts)
        return (i, r)
    except ValueError:
        raise UsageError(f"cannot parse vertex {text!r}; expected (i,r)") from None


def _parse_path(text: str) -> list[tuple[int, int]]:
    return [_parse_vertex(p) for p in text.split(";") if p.strip()]


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(p) for p in text.split(":"))
        return (lo, hi)
    except ValueError:
        raise UsageError(f"cannot parse window {text!r}; expected rmin:rmax") from None


def _matrix_text(m: np.ndarray) -> str:
    width = max((len(str(int(x))) for x in m.flat), default=1)
    return "\n".join(
        " ".join(str(int(x)).rjust(width) for x in row) for row in m
    )


def _term_chunks(value: TorusElement):
    """The JSON array of a TorusElement's terms, in chunks of one term each:
    one object per power of t^{1/2}, in descending term order and then
    descending power, with its coefficient c, exponent triples exp and
    power t_num."""
    yield "["
    sep = ""
    for k, coeff in value.sorted_terms():
        exp = ", ".join(f"[{i}, {r}, {e}]" for (i, r), e in k)
        for p in sorted(coeff, reverse=True):
            yield f'{sep}{{"c": {coeff[p]}, "exp": [{exp}], "t_num": {p}}}'
            sep = ", "
    yield "]"


def _json_chunks(obj: dict):
    """json.dumps(obj, sort_keys=True) in chunks, where a TorusElement value
    is written as the array of its terms, one term per chunk."""
    sep = "{"
    for key in sorted(obj):
        yield f"{sep}{json.dumps(key)}: "
        sep = ", "
        value = obj[key]
        if isinstance(value, TorusElement):
            yield from _term_chunks(value)
        else:
            yield json.dumps(value, sort_keys=True)
    yield "}"


def _emit(args, obj: dict, text) -> None:
    """Print obj as JSON under --json, else text.  text may be a function that
    builds it, so that it is built only when printed.  The JSON is written
    chunk by chunk, so no copy of a whole TorusElement value is built."""
    if args.json:
        out = sys.stdout
        for chunk in _json_chunks({"schema": SCHEMA, **obj}):
            out.write(chunk)
        out.write("\n")
    else:
        print(text() if callable(text) else text)


def _emit_value(args, head: dict, value: TorusElement) -> None:
    """Emit head and a TorusElement, or under --t1 its evaluate_t1 image
    (terms in sorted key order, "0" if zero), building only the printed form."""
    if not args.t1:
        _emit(args, {**head, "t1": False, "terms": value}, value.to_text)
        return
    items = sorted(evaluate_t1(value).items())
    terms = [{"c": n, "exp": [[i, r, e] for (i, r), e in k]} for k, n in items]

    def text():
        return " + ".join((f"{n}*" if n != 1 else "") + monomial_text(k) for k, n in items) or "0"

    _emit(args, {**head, "t1": True, "terms": terms}, text)


def _cartan_of(args):
    return build_cartan(args.type, args.rank)


def _slice_of(args, c):
    window = None if args.window is None else _parse_window(args.window)
    return build_slice(c, N=args.N, window=window)


# ----------------------------------------------------------------- commands

def cmd_cartan(args) -> int:
    c = _cartan_of(args)
    if (args.i is None) != (args.j is None):
        raise UsageError("give both --i and --j, or neither")
    if args.degree < 0:
        raise UsageError(f"degree must be >= 0, got {args.degree}")
    pairs = (
        [(args.i, args.j)]
        if args.i is not None
        else [(i, j) for i in c.nodes for j in c.nodes if i <= j]
    )
    series = [
        {"i": i, "j": j, "coeffs": [ctilde(c, i, j, m) for m in range(args.degree + 1)]}
        for i, j in pairs
    ]
    obj = {
        "dynkin": f"{c.dynkin_type}{c.rank}",
        "h_dual": c.dual_coxeter,
        "cartan": c.cartan.tolist(),
        "series": series,
    }
    lines = [
        f"type {c.dynkin_type}{c.rank}, dual Coxeter number {c.dual_coxeter}",
        "Cartan matrix:",
        _matrix_text(c.cartan),
    ]
    for s in series:
        lines.append(f"C~[{s['i']},{s['j']}](z) coeffs 0..{args.degree}: {s['coeffs']}")
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_quiver(args) -> int:
    c = _cartan_of(args)
    slc = _slice_of(args, c)
    obj = {
        "vertices": [list(v) for v in slc.vertices],
        "exchangeable": [list(v) for v in slc.exchangeable],
        "b_matrix": slc.b_matrix.tolist(),
    }
    text = "\n".join(
        [
            "vertices (rows): " + " ".join(f"({i},{r})" for i, r in slc.vertices),
            "exchangeable (columns): "
            + " ".join(f"({i},{r})" for i, r in slc.exchangeable),
            "B matrix:",
            _matrix_text(slc.b_matrix),
        ]
    )
    _emit(args, obj, text)
    return 0


def cmd_compat(args) -> int:
    c = _cartan_of(args)
    slc = _slice_of(args, c)
    lam = build_lambda(c, slc)
    report = check_compatible(slc.b_matrix, lam, slc.exch_rows)
    obj = {
        "ok": report.ok,
        "diag": list(report.diag),
        "violations": [list(v) for v in report.violations],
    }
    text = "\n".join(
        [
            "Lambda:",
            _matrix_text(lam),
            "B^T Lambda:",
            _matrix_text(slc.b_matrix.T @ lam),
            str(report),
        ]
    )
    _emit(args, obj, text)
    return 0 if report.ok else 1


def cmd_mutate(args) -> int:
    c = _cartan_of(args)
    slc = _slice_of(args, c)
    path = _parse_path(args.path)
    vertex = _parse_vertex(args.vertex) if args.vertex else (path[-1] if path else None)
    if vertex is None:
        raise UsageError("empty path needs an explicit --vertex")
    if args.t1:
        value = classical_mutate_along(slc, path, read=[vertex])[vertex]
    else:
        value = read_along(initial_seed(slc), path, [vertex])[vertex]
    _emit_value(args, {"vertex": list(vertex)}, value)
    return 0


def cmd_sequence(args) -> int:
    c = _cartan_of(args)
    spec = mutation_sequence(c, args.i, args.r)
    obj = {
        "origin": list(spec.origin),
        "h_prime": spec.h_prime,
        "column_order": list(spec.column_order),
        "sequence": [list(v) for v in spec.sequence],
    }
    text = " ".join(f"({i},{r})" for i, r in spec.sequence)
    _emit(args, obj, text)
    return 0


def cmd_fund_char(args) -> int:
    c = _cartan_of(args)
    spec = mutation_sequence(c, args.i, args.r)
    head = {"origin": list(spec.origin), "read_at": list(spec.read_vertex)}
    _emit_value(args, head, fundamental_qt_character(c, args.i, args.r))
    return 0


def cmd_oracle(args) -> int:
    c = _cartan_of(args)
    chi = classical_fm_qchar(c, args.i, args.r)
    monos = sorted(chi, key=lambda m: sorted((vertex_sort_key(v), e) for v, e in m))
    text = " + ".join(monomial_text(m, "Y") or "1" for m in monos)
    obj = {
        "highest": [args.i, args.r],
        "monomials": [[[i, r, e] for (i, r), e in m] for m in monos],
    }
    _emit(args, obj, text)
    return 0


def cmd_baxter(args) -> int:
    v = baxter_check(args.r)
    obj = {
        "r": v.r,
        "ok": v.ok,
        "lhs": v.lhs,
        "rhs": v.rhs,
    }
    _emit(args, obj, str(v))
    return 0 if v.ok else 1


def cmd_drinfeld(args) -> int:
    checks = drinfeld_double_check(q_sign=args.q_sign)
    ok = all(c for _, c, _ in checks)
    obj = {
        "q_sign": args.q_sign,
        "ok": ok,
        "relations": [{"name": n, "ok": c, "detail": d} for n, c, d in checks],
    }
    lines = [f"{'PASS' if c else 'FAIL'} {n}" + (f"  {d}" if d else "") for n, c, d in checks]
    _emit(args, obj, "\n".join(lines))
    return 0 if ok else 1


def cmd_thin_check(args) -> int:
    c = _cartan_of(args)
    name, ok, detail = thinness_flatten_check(c, args.i, args.r)
    obj = {"name": name, "ok": ok, "detail": detail}
    _emit(args, obj, f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if ok else 1


def cmd_verify_all(args) -> int:
    results = verify.run_all(quick=args.quick)
    ok = all(r[1] for r in results)
    obj = {
        "ok": ok,
        "results": [{"name": n, "ok": o, "detail": d} for n, o, d in results],
    }
    lines = [f"{'PASS' if o else 'FAIL'} {n}: {d}" for n, o, d in results]
    lines.append(f"{'ALL PASS' if ok else 'FAILURES PRESENT'}")
    _emit(args, obj, "\n".join(lines))
    return 0 if ok else 1


# ------------------------------------------------------------------- parser

def _add_type_rank(p):
    p.add_argument("--type", required=True, choices=["A", "D", "E"])
    p.add_argument("--rank", required=True, type=int)


def _add_origin(p):
    _add_type_rank(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--r", type=int, required=True)


def _add_slice_args(p):
    p.add_argument("--N", type=int, default=None, help="symmetric slice index")
    p.add_argument("--window", default=None, help="level window rmin:rmax")


@functools.cache  # built at the first main call, once per process
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qgroth",
        description="quantum cluster algebra engine for quantum Grothendieck rings",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def mk(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = mk("cartan", cmd_cartan, "Cartan matrix and quantum Cartan series")
    _add_type_rank(p)
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)

    p = mk("quiver", cmd_quiver, "slice vertices and exchange matrix")
    _add_type_rank(p)
    _add_slice_args(p)

    p = mk("compat", cmd_compat, "skew form and compatible-pair check")
    _add_type_rank(p)
    _add_slice_args(p)

    p = mk("mutate", cmd_mutate, "quantum or classical mutation along a path")
    _add_type_rank(p)
    _add_slice_args(p)
    p.add_argument("--path", required=True, help='e.g. "(1,4);(1,2)"')
    p.add_argument("--vertex", default=None, help="vertex to read (default: last)")
    p.add_argument("--t1", action="store_true", help="classical engine at t=1")

    p = mk("sequence", cmd_sequence, "fundamental-character mutation sequence")
    _add_origin(p)

    p = mk("fund-char", cmd_fund_char, "fundamental (q,t)-character")
    _add_origin(p)
    p.add_argument("--t1", action="store_true")

    p = mk("oracle", cmd_oracle, "classical q-character oracle")
    _add_origin(p)

    p = mk("baxter", cmd_baxter, "quantized Baxter relation (rank 1)")
    p.add_argument("--r", type=int, required=True)

    p = mk("drinfeld", cmd_drinfeld, "Drinfeld-double relation battery")
    p.add_argument("--q-sign", dest="q_sign", type=int, default=-1, choices=[-1, 1])

    p = mk("thin-check", cmd_thin_check, "type-A thinness of a (q,t)-character")
    _add_origin(p)

    p = mk("verify-all", cmd_verify_all, "run the acceptance battery")
    p.add_argument("--quick", action="store_true")

    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse misreads window values like "-5:2" as flags; glue them on
    merged, rest = [], list(argv)
    while rest:
        tok = rest.pop(0)
        merged.append(f"--window={rest.pop(0)}" if tok == "--window" and rest else tok)
    args = build_parser().parse_args(merged)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader's early close shows here, not at exit
        return code
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            # so that the interpreter's final flush of stdout cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, CartanError, QuiverError, RepCharError, TermBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        torus = args.command in TORUS_COMMANDS
        budget = f" within the term budget of {TERM_BUDGET} terms" if torus else ""
        print(f"error: out of memory{budget}", file=sys.stderr)
        return 2
    except (TorusError, MutationError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
