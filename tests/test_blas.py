"""qgroth never calls BLAS, so it loads numpy with one BLAS thread.

Every array the package hands out is int64, and numpy sends no int64 work
through BLAS.  Importing qgroth therefore sets OPENBLAS_NUM_THREADS=1 for
numpy's first import alone: a fresh interpreter runs one thread, and the
environment is left as the caller had it.  The AST check pins the premise:
if a module starts doing float or linalg work, one thread is no longer free.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgroth import (
    build_cartan,
    build_lambda,
    build_slice,
    e_matrix,
    f_matrix,
    initial_seed,
    mutate,
    mutate_lambda,
    mutate_matrix,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgroth"
HAS_TASKS = Path("/proc/self/task").is_dir()

REPORT = (
    "import json, os; {pre}import qgroth; t = '/proc/self/task'; "
    "tasks = len(os.listdir(t)) if os.path.isdir(t) else None; "
    "print(json.dumps([tasks, os.environ.get('OPENBLAS_NUM_THREADS')]))"
)


def import_report(pre: str = "", blas_threads: str | None = None) -> tuple[int | None, str | None]:
    """Import qgroth in a fresh interpreter; return its thread count and its
    OPENBLAS_NUM_THREADS afterwards."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run(
        [sys.executable, "-c", REPORT.format(pre=pre)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return tuple(json.loads(out.stdout))


class TestOneBlasThread:
    def test_fresh_import_runs_one_thread_and_restores_the_environment(self):
        tasks, value = import_report()
        assert value is None
        if HAS_TASKS:
            assert tasks == 1

    def test_callers_value_wins(self):
        # the thread count is not asserted: OpenBLAS may cap 2 on a 1-core runner
        assert import_report(blas_threads="2")[1] == "2"

    def test_numpy_imported_first_leaves_the_environment_untouched(self):
        assert import_report(pre="import numpy; ")[1] is None
        assert import_report(pre="import numpy; ", blas_threads="3")[1] == "3"


@pytest.mark.parametrize("label,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_every_array_handed_out_is_int64(label, rank):
    c = build_cartan(label, rank)
    slc = build_slice(c, N=1)
    b, rows = slc.b_matrix, slc.exch_rows
    lam = build_lambda(c, slc)
    seed = mutate(initial_seed(slc), slc.exchangeable[0])
    arrays = {
        "cartan": c.cartan,
        "b_matrix": b,
        "principal_part": slc.principal_part(),
        "build_lambda": lam,
        "mutate_matrix": mutate_matrix(b, rows, 0),
        "mutate_lambda": mutate_lambda(lam, b, rows, 0),
        "e_matrix": e_matrix(b, rows, 0),
        "f_matrix": f_matrix(b, rows, 0),
        "b_current": seed.b_current,
        "lambda_current": seed.lambda_current,
    }
    assert {name: a.dtype for name, a in arrays.items() if a.dtype != np.int64} == {}


BLAS_NAMES = {"linalg", "float64", "float32", "np.dot"}


def blas_names(source: str) -> list[str]:
    """Each use in source of a name in BLAS_NAMES: as a name, an attribute,
    or a part of an imported module's dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id + "." if isinstance(node.value, ast.Name) else ""
            names = [node.attr, owner + node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in BLAS_NAMES]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_does_blas_work(path):
    assert blas_names(path.read_text()) == []


def test_detector_sees_blas_names():
    src = (
        "import numpy as np\nfrom numpy import linalg\nx = np.linalg.solve(a, b)\n"
        "y = np.dot(a, b)\nz = a.astype(np.float64)\nw = float32\nv = a @ b\nu = a.dot\n"
    )
    assert blas_names(src) == [
        "float32 (line 6)", "float64 (line 5)", "linalg (line 2)",
        "linalg (line 3)", "np.dot (line 4)",
    ]
