"""Quantum cluster algebra engine for quantum Grothendieck rings.

Modules:
  cartan   - Cartan data and quantum Cartan coefficient functions
  quiver   - infinite-quiver slices and exchange-matrix mutation
  compat   - skew form construction and compatible-pair checks
  qtorus   - quantum torus arithmetic (the universal value type)
  qcluster - quantum seeds and the quantum exchange mutation
  repchar  - (q,t)-characters, Baxter relation, Drinfeld double
  verify   - end-to-end acceptance battery
  cli      - command-line front end (`qgroth`)
"""

import os as _os

# Every qgroth array is int64, which numpy never sends through BLAS, yet OpenBLAS
# starts a thread per core that spins idle unless OPENBLAS_NUM_THREADS, read only
# when numpy loads it, says otherwise.  A caller's value or loaded numpy wins.
_caller_set = "OPENBLAS_NUM_THREADS" in _os.environ
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
try:
    import numpy as _numpy  # noqa: F401
finally:
    if not _caller_set:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .cartan import CartanData, build_cartan, ctilde, f_form, n_form
from .quiver import QuiverSlice, build_slice, e_matrix, f_matrix, mutate_matrix
from .compat import build_lambda, check_compatible, mutate_lambda
from .qtorus import (
    TorusElement,
    a_monomial,
    embed_Y,
    evaluate_t1,
    exact_left_divide,
)
from .qcluster import (
    QuantumSeed,
    classical_mutate_along,
    initial_seed,
    mutate,
    mutate_along,
    read_along,
)
from .repchar import (
    MutationSequenceSpec,
    baxter_check,
    classical_fm_qchar,
    drinfeld_double_check,
    fundamental_qt_character,
    fundamental_qt_characters,
    mutation_sequence,
    thinness_flatten_check,
)

__version__ = "0.1.0"
