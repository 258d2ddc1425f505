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

from .cartan import CartanData, build_cartan, ctilde, f_form, n_form
from .quiver import QuiverSlice, build_slice, e_matrix, f_matrix, mutate_matrix
from .compat import build_lambda, check_compatible, mutate_lambda
from .qtorus import (
    TorusElement,
    a_monomial,
    embed_Y,
    evaluate_t1,
    exact_left_divide,
    lambda_of,
)
from .qcluster import QuantumSeed, classical_mutate_along, initial_seed, mutate, mutate_along
from .repchar import (
    MutationSequenceSpec,
    QtCharacter,
    baxter_check,
    classical_fm_qchar,
    drinfeld_double_check,
    fundamental_qt_character,
    mutation_sequence,
    thinness_flatten_check,
)

__version__ = "0.1.0"
