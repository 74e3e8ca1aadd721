"""Galois-field substrate: GF(2^g) arithmetic and linear algebra.

The paper's Stage-3 dispersion (section 4) and the LH*_RS parity
calculus (Litwin/Moussa/Schwarz, TODS 2005) both operate over small
binary extension fields.  This package provides:

* :class:`repro.gf.field.GF2` — GF(2^g) for 1 <= g <= 16 with
  log/antilog tables, the representation used throughout the paper
  ("Addition and subtraction are defined as the bitwise XOR of two
  operands; multiplication and division are more involved ...
  implemented by small tables").
* :class:`repro.gf.matrix.Matrix` — dense matrices over a GF2 field
  with Gauss-Jordan inversion and rank.
* :func:`repro.gf.matrix.cauchy_matrix`, the family the paper
  recommends for the dispersion matrix ``E`` and the one the store
  uses, plus :func:`repro.gf.matrix.random_nonsingular_matrix` used in
  the paper's Table-2 experiment ("a random non-singular matrix").
"""

from repro.gf.field import GF2, DEFAULT_POLYNOMIALS
from repro.gf.matrix import (
    Matrix,
    cauchy_matrix,
    default_cauchy_matrix,
    identity_matrix,
    random_nonsingular_matrix,
)

__all__ = [
    "GF2",
    "DEFAULT_POLYNOMIALS",
    "Matrix",
    "identity_matrix",
    "cauchy_matrix",
    "default_cauchy_matrix",
    "random_nonsingular_matrix",
]
