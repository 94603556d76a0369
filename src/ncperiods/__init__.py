"""Numerical verification of iterated period integrals of cusp forms.

The package computes multiple period integrals R_l(f_1,...,f_l; y, x; t),
their noncommutative generating series J over a weighted alphabet, and the
associated unipotent cocycles Psi on SL2(Z); verifies the defining identities
to quadrature precision; extracts (multiple) L-values; and reconstructs
cusp-form collections from cocycle panel values degree by degree.
"""

from .mlv import clear_caches
