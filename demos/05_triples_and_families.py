"""Self-dual triples, the boundary-data manifold, and its deformations.

The cylindrical model carries a standard triple of self-dual 2-forms
whose wedge Gram matrix is exactly 2r times the identity.  Matrix data
(A, B, lambda) with A A^T - B B^T = lambda I and tr A = 3 parametrize
nearby boundary data; closed-form curves through the base point give
second derivatives that are cross-checked by Richardson extrapolation.
"""

import numpy as np

from alhlab.forms import PMBasis, wedge
from alhlab.hk import (PPoint, Triple, family_calabi_scaling,
                       family_semiflat, q_map, second_derivative_report,
                       symmetrize, tangent_space)

basis = PMBasis()
triple = Triple.standard()
print("standard triple: wedge Gram diagonal",
      [str(wedge(w, w).get((0, 1, 2, 3))) for w in basis.plus])
q = q_map(triple, basis.volume_form())
print("wedge-defect matrix identically zero:",
      all(q[i][j].is_zero() for i in range(3) for j in range(3)))

print()
print("tangent space at the base point (I, 0, 1):")
vecs = tangent_space(PPoint(np.eye(3), np.zeros((3, 3)), 1.0))
print(f"  dimension {len(vecs)}; A_dot and lambda_dot vanish on every "
      "basis vector;")
print("  B_dot always has zero first row (first-order rigidity)")

print()
print("scaling family, alpha = 0.8: second derivatives at t = 0")
rep = second_derivative_report(family_calabi_scaling(0.8))
with np.printoptions(precision=6, suppress=True):
    print("  A_ddot =\n", np.array(rep["A_ddot"]))
    print("  B_dot  =\n", np.array(rep["B_dot"]))
print(f"  lambda_ddot = {rep['lambda_ddot']:+.6f}")
print(f"  constraint residual, singly-weighted quadratic term: "
      f"{rep['mm_residual_printed']:.3e}")
print(f"  constraint residual, doubly-weighted quadratic term: "
      f"{rep['mm_residual_factor2']:.3e}")

print()
print("coordinate twist of the cylindrical model, c = 0.5:")
A, B = family_semiflat("theta_twist", 0.5)
U, At, Bt = symmetrize(A, B)
with np.printoptions(precision=6, suppress=True):
    print("  raw A =\n", A)
    print("  symmetrized A =\n", np.array(At))
    print("  rotation U =\n", np.array(U))
