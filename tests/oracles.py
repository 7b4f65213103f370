"""Independent reference computations used as test oracles.

These deliberately avoid the code paths they check: the dense eigensolve
builds the full symmetrized matrix and calls numpy's eigh, the quadrature
references use numpy's trapezoid directly, and the directional derivatives
of the energy come from centered differences of energy evaluations only.
"""

import numpy as np
import scipy.linalg


def dense_spectrum(op, k=None):
    """Brute-force eigenvalues of a TridiagonalOperator via a full eigh."""
    m = op.dimension
    mat = np.diag(np.asarray(op.diag, dtype=float))
    off = np.asarray(op.offdiag, dtype=float)
    mat += np.diag(off, 1) + np.diag(off, -1)
    vals = np.sort(np.linalg.eigvalsh(mat))
    return vals if k is None else vals[:k]


def trapezoid_sin_integral(fn, n=200000):
    """High-resolution reference for integral fn(t) sin(t) dt over [0, pi]."""
    t = np.linspace(0.0, np.pi, n + 1)
    return float(np.trapezoid(fn(t) * np.sin(t), t))


def fd_energy_derivative(energy, h_values, direction, eps):
    """Centered first and second differences of an energy functional."""
    e_plus = energy(h_values + eps * direction)
    e_minus = energy(h_values - eps * direction)
    e0 = energy(h_values)
    first = (e_plus - e_minus) / (2.0 * eps)
    second = (e_plus - 2.0 * e0 + e_minus) / eps ** 2
    return first, second


def degree_quadrature(h):
    """Mapping degree (1/2) integral h' sin(h) dtheta of h at uniform nodes on
    [0, pi], by numpy's second-order gradient and trapezoid rule."""
    dtheta = np.pi / (len(h) - 1)
    hp = np.gradient(h, dtheta, edge_order=2)
    return 0.5 * float(np.trapezoid(hp * np.sin(h), dx=dtheta))


def dense_tridiagonal(dl, d, du):
    """The dense matrix of the tridiagonal (dl, d, du): sub-, main and superdiagonal."""
    return np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)


def banded_solve(dl, d, du, b):
    """scipy.linalg.solve_banded on the tridiagonal (dl, d, du), in scipy's own
    layout: row 0 the superdiagonal after a zero, row 1 the diagonal, row 2
    the subdiagonal before a zero."""
    ab = np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]])
    return scipy.linalg.solve_banded((1, 1), ab, b)
