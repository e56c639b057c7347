"""Assembly of the divergence-form operator L = -div(A grad) in flux form.

The discrete operator is built as L = G^H A G where G stacks one forward
difference per axis and A acts cellwise as the d x d coefficient matrix.
This makes the sesquilinear form exact at the discrete level: the adjoint
is the entrywise conjugate transpose (served by `semigroup.calculus(op).adjoint()`)
and accretivity follows from ellipticity with the same constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import (
    PERIODIC,
    CoefficientField,
    Grid,
    GridError,
    check_ellipticity,
)


def _shift_matrix(size: int, periodic: bool) -> sp.csr_matrix:
    """Maps u_i to u_{i+1}, wrapping or using a zero ghost value."""
    rows = np.arange(size - 1)
    cols = np.arange(1, size)
    data = np.ones(size - 1)
    if periodic:
        rows = np.append(rows, size - 1)
        cols = np.append(cols, 0)
        data = np.append(data, 1.0)
    return sp.csr_matrix((data, (rows, cols)), shape=(size, size))


def gradient_matrices(grid: Grid) -> tuple[sp.csr_matrix, ...]:
    """Forward-difference matrices, one per axis, shape N x N each."""
    periodic = grid.boundary == PERIODIC
    h = grid.spacing
    mats = []
    eyes = [sp.identity(s, format="csr") for s in grid.sizes]
    for a in range(grid.dim):
        shift = _shift_matrix(grid.sizes[a], periodic)
        d1 = (shift - sp.identity(grid.sizes[a])) / h
        factors = [d1 if b == a else eyes[b] for b in range(grid.dim)]
        m = factors[0]
        for f in factors[1:]:
            m = sp.kron(m, f, format="csr")
        mats.append(sp.csr_matrix(m))
    return tuple(mats)


def _sector(a: np.ndarray) -> float:
    """The largest over cells of the half-angle of the numerical range of
    the d x d matrix A(x), d = 1 or 2, about the positive axis.

    With A = H + iS, H and S Hermitian and H positive definite, its tangent
    is max |xi^H S xi| / xi^H H xi: the largest |mu| with det(S - mu H) = 0.
    For d = 2 that is the quadratic det(H) mu^2 - b mu + det(S), whose
    roots are real; cell by cell, so no (N, d, d) temporary is made.
    """
    if a.shape[1] == 1:
        tan = np.abs(a[:, 0, 0].imag) / a[:, 0, 0].real
    else:
        h11, h22 = a[:, 0, 0].real, a[:, 1, 1].real
        s11, s22 = a[:, 0, 0].imag, a[:, 1, 1].imag
        h12 = 0.5 * (a[:, 0, 1] + a[:, 1, 0].conj())
        s12 = -0.5j * (a[:, 0, 1] - a[:, 1, 0].conj())
        det_h = h11 * h22 - np.abs(h12) ** 2
        det_s = s11 * s22 - np.abs(s12) ** 2
        b = h11 * s22 + h22 * s11 - 2.0 * (h12 * s12.conj()).real
        tan = (np.abs(b) + np.sqrt(np.maximum(b * b - 4.0 * det_h * det_s, 0.0))) / (2.0 * det_h)
    return float(np.arctan(tan.max()))


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Sparse L and the gradient it was built from.

    `sector` is the half-angle of a sector |arg z| <= sector that holds the
    numerical range of L, and so its spectrum: <Lu, u> sums xi^H A(x) xi
    over the cells, xi the gradient of u there, so it is the largest
    half-angle of the numerical ranges of the cellwise A(x).  It is at most
    arccos(lambda / Lambda).
    """

    matrix: sp.csr_matrix
    grid: Grid
    kernel_dim: int
    grads: tuple[sp.csr_matrix, ...]
    sector: float

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    @property
    def gershgorin_bound(self) -> float:
        """The largest absolute row sum of L, which bounds every |lambda|."""
        return float(abs(self.matrix).sum(axis=1).max())

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Discrete gradient, shape (dim, ...) matching the input columns."""
        return np.stack([g @ v for g in self.grads])


def assemble_operator(grid: Grid, coeff: CoefficientField) -> DiscreteOperator:
    """Second-order conservative stencil for -div(A grad)."""
    if coeff.grid != grid:
        raise GridError("coefficient field lives on a different grid")
    check_ellipticity(coeff)
    grads = gradient_matrices(grid)
    mat = None
    for a in range(grid.dim):
        ga_h = grads[a].conj().T.tocsr()
        for b in range(grid.dim):
            diag = sp.diags(coeff.matrices[:, a, b])
            term = ga_h @ diag @ grads[b]
            mat = term if mat is None else mat + term
    mat = sp.csr_matrix(mat)
    mat.sort_indices()
    kernel_dim = 1 if grid.boundary == PERIODIC else 0
    return DiscreteOperator(mat, grid, kernel_dim, grads, _sector(coeff.matrices))
