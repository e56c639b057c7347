"""Assembly of the divergence-form operator L = -div(A grad) in flux form.

The discrete operator is built as L = G^H A G where G stacks one forward
difference per axis and A acts cellwise as the d x d coefficient matrix.
This makes the sesquilinear form exact at the discrete level: the adjoint
is the entrywise conjugate transpose (served by `semigroup.calculus(op).adjoint()`)
and accretivity follows from ellipticity with the same constant.

L is held as its lattice stencil: (L u)(x) = sum_k c_k(x) u(x + k) over
the lattice offsets k, each c_k an array of the grid's shape.  Each term
(S_a^T - I) diag(A_ab) (S_b - I) / h^2, S_b the shift u(x) -> u(x + e_b),
gives the offsets 0, e_b - e_a, -e_a and e_b: 3 offsets in 1D, 7 in 2D.  On
a torus the offsets wrap; on a Dirichlet grid a neighbour past the edge is
a zero ghost value, so c_k(x) is 0 wherever x + k is off the grid, and the
wrapped values are never read.  `DiscreteOperator` applies L through one
neighbour table, the flat index of x + k for each node x and offset k (x
itself where x + k is off a Dirichlet grid, as c_k(x) is 0 there), so only
numpy runs; G is applied by slicing the grid-shaped view of its input.
`toarray` and the scipy CSR matrix, built on first access to `matrix` for
the sparse LU and Krylov routes and for the oracle suite, read the same
table.  This module is the only one that knows the stencil format.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .grid import (
    PERIODIC,
    CoefficientField,
    Grid,
    GridError,
    NonEllipticError,
    check_ellipticity,
)


# entries per step of `DiscreteOperator.apply`: an (N, m) block is taken
# max(1, _APPLY_ENTRIES // m) rows at a time, so the temporaries of a step
# (128 KiB each) stay in cache
_APPLY_ENTRIES = 8192


def _pieces(grid: Grid, k: tuple[int, ...]) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """(dst, src) pairs of slice tuples that cover u(x + k): over the block
    dst of the grid, x + k runs over the block src.  On a Dirichlet grid the
    wrapped pieces are left out, as x + k is then off the grid."""
    periodic = grid.boundary == PERIODIC
    per_axis = []
    for n, d in zip(grid.sizes, k):
        if d >= 0:
            axis = [(slice(0, n - d), slice(d, n))]
            wrap = (slice(n - d, n), slice(0, d))
        else:
            axis = [(slice(-d, n), slice(0, n + d))]
            wrap = (slice(0, -d), slice(n + d, n))
        per_axis.append(axis + [wrap] if periodic and d else axis)
    return [tuple(zip(*combo)) for combo in itertools.product(*per_axis)]


def _shifted(grid: Grid, a: np.ndarray, k: tuple[int, ...]) -> np.ndarray:
    """The grid-shaped array x -> a(x + k), 0 where x + k is off the grid."""
    out = np.zeros_like(a)
    for dst, src in _pieces(grid, k):
        out[dst] = a[src]
    return out


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
    """L as its lattice stencil (see the module docstring).

    `stencil` maps each offset k to c_k, in the order of the offset's flat
    index: away from the edges, the column order of a CSR row.  `sector` is
    the half-angle of a sector |arg z| <= sector that holds the numerical
    range of L, and so its spectrum: <Lu, u> sums xi^H A(x) xi over the
    cells, xi the gradient of u there, so it is the largest half-angle of
    the numerical ranges of the cellwise A(x).  It is at most
    arccos(lambda / Lambda).
    """

    grid: Grid
    kernel_dim: int
    stencil: dict
    sector: float

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    def __post_init__(self):
        # the neighbour table: the (N, K) flat indices of x + k over the K
        # offsets k of the stencil (x itself where x + k is off the grid) and
        # the (N, K) coefficients c_k(x); the stencil's arrays become views
        # of the table, so the coefficients are held once
        index = np.arange(self.n, dtype=np.min_scalar_type(self.n - 1)).reshape(self.grid.sizes)
        on_grid = np.ones(self.grid.sizes, dtype=bool)
        nb = np.stack(
            [
                np.where(_shifted(self.grid, on_grid, k), _shifted(self.grid, index, k), index).ravel()
                for k in self.stencil
            ],
            axis=1,
        )
        coef = np.stack([c.ravel() for c in self.stencil.values()], axis=1)
        views = {k: coef[:, j].reshape(self.grid.sizes) for j, k in enumerate(self.stencil)}
        object.__setattr__(self, "stencil", views)
        object.__setattr__(self, "_table", (nb, coef))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L x for a vector or an (N, m) block of columns, any strides.

        The rows go max(1, _APPLY_ENTRIES // m) at a time: each row sums
        its neighbours' values, gathered through the neighbour table, times
        the coefficients, one offset after another in stencil order.  Each
        entry is summed by elementwise operations in that one order, so its
        bits do not depend on the block or view its column arrives in."""
        nb, coef = self._table
        cols = x[:, None] if x.ndim == 1 else x
        out = np.empty(cols.shape, dtype=np.result_type(x, complex))
        step = max(1, _APPLY_ENTRIES // max(cols.shape[1], 1))
        for lo in range(0, self.n, step):
            idx, c = nb[lo : lo + step], coef[lo : lo + step, :, None]
            acc = out[lo : lo + step]
            np.multiply(c[:, 0], cols[idx[:, 0]], out=acc)
            for j in range(1, idx.shape[1]):
                acc += c[:, j] * cols[idx[:, j]]
        return out.reshape(x.shape)

    def adjoint(self) -> "DiscreteOperator":
        """L^H, entry for entry: its c_k(x) is conj c_{-k}(x + k)."""
        stencil = {
            k: np.conj(_shifted(self.grid, self.stencil[neg], k))
            for k, neg in sorted((tuple(-d for d in k), k) for k in self.stencil)
        }
        return DiscreteOperator(self.grid, self.kernel_dim, stencil, self.sector)

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Forward differences (v(x + e_a) - v(x)) / h, one per axis a, with a
        zero ghost past a Dirichlet edge; shape (dim,) + v.shape."""
        s = v.reshape(self.grid.sizes + v.shape[1:]) * (1.0 / self.grid.spacing)
        axes = range(self.grid.dim)
        diffs = [_shifted(self.grid, s, tuple(int(b == a) for b in axes)) - s for a in axes]
        return np.stack(diffs).reshape((self.grid.dim,) + v.shape)

    @property
    def gershgorin_bound(self) -> float:
        """||L||_inf, the largest absolute row sum, which bounds every |lambda|."""
        return float(sum(np.abs(c) for c in self.stencil.values()).max())

    @property
    def norm_1(self) -> float:
        """||L||_1, the largest absolute column sum."""
        return self.adjoint().gershgorin_bound

    @property
    def hermitian_lower_bound(self) -> float:
        """The Gershgorin lower bound on the spectrum of (L + L^H)/2."""
        adj = self.adjoint().stencil
        centre = self.stencil[(0,) * self.grid.dim].real
        offsets = sorted((self.stencil.keys() | adj.keys()) - {(0,) * self.grid.dim})
        radius = sum(np.abs(self.stencil.get(k, 0.0) + adj.get(k, 0.0)) for k in offsets)
        return float((centre - radius / 2).min())

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the entries of L, zeros included,
        read off the neighbour table without its off-grid entries."""
        nb, coef = self._table
        rows = np.repeat(np.arange(self.n, dtype=nb.dtype), nb.shape[1]).reshape(nb.shape)
        # only an off-grid neighbour other than x + 0 indexes x itself
        keep = (nb != rows) | np.array([not any(k) for k in self.stencil])
        return rows[keep], nb[keep], coef[keep]

    def toarray(self) -> np.ndarray:
        """L as a dense N x N array."""
        rows, cols, vals = self._entries()
        out = np.zeros((self.n, self.n), dtype=complex)
        out[rows, cols] = vals
        return out

    @functools.cached_property
    def matrix(self):
        """L as a scipy CSR matrix with sorted indices and no stored zeros,
        built on first access."""
        import scipy.sparse as sp  # the stencil routes never need it

        rows, cols, vals = self._entries()
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat


def assemble_operator(grid: Grid, coeff: CoefficientField) -> DiscreteOperator:
    """Second-order conservative stencil for -div(A grad)."""
    if coeff.grid != grid:
        raise GridError("coefficient field lives on a different grid")
    check_ellipticity(coeff)
    unit = np.eye(grid.dim, dtype=int)

    def offset(v) -> tuple[int, ...]:
        return tuple(int(i) for i in v)

    zero = (0,) * grid.dim
    inv_h = 1.0 / grid.spacing
    terms: dict = {}
    # a stencil past the float range is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in itertools.product(range(grid.dim), repeat=2):
            # (S_a^T - I) diag(t) (S_b - I) with t = A_ab / h^2, each entry rounded
            # as the sparse product G_a^H diag(A_ab) G_b rounds it: 1/h, A_ab(x)
            # and 1/h multiplied in turn, the term's diagonal summed first, then
            # the terms summed in the order of (a, b)
            t = (coeff.matrices[:, a, b].reshape(grid.sizes) * inv_h) * inv_h
            back = _shifted(grid, t, offset(-unit[a]))
            parts = [(offset(-unit[a]), -back), (offset(unit[b]), -t)]
            if a == b:
                parts.append((zero, t + back))
            else:
                parts += [(zero, t), (offset(unit[b] - unit[a]), back)]
            for k, val in parts:
                terms[k] = terms[k] + val if k in terms else val
    stencil = {}
    for k in sorted(terms):  # offsets in {-1, 0, 1}^dim: flat-index order
        c = terms[k]
        if grid.boundary != PERIODIC:
            c = np.where(_shifted(grid, np.ones(grid.sizes, dtype=bool), k), c, 0.0)
        if np.any(c):
            stencil[k] = c
    if not all(np.isfinite(c).all() for c in stencil.values()):
        raise NonEllipticError(f"the stencil A/h^2 of L overflows at spacing {grid.spacing!r}")
    kernel_dim = 1 if grid.boundary == PERIODIC else 0
    op = DiscreteOperator(grid, kernel_dim, stencil, _sector(coeff.matrices))
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = (op.gershgorin_bound, op.norm_1, op.hermitian_lower_bound)
    if not np.isfinite(bounds).all():
        raise NonEllipticError(f"the row or column sums of L overflow at spacing {grid.spacing!r}")
    return op
