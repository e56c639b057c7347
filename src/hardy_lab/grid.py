"""Discrete domains, fields, coefficient matrices and cubes.

The domain is a uniform lattice in one or two dimensions, either periodic
(a torus) or with a zero Dirichlet-type truncation.  Nodes double as cells
of volume ``spacing**dim``; all L^p norms carry that volume weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


class GridError(ValueError):
    """Invalid grid construction or grid mismatch between arguments."""


class NonEllipticError(ValueError):
    """Coefficient field fails the lower ellipticity bound."""


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: ``sizes`` nodes per axis, physical mesh width ``spacing``."""

    dim: int
    sizes: tuple[int, ...]
    spacing: float
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) != self.dim:
            raise GridError("len(sizes) must equal dim")
        if any(s < 8 for s in self.sizes):
            raise GridError("every axis needs at least 8 nodes")
        if not self.spacing > 0:
            raise GridError("spacing must be positive")
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise GridError(f"unknown boundary {self.boundary!r}")

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def side_lengths(self) -> tuple[float, ...]:
        return tuple(s * self.spacing for s in self.sizes)

    def indices(self) -> np.ndarray:
        """Integer node coordinates, shape (N, dim), row-major order."""
        axes = [np.arange(s) for s in self.sizes]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def coords(self) -> np.ndarray:
        """Physical node coordinates, shape (N, dim)."""
        return self.indices() * self.spacing

    def distance_matrix(self) -> np.ndarray:
        """Pairwise physical distances, periodic metric on a torus."""
        return _distance_matrix(self)


def lattice_distances(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Physical distances from the nodes a to the nodes b (flat indices),
    shape (len(a), len(b)); periodic metric on a torus."""
    ia = np.unravel_index(np.asarray(a, dtype=int), grid.sizes)
    ib = np.unravel_index(np.asarray(b, dtype=int), grid.sizes)
    d2 = np.zeros((ia[0].size, ib[0].size))
    for axis in range(grid.dim):
        diff = np.abs(ia[axis][:, None] - ib[axis][None, :])
        if grid.boundary == PERIODIC:
            diff = np.minimum(diff, grid.sizes[axis] - diff)
        d2 += diff**2
    return np.sqrt(d2) * grid.spacing


@lru_cache(maxsize=16)
def _distance_matrix(grid: Grid) -> np.ndarray:
    every = np.arange(grid.n_nodes)
    out = lattice_distances(grid, every, every)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One complex value per node of ``grid``, flat row-major storage."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_nodes,):
            raise GridError(
                f"field has {v.shape} values, grid has {self.grid.n_nodes} nodes"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class VectorField:
    """One complex value per axis per node; houses discrete gradients."""

    components: np.ndarray  # shape (dim, N)
    grid: Grid

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        if c.shape != (self.grid.dim, self.grid.n_nodes):
            raise GridError("component array must have shape (dim, n_nodes)")
        object.__setattr__(self, "components", c)

    def magnitude(self) -> np.ndarray:
        return np.sqrt((np.abs(self.components) ** 2).sum(axis=0))


def lp_norm(values: np.ndarray, grid: Grid, p: float = 2.0) -> float:
    """Discrete L^p norm with cell-volume weight; p = inf gives the sup norm."""
    a = np.abs(np.asarray(values)).ravel()
    if math.isinf(p):
        return float(a.max(initial=0.0))
    return float((a**p).sum() ** (1.0 / p) * grid.cell_volume ** (1.0 / p))


def restricted_lp_norm(
    values: np.ndarray, grid: Grid, nodes: np.ndarray, p: float = 2.0
) -> float:
    """L^p norm over a node subset (empty subset gives 0)."""
    return lp_norm(np.asarray(values).ravel()[np.asarray(nodes, dtype=int)], grid, p)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-cell d x d complex matrix A(x) with declared ellipticity bounds.

    The lower bound is on the smallest eigenvalue of the Hermitian part,
    Re(A xi . conj(xi)) >= lambda |xi|^2, the upper bound on the spectral norm.
    """

    grid: Grid
    matrices: np.ndarray  # shape (N, d, d)
    lam: float
    Lam: float

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        d = self.grid.dim
        if m.shape != (self.grid.n_nodes, d, d):
            raise GridError("matrices must have shape (n_nodes, dim, dim)")
        object.__setattr__(self, "matrices", m)
        if not (0 < self.lam <= self.Lam < math.inf):
            raise NonEllipticError("need 0 < lambda <= Lambda < inf")


def check_ellipticity(coeff: CoefficientField) -> tuple[float, float]:
    """Measured (lambda, Lambda): min Hermitian-part eigenvalue and max spectral norm."""
    m = coeff.matrices
    herm = 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))
    lam_measured = float(np.linalg.eigvalsh(herm)[:, 0].min())
    Lam_measured = float(np.linalg.norm(m, ord=2, axis=(1, 2)).max())
    if lam_measured <= 0:
        raise NonEllipticError(
            f"degenerate coefficients: measured lambda = {lam_measured:g}"
        )
    return lam_measured, Lam_measured


def identity_coefficients(grid: Grid) -> CoefficientField:
    eye = np.broadcast_to(np.eye(grid.dim), (grid.n_nodes, grid.dim, grid.dim))
    return CoefficientField(grid, eye.copy(), 1.0, 1.0)


def random_elliptic_coefficients(
    grid: Grid, lam: float, Lam: float, seed: int
) -> CoefficientField:
    """Deterministic random A(x) with measured ellipticity constants in [lam, Lam].

    Each cell gets A = H + K with H Hermitian (eigenvalues in [lam, lam + 0.8*gap])
    and K skew-Hermitian of spectral norm <= 0.2*gap, so the Hermitian part of A
    is exactly H and the operator norm stays below Lam.
    """
    if lam <= 0 or lam > Lam:
        raise NonEllipticError("need 0 < lambda <= Lambda")
    rng = np.random.default_rng(seed)
    d, n = grid.dim, grid.n_nodes
    gap = Lam - lam
    if gap == 0:
        return CoefficientField(grid, np.broadcast_to(lam * np.eye(d), (n, d, d)).copy(), lam, Lam)
    eigs = rng.uniform(lam, lam + 0.8 * gap, size=(n, d))
    z = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    q, _ = np.linalg.qr(z)
    herm = np.einsum("nij,nj,nkj->nik", q, eigs, q.conj())
    skew = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    skew = 0.5 * (skew - np.conj(np.swapaxes(skew, 1, 2)))
    norms = np.linalg.norm(skew, ord=2, axis=(1, 2))
    scale = 0.2 * gap * rng.uniform(0.0, 1.0, size=n) / np.maximum(norms, 1e-300)
    a = herm + skew * scale[:, None, None]
    return CoefficientField(grid, a, lam, Lam)


# ---------------------------------------------------------------------------
# cubes and annuli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cube:
    """Axis-aligned block of ``nnodes`` lattice nodes per axis.

    The physical center is ``(anchor + (nnodes - 1)/2) * spacing`` per axis;
    dilations keep the center and multiply the sidelength by powers of two,
    wrapping on periodic grids and clipping on Dirichlet ones.
    """

    grid: Grid
    anchor: tuple[int, ...]
    nnodes: int

    def __post_init__(self):
        if self.nnodes < 1:
            raise GridError("cube needs at least one node per axis")
        object.__setattr__(self, "anchor", tuple(int(a) for a in self.anchor))
        if len(self.anchor) != self.grid.dim:
            raise GridError("anchor must have one entry per axis")

    @property
    def sidelength(self) -> float:
        return self.nnodes * self.grid.spacing

    @property
    def volume(self) -> float:
        return self.sidelength**self.grid.dim

    def _axis_nodes(self, a: int, start: int, count: int) -> np.ndarray:
        size = self.grid.sizes[a]
        idx = np.arange(start, start + count)
        if self.grid.boundary == PERIODIC:
            if count >= size:
                return np.arange(size)
            return np.mod(idx, size)
        return idx[(idx >= 0) & (idx < size)]

    def node_set(self, dilation: int = 0) -> np.ndarray:
        """Flat indices covered by 2^dilation Q, sorted and unique."""
        m = self.nnodes
        count = m * (2**dilation)
        shift = (count - m) // 2
        per_axis = [
            self._axis_nodes(a, self.anchor[a] - shift, count)
            for a in range(self.grid.dim)
        ]
        if any(ax.size == 0 for ax in per_axis):
            return np.empty(0, dtype=int)
        if self.grid.dim == 1:
            flat = per_axis[0]
        else:
            flat = (per_axis[0][:, None] * self.grid.sizes[1] + per_axis[1][None, :]).ravel()
        return np.unique(flat)

    def annuli(self) -> list:
        """S_0 = Q and S_i = 2^i Q minus 2^(i-1) Q (possibly empty), up to the
        first i where 2^i Q covers the grid or 2^i exceeds 4 max(sizes)."""
        sets = [self.node_set(0)]
        cap = 4 * max(self.grid.sizes)
        while sets[-1].size < self.grid.n_nodes and 2 ** (len(sets) - 1) <= cap:
            sets.append(self.node_set(len(sets)))
        return sets[:1] + [
            np.setdiff1d(outer, inner, assume_unique=True)
            for inner, outer in zip(sets, sets[1:])
        ]


def full_grid_cube(grid: Grid) -> Cube:
    return Cube(grid, (0,) * grid.dim, max(grid.sizes))
