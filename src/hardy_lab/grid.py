"""Discrete domains, fields, coefficient matrices and cubes.

The domain is a uniform lattice in one or two dimensions, either periodic
(a torus) or with a zero Dirichlet-type truncation.  Nodes double as cells
of volume ``spacing**dim``; all L^p norms carry that volume weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        with np.errstate(over="ignore"):
            volume = np.float64(self.spacing) ** self.dim
        if not (self.spacing > 0 and 0 < volume < math.inf):
            raise GridError(f"spacing {self.spacing!r} needs a positive finite spacing**dim")
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
        return np.stack(np.unravel_index(np.arange(self.n_nodes), self.sizes), axis=1)

    def coords(self) -> np.ndarray:
        """Physical node coordinates, shape (N, dim)."""
        return self.indices() * self.spacing

    def distance_matrix(self) -> np.ndarray:
        """Pairwise physical distances, periodic metric on a torus (oracles only)."""
        every = np.arange(self.n_nodes)
        return lattice_distances(self, every, every)


def offset_lengths(grid: Grid) -> np.ndarray:
    """Physical length sqrt(|offset|^2) * spacing of every lattice offset, laid
    out for a circular convolution: shape ``sizes`` on a torus, ``2*sizes`` on
    a Dirichlet grid (index k < n is k, 2n - k is -k, n is past the edge: inf)."""
    d2 = np.zeros(())
    for n in grid.sizes:
        k = np.arange(n if grid.boundary == PERIODIC else 2 * n)
        d2 = np.add.outer(d2, np.where(k == n, np.inf, np.minimum(k, k.size - k) ** 2.0))
    return np.sqrt(d2) * grid.spacing


def lattice_distances(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Physical distances from the nodes a to the nodes b (flat indices),
    shape (len(a), len(b)); periodic metric on a torus."""
    lengths = offset_lengths(grid)
    ia = np.unravel_index(np.asarray(a, dtype=int), grid.sizes)
    ib = np.unravel_index(np.asarray(b, dtype=int), grid.sizes)
    return lengths[tuple((x[:, None] - y) % m for x, y, m in zip(ia, ib, lengths.shape))]


def set_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """The physical distance between the node sets a and b."""
    return float(lattice_distances(grid, a, b).min())


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
    """Per-cell d x d complex matrix A(x); `check_ellipticity` measures its bounds."""

    grid: Grid
    matrices: np.ndarray  # shape (N, d, d)

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        d = self.grid.dim
        if m.shape != (self.grid.n_nodes, d, d):
            raise GridError("matrices must have shape (n_nodes, dim, dim)")
        object.__setattr__(self, "matrices", m)
        if not np.isfinite(m).all():
            raise NonEllipticError("coefficients must be finite")


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
    return CoefficientField(grid, eye.copy())


def random_elliptic_coefficients(
    grid: Grid, lam: float, Lam: float, seed: int
) -> CoefficientField:
    """Deterministic random A(x) with measured ellipticity constants in [lam, Lam].

    Each cell gets A = H + K with H Hermitian (eigenvalues in [lam, lam + 0.8*gap])
    and K skew-Hermitian of spectral norm <= 0.2*gap, so the Hermitian part of A
    is exactly H and the operator norm stays below Lam.
    """
    if not 0 < lam <= Lam < math.inf:
        raise NonEllipticError("need 0 < lambda <= Lambda < inf")
    rng = np.random.default_rng(seed)
    d, n = grid.dim, grid.n_nodes
    gap = Lam - lam
    if gap == 0:
        return CoefficientField(grid, np.broadcast_to(lam * np.eye(d), (n, d, d)).copy())
    eigs = rng.uniform(lam, lam + 0.8 * gap, size=(n, d))
    z = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    q, _ = np.linalg.qr(z)
    herm = np.einsum("nij,nj,nkj->nik", q, eigs, q.conj())
    skew = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    skew = 0.5 * (skew - np.conj(np.swapaxes(skew, 1, 2)))
    norms = np.linalg.norm(skew, ord=2, axis=(1, 2))
    # near the float range scale overflows, and CoefficientField refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 0.2 * gap * rng.uniform(0.0, 1.0, size=n) / np.maximum(norms, 1e-300)
        a = herm + skew * scale[:, None, None]
    return CoefficientField(grid, a)


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

    def node_set(self) -> np.ndarray:
        """Flat indices covered by Q, sorted and unique."""
        flat = np.zeros((), dtype=int)
        for a, size in enumerate(self.grid.sizes):
            flat = np.add.outer(flat * size, self._axis_nodes(a, self.anchor[a], self.nnodes))
        return np.sort(flat, axis=None)  # the axes' nodes are distinct

    def annulus_labels(self) -> np.ndarray:
        """Per node, the i of the annulus S_i = 2^i Q minus 2^(i-1) Q (S_0 = Q)
        that holds it, up to the first i where 2^i Q covers the grid or 2^i
        exceeds 4 max(sizes); one more for a node no annulus holds (left only
        by a Dirichlet cube far off the grid).  2^i Q is a product of nested
        per-axis ranges, so a node's label is the largest over the axes of
        the first dilation whose range holds its coordinate."""
        m, sizes = self.nnodes, self.grid.sizes
        first = [np.full(s, -1) for s in sizes]
        i = 0
        while True:
            count = m * 2**i
            for a, lab in enumerate(first):
                idx = self._axis_nodes(a, self.anchor[a] - (count - m) // 2, count)
                lab[idx[lab[idx] < 0]] = i
            if 2**i > 4 * max(sizes) or min(lab.min() for lab in first) >= 0:
                break
            i += 1
        labels = np.zeros((), dtype=int)
        for lab in first:
            labels = np.maximum.outer(labels, np.where(lab < 0, i + 1, lab))
        return labels.ravel()


def full_grid_cube(grid: Grid) -> Cube:
    return Cube(grid, (0,) * grid.dim, max(grid.sizes))
