"""Operator-adapted BMO norms, Carleson measure functional, tent-space
norms and the square-function duality pairing.

Cube-mean subtraction is replaced by (I - A_l)^M where A_l is either the
heat operator e^{-l^2 L} or the resolvent (I + l^2 L)^{-1} at the cube's
sidelength l.  The cube/ball family is dyadic with every anchor position
in 1D and anchored on the dyadic lattice in 2D; the family is fixed so
that all suprema are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Cube,
    Grid,
    GridError,
    PERIODIC,
    ScalarField,
    lp_norm,
    restricted_lp_norm,
)
from .operator import DiscreteOperator
from . import semigroup
from .functionals import ConeSpec, SpaceTimeField, cone_integrate
from .semigroup import TimeGrid

BMO_VARIANTS = ("heat", "resolvent")


def dyadic_cubes(grid: Grid) -> list:
    """The fixed cube family behind every BMO/Carleson supremum.

    Sidelengths are 2h, 4h, ... up to the full axis; anchors run over all
    positions in 1D and over the dyadic lattice in 2D.
    """
    cubes = []
    size = min(grid.sizes)
    m = 2
    while m <= size:
        if grid.dim == 1:
            anchors = range(grid.sizes[0] if grid.boundary == PERIODIC else grid.sizes[0] - m + 1)
            cubes.extend(Cube(grid, (a,), m) for a in anchors)
        else:
            steps = [range(0, s, m) for s in grid.sizes]
            cubes.extend(
                Cube(grid, (a, b), m) for a in steps[0] for b in steps[1]
            )
        m *= 2
    return cubes


def _oscillation_fields(
    f: ScalarField, op: DiscreteOperator, M: int, variant: str
) -> dict:
    """(I - A_l)^M f for each sidelength l of the cube family, as M
    applications of v <- v - A_l v."""
    if variant not in BMO_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if M < 1:
        raise ValueError("need M >= 1")
    grid = op.grid
    lengths = sorted({c.sidelength for c in dyadic_cubes(grid)})
    out = {}
    for ell in lengths:
        v = f.values
        for _ in range(M):
            if variant == "resolvent":
                v = v - semigroup.resolvent_apply(op, ell, ScalarField(v, grid)).values
            else:
                v = v - semigroup.heat_apply(op, ell * ell, ScalarField(v, grid)).values
        out[ell] = v
    return out


@dataclass(frozen=True, eq=False)
class BmoReport:
    variant: str
    M: int
    p: float
    norm: float


def _cube_sup(osc: dict, grid: Grid, p: float) -> float:
    """Supremum over the cube family of the L^p cube means of the
    oscillation fields."""
    if not p > 1:
        raise ValueError("need p > 1")
    return max(
        (
            restricted_lp_norm(osc[cube.sidelength], grid, cube.node_set(0), p)
            / cube.volume ** (1.0 / p)
            for cube in dyadic_cubes(grid)
        ),
        default=0.0,
    )


def bmo_norm(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    variant: str = "heat",
    p: float = 2.0,
) -> BmoReport:
    """sup over the dyadic cube family of the L^p cube mean of (I - A_l)^M f."""
    osc = _oscillation_fields(f, op, M, variant)
    return BmoReport(variant, M, p, _cube_sup(osc, op.grid, p))


# ---------------------------------------------------------------------------
# Carleson measure and tent norms
# ---------------------------------------------------------------------------


def _cube_depth(cube: Cube) -> np.ndarray:
    """Per-node distance from the cube's nodes to the nodes outside it, as
    `decomposition.dist_to_complement` of `cube.node_set(0)` gives it, read
    off the cube's faces.

    The nearest node outside a box lies straight across one face, so the
    Euclidean distance is the least over the axes of min(o + 1, m - o),
    o the node's offset in the cube's m nodes along the axis.  Offsets wrap
    on periodic axes, where a cube that spans the axis has no face; on
    Dirichlet grids a face on the array edge has no node behind it.  0
    outside the cube, inf everywhere when it covers the grid.
    """
    grid = cube.grid
    m = cube.nnodes
    periodic = grid.boundary == PERIODIC
    depth = np.full(grid.sizes, np.inf)
    for a, size in enumerate(grid.sizes):
        start = cube.anchor[a]
        if periodic and m >= size:
            continue
        off = np.arange(size) - start
        if periodic:
            off %= size
        axis = np.full(size, np.inf)
        if periodic or start > 0:
            axis = np.minimum(axis, off + 1)
        if periodic or start + m < size:
            axis = np.minimum(axis, m - off)
        axis[(off < 0) | (off >= m)] = 0.0
        depth = np.minimum(depth, axis.reshape([size if b == a else 1 for b in range(grid.dim)]))
    return depth.ravel() * grid.spacing


def _tent_mean_sup(density: np.ndarray, grid: Grid, times: TimeGrid) -> float:
    """sup over the ball family of mass / |ball|, where mass integrates a
    space-time density over the tent above the ball.

    density has shape (N, T) and already carries |.|^2; the integral is
    against dy dt/t (trapezoid in log t, so the 1/t is in the weights).
    """
    ts = times.samples
    wlog = times.log_weights
    best = 0.0
    for cube in dyadic_cubes(grid):
        mask = _cube_depth(cube)[:, None] >= ts[None, :]
        mass = float(((mask * density).sum(axis=0) * wlog).sum() * grid.cell_volume)
        best = max(best, mass / cube.volume)
    return best


@dataclass(frozen=True, eq=False)
class CarlesonReport:
    carleson_norm: float


def carleson_functional(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    times: TimeGrid | None = None,
) -> CarlesonReport:
    """Carleson norm of the measure |(t^2 L)^M e^{-t^2 L} f|^2 dy dt/t."""
    if M < 1:
        raise ValueError("need M >= 1")
    grid = op.grid
    times = times or semigroup.default_time_grid(grid)
    prof = semigroup.heat_profile(op, f, times, K=M)
    return CarlesonReport(_tent_mean_sup(np.abs(prof) ** 2, grid, times))


def tent_norms(F: SpaceTimeField) -> tuple[float, float]:
    """(T^1, T^inf) norms: L^1 of the cone square functional and the sup
    over family balls of the root tent-mean mass."""
    s = cone_integrate(F, ConeSpec(1.0))
    t1 = lp_norm(s.values, F.grid, 1)
    return t1, math.sqrt(_tent_mean_sup(np.abs(F.values) ** 2, F.grid, F.times))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def duality_constant(M: int) -> float:
    """C such that C int_0^inf (t^2 mu)^{M+1} e^{-2 t^2 mu} dt/t = 1."""
    if M < 1:
        raise ValueError("need M >= 1")
    return 2.0 ** (M + 2) / math.gamma(M + 1)


def duality_pair(
    f: ScalarField,
    g: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    times: TimeGrid | None = None,
) -> complex:
    """<f, g> recovered from the two-sided square-function expansion

        C'_M int int (t^2 L*)^M e^{-t^2 L*} f . conj(t^2 L e^{-t^2 L} g) dx dt/t

    which reduces on each eigenmode to the scalar identity fixing C'_M.
    """
    grid = op.grid
    if f.grid != grid or g.grid != grid:
        raise GridError("field grids do not match the operator")
    f = ScalarField(semigroup.mean_zero(op, f.values), grid)
    g = ScalarField(semigroup.mean_zero(op, g.values), grid)
    times = times or _duality_time_grid(grid)
    # L* comes from L's own calculus, so no second eigendecomposition
    prof_f = semigroup.calculus(op).adjoint().heat_profile(times.samples, f.values, M)
    prof_g = semigroup.heat_profile(op, g, times, K=1)
    integrand = (prof_f * np.conj(prof_g)).sum(axis=0) * grid.cell_volume
    return complex(duality_constant(M) * (integrand @ times.log_weights))


def _duality_time_grid(grid: Grid) -> TimeGrid:
    # wide window: the scalar profile must be integrated essentially over
    # (0, inf) for every eigenvalue of L to recover the inner product
    return TimeGrid(grid.spacing / 256.0, 8.0 * max(grid.side_lengths), 128)


@dataclass(frozen=True, eq=False)
class JohnNirenbergReport:
    norms: dict  # p -> BMO_L^p norm
    ratios: dict  # (p, q) -> norm_p / norm_q


def john_nirenberg_compare(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    p_list: tuple = (1.5, 2.0, 3.0),
) -> JohnNirenbergReport:
    """Heat BMO_L^p norms across exponents with their pairwise ratios."""
    osc = _oscillation_fields(f, op, M, "heat")
    norms = {p: _cube_sup(osc, op.grid, p) for p in p_list}
    ratios = {}
    for p in p_list:
        for q in p_list:
            if p == q:
                continue
            ratios[(p, q)] = (
                norms[p] / norms[q] if norms[q] > 0 else math.inf if norms[p] > 0 else 1.0
            )
    return JohnNirenbergReport(norms, ratios)
