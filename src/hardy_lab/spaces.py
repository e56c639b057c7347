"""Operator-adapted BMO norms, Carleson measure functional, tent-space
norms and the square-function duality pairing.

Cube-mean subtraction is replaced by (I - A_l)^M where A_l is either the
heat operator e^{-l^2 L} or the resolvent (I + l^2 L)^{-1} at the cube's
sidelength l.  The cube/ball family is dyadic with every anchor position
in 1D and anchored on the dyadic lattice in 2D.  It is defined once, level
by level: `_levels` gives each sidelength's anchors and `_level_tables`
each cube's nodes and their depths below its faces, so every supremum is
one gather per level, reproducible bit for bit, and one pass over the
tables serves every BMO exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Cube, Grid, GridError, PERIODIC, ScalarField, lp_norm
from .operator import DiscreteOperator
from . import semigroup
from .functionals import ConeSpec, SpaceTimeField, cone_integrate
from .semigroup import TimeGrid

BMO_VARIANTS = ("heat", "resolvent")


def _levels(grid: Grid):
    """Yield (m, anchors (K, dim)) for the family's cubes of m = 2, 4, ...
    nodes per axis: every position that fits in 1D, the dyadic lattice of
    step m in 2D."""
    m = 2
    while m <= min(grid.sizes):
        if grid.dim == 1:
            n = grid.sizes[0] if grid.boundary == PERIODIC else grid.sizes[0] - m + 1
            yield m, np.arange(n)[:, None]
        else:
            axes = np.meshgrid(*(np.arange(0, s, m) for s in grid.sizes), indexing="ij")
            yield m, np.stack(axes, axis=-1).reshape(-1, grid.dim)
        m *= 2


def dyadic_cubes(grid: Grid) -> list:
    """The fixed cube family behind every BMO/Carleson supremum."""
    return [Cube(grid, tuple(a), m) for m, anchors in _levels(grid) for a in anchors.tolist()]


# table entries per block of rows: bounds the memory on long 1D grids,
# where a level holds N cubes of up to N nodes
_TABLE_BLOCK = 1 << 16


def _level_tables(grid: Grid):
    """Yield (m, nodes, n_nodes, depth) per level of the cube family, in
    blocks of rows of at most `_TABLE_BLOCK` entries (or one row).

    Row k of ``nodes`` holds cube k's sorted flat nodes in its first
    ``n_nodes[k]`` entries, then node 0 at depth 0 for each node it loses
    to Dirichlet clipping.  ``depth`` is the distance to the nearest node
    outside the cube, straight across a face: min over the axes of
    min(o + 1, m - o) * h, o the node's offset in the cube.  There is no
    face on a periodic axis the cube spans, nor on a Dirichlet array edge
    (inf when the cube covers the grid).
    """
    periodic = grid.boundary == PERIODIC
    for m, level in _levels(grid):
        step = max(1, _TABLE_BLOCK // m**grid.dim)
        for anchors in (level[i : i + step] for i in range(0, len(level), step)):
            k, o = len(anchors), np.arange(m)
            flat, depth = np.zeros((k, 1), int), np.full((k, 1), np.inf)
            inside = np.ones((k, 1), bool)
            for a, size in enumerate(grid.sizes):
                start = anchors[:, a, None]
                if periodic:
                    # sorted along each axis, so the flat indices come out sorted
                    idx = np.sort((start + o) % size, axis=1)
                    off = (idx - start) % size
                    lo = hi = m < size
                else:
                    idx, off = start + o, o
                    lo, hi = start > 0, start + m < size
                face = np.minimum(np.where(lo, off + 1.0, np.inf), np.where(hi, m - off, np.inf))
                flat = (flat[:, :, None] * size + idx[:, None, :]).reshape(k, -1)
                inside = (inside[:, :, None] & (idx < size)[:, None, :]).reshape(k, -1)
                depth = np.minimum(depth[:, :, None], face[:, None, :]).reshape(k, -1)
            depth *= grid.spacing
            if not inside.all():
                # a clipped cube's nodes move to the front of its row, in order
                order = np.argsort(~inside, axis=1, kind="stable")
                flat, inside, depth = (
                    np.take_along_axis(x, order, axis=1) for x in (flat, inside, depth)
                )
                flat, depth = np.where(inside, flat, 0), np.where(inside, depth, 0.0)
            yield m, flat, inside.sum(axis=1), depth


def _oscillation_fields(
    f: ScalarField, op: DiscreteOperator, M: int, variant: str
) -> dict:
    """(I - A_l)^M f for each sidelength l of the cube family, as M
    applications of v <- v - A_l v to a block with one column per l, A_l
    at s = l^2 in its column: one calculus call per application."""
    if variant not in BMO_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if M < 1:
        raise ValueError("need M >= 1")
    ells = [m * op.grid.spacing for m, _ in _levels(op.grid)]
    s = np.array(ells) ** 2
    apply = getattr(semigroup.calculus(op), variant)  # each variant names a calculus method
    v = np.repeat(semigroup._check_field(op, f)[:, None], len(ells), axis=1)
    for _ in range(M):
        v = v - apply(s, v)
    return dict(zip(ells, v.T))


@dataclass(frozen=True, eq=False)
class BmoReport:
    norm: float


def _cube_sup(osc: dict, grid: Grid, ps: tuple) -> dict:
    """p -> supremum over the cube family of the L^p cube means of the
    oscillation fields, for every p in ps from one pass over the level
    tables; NaN if any mean is NaN."""
    if not all(1 < p < math.inf for p in ps):
        raise ValueError("need 1 < p < inf")
    best = {p: [0.0] for p in ps}
    for m, nodes, n_nodes, _ in _level_tables(grid):
        ell = m * grid.spacing
        a = np.abs(osc[ell])
        # rows of one length, so each sum runs in the order of a 1D lp_norm;
        # np.unique would import numpy.ma
        rows = [a[nodes[n_nodes == n, :n]] for n in sorted(set(n_nodes.tolist()))]
        for p, sups in best.items():
            sums = np.concatenate([(r**p).sum(axis=1) for r in rows])
            mean = float(sums.max() ** (1.0 / p) * grid.cell_volume ** (1.0 / p))
            sups.append(mean / (ell**grid.dim) ** (1.0 / p))
    return {p: float(np.max(sups)) for p, sups in best.items()}


def bmo_norm(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    variant: str = "heat",
    p: float = 2.0,
) -> BmoReport:
    """sup over the dyadic cube family of the L^p cube mean of (I - A_l)^M f."""
    osc = _oscillation_fields(f, op, M, variant)
    return BmoReport(_cube_sup(osc, op.grid, (p,))[p])


# ---------------------------------------------------------------------------
# Carleson measure and tent norms
# ---------------------------------------------------------------------------


def _tent_mean_sup(density: np.ndarray, grid: Grid, times: TimeGrid) -> float:
    """sup over the ball family of mass / |ball|, where mass integrates a
    space-time density over the tent above the ball; NaN if any mass is.

    density has shape (N, T) and already carries |.|^2; the integral is
    against dy dt/t (trapezoid in log t, so the 1/t is in the weights).  A
    node at depth d in a cube lies under the tent at the times t <= d, so
    its share of the mass is a running sum over t read at d.
    """
    ts = times.samples
    run = np.zeros((density.shape[0], ts.size + 1))
    np.cumsum(density * times.log_weights, axis=1, out=run[:, 1:])
    best = [0.0]
    for m, nodes, _, depth in _level_tables(grid):
        mass = run[nodes, np.searchsorted(ts, depth, side="right")].sum(axis=1)
        best.append(mass.max() * grid.cell_volume / (m * grid.spacing) ** grid.dim)
    return float(np.max(best))


def carleson_functional(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    times: TimeGrid | None = None,
) -> float:
    """Carleson norm of the measure |(t^2 L)^M e^{-t^2 L} f|^2 dy dt/t; inf
    or NaN, for the caller's finiteness check, where |.|^2 leaves the float
    range."""
    if M < 1:
        raise ValueError("need M >= 1")
    grid = op.grid
    times = times or semigroup.default_time_grid(grid)
    prof = semigroup.heat_profile(op, f, times, K=M)
    with np.errstate(over="ignore", invalid="ignore"):
        return _tent_mean_sup(np.abs(prof) ** 2, grid, times)


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


def duality_pair(f: ScalarField, g: ScalarField, op: DiscreteOperator, M: int = 1) -> complex:
    """<f, g> recovered from the two-sided square-function expansion

        C'_M int int (t^2 L*)^M e^{-t^2 L*} f . conj(t^2 L e^{-t^2 L} g) dx dt/t

    which reduces on each eigenmode to the scalar identity fixing C'_M.  Its
    window (`semigroup.tail_window`) leaves a tail of that identity of at
    most 1e-13, the error's scale relative to ||f|| ||g|| h^d.
    """
    grid = op.grid
    if f.grid != grid or g.grid != grid:
        raise GridError("field grids do not match the operator")
    f = ScalarField(semigroup.mean_zero(op, f.values), grid)
    g = ScalarField(semigroup.mean_zero(op, g.values), grid)
    times = semigroup.tail_window(
        op, M + 1, duality_constant(M), 1e-13, 8.0 * max(grid.side_lengths), 128
    )
    # L* comes from L's own calculus, so no second eigendecomposition
    prof_f = semigroup.calculus(op).adjoint().heat_profile(times.samples, f.values, M)
    prof_g = semigroup.heat_profile(op, g, times, K=1)
    integrand = (prof_f * np.conj(prof_g)).sum(axis=0) * grid.cell_volume
    return complex(duality_constant(M) * (integrand @ times.log_weights))


def duality_error(pairs, op: DiscreteOperator, M: int = 1) -> float:
    """The worst relative error of `duality_pair` against the direct inner
    product sum f conj(g) h^d over the (f, g) pairs of fields."""
    worst = 0.0
    for f, g in pairs:
        direct = complex((f.values * np.conj(g.values)).sum() * op.grid.cell_volume)
        worst = max(worst, abs(duality_pair(f, g, op, M) - direct) / max(abs(direct), 1e-300))
    return worst


def john_nirenberg_compare(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    p_list: tuple = (1.5, 2.0, 3.0),
) -> dict:
    """p -> heat BMO_L^p norm, over one set of oscillation fields."""
    osc = _oscillation_fields(f, op, M, "heat")
    return _cube_sup(osc, op.grid, p_list)
