"""Square functions, vertical square functions, non-tangential maximal
functions and the Hardy-Littlewood maximal operator.

Everything is driven by one substrate: a space-time field F(y, t) on the
spatial grid times a logarithmic time grid.  Cone integrals discretize

    S^alpha F(x) = ( int int_{|x-y| < alpha t} |F(y,t)|^2 dy dt / t^{n+1} )^{1/2}

with cell-volume weights in y and trapezoid weights in log t; vertical
square functions drop the cone and integrate dt/t pointwise; maximal
functions take suprema of lattice-ball averages.  All evaluations are
direct vectorized sums (desk scale), deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridError, ScalarField, lp_norm
from .operator import DiscreteOperator
from . import semigroup
from .semigroup import TimeGrid

MAXIMAL_KINDS = ("heat", "poisson")


@dataclass(frozen=True)
class ConeSpec:
    """Aperture of the cone |x - y| < alpha * t."""

    aperture: float = 1.0

    def __post_init__(self):
        if not self.aperture > 0:
            raise ValueError("aperture must be positive")


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Values F(y, t_j) on grid nodes x time samples, shape (N, T)."""

    values: np.ndarray
    grid: Grid
    times: TimeGrid

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_nodes, self.times.count):
            raise GridError("space-time values must have shape (n_nodes, count)")
        object.__setattr__(self, "values", v)


def cone_integrate(F: SpaceTimeField, cone: ConeSpec) -> ScalarField:
    """Discrete cone integral of |F|^2 against dy dt/t^{n+1}, square-rooted."""
    grid = F.grid
    n = grid.dim
    dist = grid.distance_matrix()
    ts = F.times.samples
    wlog = F.times.log_weights
    absF2 = np.abs(F.values) ** 2
    out = np.zeros(grid.n_nodes)
    for j, t in enumerate(ts):
        mask = dist < cone.aperture * t
        contrib = mask @ absF2[:, j]
        out += (wlog[j] * grid.cell_volume / t**n) * contrib
    return ScalarField(np.sqrt(out), grid)


def _build_profile(
    f: ScalarField,
    op: DiscreteOperator,
    kind: str,
    K: int,
    times: TimeGrid,
) -> np.ndarray:
    """Space-time magnitudes for one integrand kind; shape (N, T), real."""
    if kind == "heat":
        if K < 1:
            raise ValueError("need K >= 1")
        return np.abs(semigroup.heat_profile(op, f, times, K))
    if kind == "poisson_tderiv":
        root = semigroup.sqrt_apply(op, f)
        return np.abs(semigroup.poisson_profile(op, root, times)) * times.samples[None, :]
    raise ValueError(f"unknown kind {kind!r}")


def square_function(
    f: ScalarField,
    op: DiscreteOperator,
    cone: ConeSpec,
    kind: str = "heat",
    K: int = 1,
    times: TimeGrid | None = None,
) -> ScalarField:
    """Cone square function of the heat integrand (t^2 L)^K e^{-t^2 L} f or
    the Poisson integrand t sqrt(L) e^{-t sqrt(L)} f (kind "poisson_tderiv")."""
    times = times or semigroup.default_time_grid(op.grid)
    vals = _build_profile(f, op, kind, K, times)
    F = SpaceTimeField(vals, op.grid, times)
    return cone_integrate(F, cone)


def vertical_square_function(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    times: TimeGrid | None = None,
) -> ScalarField:
    """Pointwise dt/t square function g_h, no cone; M is the power of t^2 L."""
    times = times or semigroup.default_time_grid(op.grid)
    vals = _build_profile(f, op, "heat", M, times)
    out = np.sqrt((np.abs(vals) ** 2) @ times.log_weights)
    return ScalarField(out, op.grid)


def _ball_averages(grid: Grid, g2_col: np.ndarray, radius: float) -> np.ndarray:
    """Mean of g2 over the lattice ball of the given radius around each node.

    Balls are inclusive (dist <= r) and always contain the center node, so
    the sub-grid-scale average degenerates to the single nearest node.
    """
    mask = grid.distance_matrix() <= radius
    counts = mask.sum(axis=1)
    return (mask @ g2_col) / counts


def nontangential_max(
    f: ScalarField,
    op: DiscreteOperator,
    kind: str = "heat",
    beta: float = 1.0,
    M: int = 0,
    times: TimeGrid | None = None,
) -> ScalarField:
    """Non-tangential maximal function of a semigroup image.

    Takes the sup over |x - y| < beta*t of the L^2 ball mean over
    B(y, beta*t).  M is the power of t^2 L on the heat image; the Poisson
    image takes none.
    """
    if kind not in MAXIMAL_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not beta > 0:
        raise ValueError("aperture beta must be positive")
    if M < 0 or (kind == "poisson" and M):
        raise ValueError("need M >= 0, and M = 0 for the Poisson image")
    times = times or semigroup.default_time_grid(op.grid)
    if kind == "heat":
        prof = semigroup.heat_profile(op, f, times, M)
    else:
        prof = semigroup.poisson_profile(op, f, times)
    grid = op.grid
    g2 = np.abs(prof) ** 2
    dist = grid.distance_matrix()
    best = np.zeros(grid.n_nodes)
    for j, t in enumerate(times.samples):
        r = beta * t
        avg = _ball_averages(grid, g2[:, j], r)
        cand = np.where(dist < r, avg[None, :], -np.inf).max(axis=1)
        best = np.maximum(best, np.where(np.isfinite(cand), cand, 0.0))
    return ScalarField(np.sqrt(best), grid)


def hl_maximal(f: ScalarField) -> ScalarField:
    """Hardy-Littlewood maximal function over all distinct lattice-ball radii."""
    grid = f.grid
    dist = grid.distance_matrix()
    a = np.abs(f.values)
    out = np.empty(grid.n_nodes)
    for x in range(grid.n_nodes):
        order = np.argsort(dist[x], kind="stable")
        dsorted = dist[x][order]
        csum = np.cumsum(a[order])
        # valid ball cutoffs are where the next distance strictly increases
        boundary = np.empty(dsorted.size, dtype=bool)
        boundary[:-1] = dsorted[1:] > dsorted[:-1]
        boundary[-1] = True
        k = np.nonzero(boundary)[0]
        out[x] = (csum[k] / (k + 1)).max()
    return ScalarField(out, grid)


@dataclass(frozen=True)
class ApertureReport:
    """L^1 comparison of cone square functions at two apertures."""

    aperture: float
    norm_alpha: float
    norm_base: float
    ratio: float


def aperture_compare(F: SpaceTimeField, alpha: float) -> ApertureReport:
    """Compares ||S^alpha F||_1 against ||S^1 F||_1 (ratio 1 on zero input)."""
    if alpha < 1:
        raise ValueError("need alpha >= 1")
    s_alpha = cone_integrate(F, ConeSpec(aperture=alpha))
    s_base = cone_integrate(F, ConeSpec(aperture=1.0))
    na = lp_norm(s_alpha.values, F.grid, 1)
    nb = lp_norm(s_base.values, F.grid, 1)
    ratio = 1.0 if (na == 0 and nb == 0) else na / nb
    return ApertureReport(alpha, na, nb, ratio)
