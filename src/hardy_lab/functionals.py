"""Square functions, vertical square functions, non-tangential maximal
functions and the Hardy-Littlewood maximal operator.

Everything is driven by one substrate: a space-time field F(y, t) on the
spatial grid times a logarithmic time grid.  Cone integrals discretize

    S^alpha F(x) = ( int int_{|x-y| < alpha t} |F(y,t)|^2 dy dt / t^{n+1} )^{1/2}

with cell-volume weights in y and trapezoid weights in log t; vertical
square functions drop the cone and integrate dt/t pointwise; maximal
functions take suprema of lattice-ball averages.  Ball sums are FFT
convolutions with ``grid.offset_lengths`` and open-ball suprema are box maximum
filters, so no N x N array is formed; all are deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PERIODIC, Grid, GridError, ScalarField, lp_norm, offset_lengths
from .operator import DiscreteOperator
from . import semigroup
from .semigroup import TimeGrid


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
    """Discrete cone integral of |F|^2 against dy dt/t^{n+1}, square-rooted;
    the open cone |x - y| < alpha t is the closed ball at the float below."""
    grid = F.grid
    ts = F.times.samples
    (sums,) = _ball_sums(grid, np.nextafter(cone.aperture * ts, 0), np.abs(F.values) ** 2)
    weights = F.times.log_weights * grid.cell_volume / ts**grid.dim
    return ScalarField(np.sqrt(np.maximum(sums @ weights, 0.0)), grid)


def _profile(f: ScalarField, op: DiscreteOperator, kind: str, K: int, times: TimeGrid) -> np.ndarray:
    """Magnitudes |u(t)| over the time grid, shape (N, T), of one image u of
    f: (t^2 L)^K e^{-t^2 L} f ("heat", K >= 0), e^{-t sqrt(L)} f ("poisson",
    K = 0) or t sqrt(L) e^{-t sqrt(L)} f ("poisson_tderiv", K = 1), K the
    power of t^2 L or of t sqrt(L) that the image carries."""
    if kind == "heat" and K >= 0:
        return np.abs(semigroup.heat_profile(op, f, times, K))
    if kind == "poisson" and K == 0:
        return np.abs(semigroup.poisson_profile(op, f, times))
    if kind == "poisson_tderiv" and K == 1:
        root = semigroup.sqrt_apply(op, f)
        return np.abs(semigroup.poisson_profile(op, root, times)) * times.samples[None, :]
    raise ValueError(f"no image of kind {kind!r} with power K = {K}")


def square_function(
    f: ScalarField,
    op: DiscreteOperator,
    cone: ConeSpec,
    kind: str = "heat",
    K: int = 1,
    times: TimeGrid | None = None,
) -> ScalarField:
    """Cone square function of the heat integrand (t^2 L)^K e^{-t^2 L} f,
    K >= 1, or the Poisson integrand t sqrt(L) e^{-t sqrt(L)} f (kind
    "poisson_tderiv", K = 1)."""
    if K < 1:
        raise ValueError("need K >= 1")
    times = times or semigroup.default_time_grid(op.grid)
    return cone_integrate(SpaceTimeField(_profile(f, op, kind, K, times), op.grid, times), cone)


def vertical_square_function(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    times: TimeGrid | None = None,
) -> ScalarField:
    """Pointwise dt/t square function g_h, no cone; M >= 1 is the power of t^2 L."""
    if M < 1:
        raise ValueError("need M >= 1")
    times = times or semigroup.default_time_grid(op.grid)
    return ScalarField(_log_time_norm(_profile(f, op, "heat", M, times), times), op.grid)


def _log_time_norm(profile: np.ndarray, times: TimeGrid) -> np.ndarray:
    """(int |P(t)|^2 dt/t)^{1/2} over the last axis, the time axis, of a
    profile P: the trapezoid rule in log t of `times`."""
    return np.sqrt((np.abs(profile) ** 2) @ times.log_weights)


def _ball_sums(grid: Grid, radii: np.ndarray, *columns: np.ndarray) -> list:
    """Sums of each (N, C) array's column j over the closed balls |x - y| <= radii[j],
    shape (N, len(radii)), a single column serving every radius: FFT convolutions
    with the offset-length table that share one transform of the ball indicators."""
    lengths = offset_lengths(grid)
    axes = tuple(range(grid.dim))
    kernel = np.fft.rfftn(lengths[..., None] <= radii, axes=axes)
    fields = (np.fft.rfftn(c.reshape(grid.sizes + (-1,)), lengths.shape, axes) for c in columns)
    sums = (np.fft.irfftn(kernel * field, lengths.shape, axes) for field in fields)
    return [s[tuple(map(slice, grid.sizes))].reshape(grid.n_nodes, -1) for s in sums]


def _ball_means(grid: Grid, radii: np.ndarray, *columns: np.ndarray) -> list:
    """Means over the closed balls of ``_ball_sums``; each holds its center."""
    *sums, counts = _ball_sums(grid, radii, *columns, np.ones((grid.n_nodes, 1)))
    return [s / np.rint(counts) for s in sums]


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
    B(y, beta*t).  M is the power the image carries (see `_profile`): of
    t^2 L on the heat image, none on the Poisson image.
    """
    if not beta > 0:
        raise ValueError("aperture beta must be positive")
    times = times or semigroup.default_time_grid(op.grid)
    prof = _profile(f, op, kind, M, times)
    from scipy import ndimage

    grid = op.grid
    (means,) = _ball_means(grid, beta * times.samples, prof**2)
    # The open ball |x - y| < r is the union over row offsets k of boxes of
    # half-height k and the row's half-width.  Rows go farthest first, so a box
    # no wider than one taken lies inside it; wrap mode serves boxes wider than a torus.
    periodic = grid.boundary == PERIODIC
    half = offset_lengths(grid)[tuple(slice(n // 2 + 1 if periodic else n) for n in grid.sizes)]
    shape = (1,) * (2 - grid.dim) + grid.sizes
    mode = "wrap" if periodic else "constant"  # zero outside, as means are >= 0
    best = np.zeros(shape)
    for m, r in zip(means.T.reshape((-1,) + shape), beta * times.samples):
        widest = -1
        for k, w in reversed(list(enumerate((np.atleast_2d(half) < r).sum(axis=1) - 1))):
            if w > widest:
                widest = w
                best = np.maximum(best, ndimage.maximum_filter(m, (2 * k + 1, 2 * w + 1), mode=mode))
    return ScalarField(np.sqrt(best.ravel()), grid)


def hl_maximal(f: ScalarField) -> ScalarField:
    """Hardy-Littlewood maximal function: the largest closed-ball mean of |f|
    over every distinct offset length as radius."""
    return ScalarField(_hl_maximal_block(f.grid, np.abs(f.values)[:, None])[:, 0], f.grid)


def _hl_maximal_block(grid: Grid, a: np.ndarray) -> np.ndarray:
    """``hl_maximal`` of K fields at once from their (N, K) absolute values,
    64 radii at a time: one ball transform per chunk serves every column."""
    lengths = offset_lengths(grid)
    radii = np.unique(lengths[np.isfinite(lengths)])
    chunks = np.split(radii, range(64, radii.size, 64))
    maxima = [[m.max(axis=1) for m in _ball_means(grid, r, *a.T[:, :, None])] for r in chunks]
    return np.max(maxima, axis=0).T


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
