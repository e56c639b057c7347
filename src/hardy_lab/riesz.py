"""The Riesz transform grad L^{-1/2}, its boundedness experiments, and the
measured off-diagonal decay of operator families.

L^{-1/2} is the spectral base's symbol z^{-1/2} (`inv_sqrt`); a
Krylov-served operator refuses it with ConvergenceError.

Off-diagonal decay is one measurement, `_decay_norms`: the L^2(F) norm of
T_t (I - e^{-tL})^M f at each time t, f the L^2-normalized indicator of E,
E and F disjoint at distance d > 0.  The inputs of every t form one
block, and each family is evaluated on F alone: g_h takes one heat
profile of the block at the rows of F (on the eigenbasis, the rows of V
times one symbol table), the other families make one calculus call on
the block, at the array of times, and index its image at F.
The Gaffney families (M = 0) fall off like exp(-(d^2/(ct))^beta), fitted
by `gaffney_profile`; the commutator transforms g_h and grad L^{-1/2}
grow like (t/d^2)^M while Lambda t << d^2, the log-log slope
`commutator_slope` fits on `commutator_window`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, VectorField, lp_norm, set_distance
from .operator import DiscreteOperator
from . import semigroup
from . import functionals


def inv_sqrt_apply(op: DiscreteOperator, f: ScalarField) -> ScalarField:
    """L^{-1/2} f; the input passes through `mean_zero` first."""
    v = semigroup.mean_zero(op, f.values)
    return ScalarField(semigroup.calculus(op).inv_sqrt(v), op.grid)


def riesz_apply(op: DiscreteOperator, f: ScalarField) -> VectorField:
    """grad L^{-1/2} f as a vector field."""
    half = inv_sqrt_apply(op, f)
    return VectorField(op.gradient(half.values), op.grid)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RieszH1Report:
    per_molecule: list  # (index, cube sidelength, L1 norm of |grad L^{-1/2} m|)
    sup_norm: float
    max_min_ratio: float


def riesz_h1_experiment(molecules: list, op: DiscreteOperator) -> RieszH1Report:
    """L^1 norms of the Riesz transform over a molecule corpus."""
    rows = []
    for idx, mol in enumerate(molecules):
        out = riesz_apply(op, mol.field)
        l1 = lp_norm(out.magnitude(), op.grid, 1)
        rows.append((idx, mol.cube.sidelength, l1))
    vals = [r[2] for r in rows]
    sup = max(vals, default=0.0)
    positive = [v for v in vals if v > 0]
    ratio = (max(positive) / min(positive)) if positive else 1.0
    return RieszH1Report(rows, sup, ratio)


# ---------------------------------------------------------------------------
# off-diagonal decay
# ---------------------------------------------------------------------------

GAFFNEY_FAMILIES = ("heat", "t_heat_deriv", "grad_heat", "resolvent", "grad_resolvent")


def _grad_magnitude(op: DiscreteOperator, u: np.ndarray) -> np.ndarray:
    """|grad u| of a vector or of each column of a block, the components
    folded into a pointwise magnitude."""
    return np.sqrt((np.abs(op.gradient(u)) ** 2).sum(axis=0))


def _g_h(calc: semigroup._Calculus, ts: np.ndarray, block: np.ndarray, F: np.ndarray):
    """`vertical_square_function` of every column of the block, at F alone:
    one row-restricted heat profile over the default time grid."""
    times = semigroup.default_time_grid(calc.op.grid)
    return functionals._log_time_norm(calc.heat_profile(times.samples, block, 1, F), times)


# family -> (calculus, ts, block, F) -> magnitudes on F, shape (|F|, len(ts)),
# of the family member, a function of tL, at ts[j] applied to column j of
# the block: one calculus call on the whole block, at the array ts
_FAMILIES = {
    "heat": lambda c, ts, b, F: np.abs(c.heat(ts, b)[F]),
    "t_heat_deriv": lambda c, ts, b, F: np.abs(c.heat_poly(1, ts, b)[F]),
    "grad_heat": lambda c, ts, b, F: np.sqrt(ts) * _grad_magnitude(c.op, c.heat(ts, b))[F],
    "resolvent": lambda c, ts, b, F: np.abs(c.resolvent(ts, b)[F]),
    "grad_resolvent": lambda c, ts, b, F: np.sqrt(ts) * _grad_magnitude(c.op, c.resolvent(ts, b))[F],
    "g_h": _g_h,
    # mean_zero projects the roundoff-level mean of each commutator image
    "riesz": lambda c, ts, b, F: _grad_magnitude(c.op, c.inv_sqrt(semigroup.mean_zero(c.op, b)))[F],
}


def _decay_norms(
    op: DiscreteOperator, family: str, E: np.ndarray, F: np.ndarray, ts: np.ndarray, M: int = 0
) -> tuple[float, np.ndarray]:
    """dist(E, F) and, at each t in ts, the L^2(F) norm of
    family(t) (I - e^{-tL})^M f, f the L^2-normalized indicator of E.

    The inputs (I - e^{-tL})^M f of every t form one (N, len(ts)) block,
    and the family is evaluated on F alone.  The inputs are built a column
    at a time through `heat_apply`, the per-vector path the tests compare
    g_h with to 1e-11; a block product rounds 2.6e-11 apart there."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    grid = op.grid
    ts = np.asarray(ts, dtype=float)
    E = np.asarray(E, dtype=int)
    F = np.asarray(F, dtype=int)
    in_e = np.zeros(grid.n_nodes, dtype=bool)
    in_e[E] = True
    if in_e[F].any():  # np.intersect1d would import numpy.ma
        raise ValueError("E and F must be disjoint")
    dist = set_distance(grid, E, F)
    if dist <= 0:
        raise ValueError("E and F must have positive distance")
    ind = np.zeros(grid.n_nodes, dtype=complex)
    ind[E] = 1.0
    ind /= lp_norm(ind, grid, 2)
    # column-major, so each column is a contiguous vector
    block = np.empty((grid.n_nodes, len(ts)), dtype=complex, order="F")
    for j, t in enumerate(ts):
        v = ind
        for _ in range(M):
            v = v - semigroup.heat_apply(op, float(t), ScalarField(v, grid)).values
        block[:, j] = v
    mags = _FAMILIES[family](semigroup.calculus(op), ts, block, F)
    norms = np.array([lp_norm(m, grid, 2) for m in mags.T])
    return dist, norms


@dataclass(frozen=True, eq=False)
class GaffneyProfile:
    """Measured L^2(E) -> L^2(F) decay of an operator family over time."""

    t_values: np.ndarray
    measured_norms: np.ndarray
    fitted_beta: float


def _fit_decay(dist: float, ts: np.ndarray, norms: np.ndarray) -> float:
    """beta of the least-squares fit log(norm) = log C - (dist^2/(c t))^beta."""
    # imported here: only the Gaffney fits need scipy.optimize, and its
    # import is a large share of every other command's start-up
    from scipy.optimize import curve_fit

    mask = np.isfinite(norms) & (norms > 1e-13)
    if mask.sum() < 5:
        return math.nan
    t, y = ts[mask], np.log(norms[mask])

    def model(tt, logc, c, beta):
        return logc - (dist * dist / (c * tt)) ** beta

    try:
        popt, _ = curve_fit(
            model,
            t,
            y,
            p0=(float(y.max()), 1.0, 1.0),
            bounds=([-50.0, 1e-3, 0.1], [50.0, 1e3, 4.0]),
            maxfev=20000,
        )
    except RuntimeError:
        return math.nan
    return float(popt[2])


def gaffney_profile(
    op: DiscreteOperator, family: str, E: np.ndarray, F: np.ndarray, times: semigroup.TimeGrid
) -> GaffneyProfile:
    """Off-diagonal decay of one Gaffney family, with a fitted beta."""
    dist, norms = _decay_norms(op, family, E, F, times.samples)
    return GaffneyProfile(times.samples, norms, _fit_decay(dist, times.samples, norms))


def commutator_window(op: DiscreteOperator, dist: float) -> np.ndarray:
    """Six times from 1e-4 to 1e-2 of dist^2 / stiffness, log-spaced.

    The stiffness rho h^2 / (4 dim), rho the Gershgorin bound of L, is 1
    for the identity coefficients and grows with Lambda, so the window
    stays in the regime Lambda t << dist^2 where the commutator norms
    grow like (t/dist^2)^M.
    """
    h = op.grid.spacing
    s = 4 * op.grid.dim / (op.gershgorin_bound * h * h)
    return np.geomspace(1e-4 * dist * dist * s, 1e-2 * dist * dist * s, 6)


def commutator_slope(
    op: DiscreteOperator,
    T: str,
    M: int,
    E: np.ndarray,
    F: np.ndarray,
    t_values: np.ndarray,
) -> float:
    """Log-log slope against t of the L^2(F) norm of T (I - e^{-tL})^M f,
    f the normalized indicator of E and T "g_h" or "riesz"."""
    _, norms = _decay_norms(op, T, E, F, t_values, M)
    ys = np.maximum(norms, 1e-300)
    slope = np.polyfit(np.log(np.asarray(t_values, dtype=float)), np.log(ys), 1)[0]
    return float(slope)
