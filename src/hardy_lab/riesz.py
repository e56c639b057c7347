"""The Riesz transform grad L^{-1/2} and its boundedness experiments.

L^{-1/2} is served by the functional calculus (`DenseCalculus.inv_sqrt`);
a Krylov-served operator refuses it with ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, VectorField, lp_norm, restricted_lp_norm
from .operator import DiscreteOperator
from . import semigroup
from .functionals import vertical_square_function


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


def gaffney_commutator_check(
    op: DiscreteOperator,
    T: str,
    M: int,
    t: float,
    E: np.ndarray,
    F: np.ndarray,
) -> float:
    """Off-diagonal norm of T composed with a semigroup commutator factor.

    f is the L^2-normalized indicator of E; returns the L^2(F) norm of
    T (I - e^{-tL})^M f, which decays like (t/dist(E,F)^2)^M.
    """
    if T not in ("g_h", "riesz"):
        raise ValueError(f"unknown transform {T!r}")
    if M < 1:
        raise ValueError("need M >= 1")
    grid = op.grid
    if not semigroup.set_distance(grid, E, F) > 0:
        raise ValueError("E and F must be separated")
    ind = np.zeros(grid.n_nodes, dtype=complex)
    ind[np.asarray(E, dtype=int)] = 1.0
    ind /= lp_norm(ind, grid, 2)
    for _ in range(M):
        ind = ind - semigroup.heat_apply(op, t, ScalarField(ind, grid)).values
    field = ScalarField(ind, grid)
    if T == "riesz":
        # riesz_apply projects the roundoff-level mean through mean_zero
        out = riesz_apply(op, field).magnitude()
    else:
        out = vertical_square_function(field, op).values
    return restricted_lp_norm(out, grid, np.asarray(F, dtype=int), 2)


def commutator_slope(
    op: DiscreteOperator,
    T: str,
    M: int,
    E: np.ndarray,
    F: np.ndarray,
    t_values: np.ndarray,
) -> float:
    """Log-log slope of the measured commutator norm against t."""
    norms = [gaffney_commutator_check(op, T, M, float(t), E, F) for t in t_values]
    ys = np.maximum(norms, 1e-300)
    slope = np.polyfit(np.log(np.asarray(t_values, dtype=float)), np.log(ys), 1)[0]
    return float(slope)
