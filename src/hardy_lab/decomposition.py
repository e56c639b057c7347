"""Molecular decomposition machinery.

The decomposition follows the level-set construction: level sets of the
cone square function of f, density-expanded through the Hardy-Littlewood
maximal operator, Whitney-decomposed into dyadic cubes, and intersected
with tent regions to cut the reproducing-formula integral

    f = C_M int_0^inf (t^2 L e^{-t^2 L})^{M+2} f dt/t

into one molecule per (level, cube), with weight C_M 2^k |Q|.
validate_molecule checks a molecule against the annular decay and
negative-power cancellation bounds that define a (p, eps, M)-molecule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    PERIODIC,
    Cube,
    Grid,
    GridError,
    ScalarField,
    full_grid_cube,
    lp_norm,
    restricted_lp_norm,
)
from .operator import DiscreteOperator
from . import semigroup
from .functionals import ConeSpec, SpaceTimeField, cone_integrate, hl_maximal
from .semigroup import TimeGrid

WHITNEY_C2 = 0.5


class DegenerateFieldError(ValueError):
    """Field has no usable square-function mass (kernel component only)."""


class SupportError(ValueError):
    """Molecule seed is not supported inside its cube."""


def calderon_constant(M: int) -> float:
    """Normalizing constant of the reproducing formula with exponent M + 2.

    Defined by C_M * int_0^inf u^{M+2} e^{-(M+2)u} du/u = 1, i.e.
    C_M = 2 (M+2)^{M+2} / Gamma(M+2) after the substitution u = t^2 mu.
    """
    if M < 1:
        raise ValueError("need M >= 1")
    return 2.0 * (M + 2) ** (M + 2) / math.gamma(M + 2)


def reproduction_times(
    op: DiscreteOperator, t_max: float | None = None, count: int = 64
) -> TimeGrid:
    """The time grid on which `decompose` reproduces f from its profiles.

    t_max defaults to four domain sides, the upper end of
    `semigroup.default_time_grid`; `molecular_decompose` and
    `h1_norm_estimate` use these defaults when given no times.

    The reconstruction residual is mostly the part of the reproducing
    integral below t_min, which grows with t_min^2 |lambda| over the
    spectrum of L.  t_min is h/16, lowered to 1/(4 sqrt(rho)) on stiff
    operators, where rho, the largest absolute row sum of L, bounds every
    |lambda| (Gershgorin) without an eigendecomposition.
    """
    rho = float(abs(op.matrix).sum(axis=1).max())
    if t_max is None:
        t_max = semigroup.default_time_grid(op.grid).t_max
    return TimeGrid(min(op.grid.spacing / 16.0, 0.25 / math.sqrt(rho)), t_max, count)


def _require_dyadic(grid: Grid):
    for s in grid.sizes:
        if s & (s - 1):
            raise GridError("decomposition requires power-of-two axis sizes")
    if len(set(grid.sizes)) != 1:
        raise GridError("decomposition requires equal axis sizes")


# ---------------------------------------------------------------------------
# level sets, Whitney cubes, tents
# ---------------------------------------------------------------------------


def density_expansion(O: np.ndarray, gamma: float, grid: Grid) -> np.ndarray:
    """Nodes where the maximal function of the indicator of O exceeds 1 - gamma."""
    if not 0 < gamma < 1:
        raise ValueError("need 0 < gamma < 1")
    O = np.asarray(O, dtype=int)
    if O.size == 0:
        return O.copy()
    ind = np.zeros(grid.n_nodes, dtype=complex)
    ind[O] = 1.0
    m = hl_maximal(ScalarField(ind, grid)).values.real
    return np.nonzero(m > 1.0 - gamma)[0]


def dist_to_complement(grid: Grid, node_set: np.ndarray) -> np.ndarray:
    """Per-node distance to the complement of the set (inf if it is empty).

    An exact Euclidean distance transform of the set's indicator.  On a
    periodic grid it runs on a 3x tiling per axis: the torus distance to a
    node is attained by one of its images within half a period per axis,
    and the middle copy sees all of those.
    """
    # imported here, so commands that build no tent pay no scipy.ndimage import
    from scipy.ndimage import distance_transform_edt

    inside = np.zeros(grid.n_nodes, dtype=bool)
    inside[np.asarray(node_set, dtype=int)] = True
    if inside.all():
        return np.full(grid.n_nodes, np.inf)
    ind = inside.reshape(grid.sizes)
    if grid.boundary == PERIODIC:
        middle = tuple(slice(s, 2 * s) for s in grid.sizes)
        dist = distance_transform_edt(np.tile(ind, (3,) * grid.dim))[middle]
    else:
        dist = distance_transform_edt(ind)
    return dist.ravel() * grid.spacing


def whitney_decompose(open_set: np.ndarray, grid: Grid) -> list:
    """Dyadic Whitney partition of a node set, largest cubes first.

    Accepted cubes are maximal dyadic blocks contained in the set with
    sidelength at most WHITNEY_C2 times their distance to the complement;
    single-node blocks are exempt from the upper comparison (resolution
    floor).  The cubes partition the set, so they do not overlap.
    """
    _require_dyadic(grid)
    open_set = np.unique(np.asarray(open_set, dtype=int))
    if open_set.size == 0:
        return []
    if open_set.size == grid.n_nodes:
        return [full_grid_cube(grid)]
    in_open = np.zeros(grid.n_nodes, dtype=bool)
    in_open[open_set] = True
    dist = dist_to_complement(grid, open_set)
    cubes: list[Cube] = []
    stack = [Cube(grid, (0,) * grid.dim, grid.sizes[0])]
    while stack:
        cube = stack.pop()
        nodes = cube.node_set(0)
        inside = in_open[nodes]
        if not inside.any():
            continue
        if inside.all():
            d = float(dist[nodes].min())
            if cube.nnodes == 1 or cube.sidelength <= WHITNEY_C2 * d:
                cubes.append(cube)
                continue
        if cube.nnodes == 1:
            continue
        half = cube.nnodes // 2
        for corner in np.ndindex(*(2,) * grid.dim):
            anchor = tuple(
                cube.anchor[a] + corner[a] * half for a in range(grid.dim)
            )
            stack.append(Cube(grid, anchor, half))
    cubes.sort(key=lambda c: (-c.nnodes, c.anchor))
    return cubes


def truncated_tent_mask(
    cube: Cube, dist_lower: np.ndarray, dist_upper: np.ndarray, times: TimeGrid
) -> np.ndarray:
    """T_k^j over the time grid: the cube column, inside one tent, outside
    the next level's tent; shape (N, T).

    The tent above a node set is dist(x, complement) >= t, so each tent is
    given by the dist_to_complement of its set.
    """
    in_cube = np.zeros(cube.grid.n_nodes, dtype=bool)
    in_cube[cube.node_set(0)] = True
    ts = times.samples[None, :]
    return in_cube[:, None] & (dist_lower[:, None] >= ts) & ~(dist_upper[:, None] >= ts)


# ---------------------------------------------------------------------------
# molecules
# ---------------------------------------------------------------------------


def molecule_bound(i: int, grid: Grid, p: float, eps: float, cube: Cube) -> float:
    """Annular decay bound 2^{-i(n - n/p + eps)} |Q|^{1/p - 1}."""
    n = grid.dim
    return 2.0 ** (-i * (n - n / p + eps)) * cube.volume ** (1.0 / p - 1.0)


@dataclass(frozen=True)
class MoleculeCheck:
    annulus: int
    k: int
    measured: float
    bound: float
    passes: bool


@dataclass(frozen=True, eq=False)
class MoleculeReport:
    checks: list
    max_ratio: float
    passes: bool


@dataclass(frozen=True, eq=False)
class Molecule:
    """A scalar field adapted to a cube; validate_molecule certifies its
    (p, eps, M) decay."""

    field: ScalarField
    cube: Cube
    p: float
    eps: float
    M: int
    normalization: float


def _annular_table(
    values: np.ndarray,
    cube: Cube,
    op: DiscreteOperator,
    p: float,
    eps: float,
    M: int,
) -> MoleculeReport:
    """Annulus-by-annulus decay table for the field and its negative powers."""
    grid = op.grid
    annuli = cube.annuli()
    ell2 = cube.sidelength**2
    checks = []
    max_ratio = 0.0
    g = ScalarField(values, grid)
    for k in range(M + 1):
        if k > 0:
            g = semigroup.neg_power_apply(op, 1, g)
            g = ScalarField(g.values / ell2, grid)
        for i, nodes in enumerate(annuli):
            if nodes.size == 0:
                continue
            measured = restricted_lp_norm(g.values, grid, nodes, p)
            bound = molecule_bound(i, grid, p, eps, cube)
            ratio = measured / bound
            max_ratio = max(max_ratio, ratio)
            checks.append(MoleculeCheck(i, k, measured, bound, ratio <= 1.0 + 1e-9))
    return MoleculeReport(checks, max_ratio, all(c.passes for c in checks))


def validate_molecule(m: Molecule, op: DiscreteOperator) -> MoleculeReport:
    """Checks the annular decay and cancellation bounds of a molecule; the
    one producer of its certificate."""
    if m.M < 1:
        raise ValueError("need M >= 1")
    return _annular_table(m.field.values, m.cube, op, m.p, m.eps, m.M)


def make_molecule(
    f_on_Q: ScalarField,
    cube: Cube,
    op: DiscreteOperator,
    M: int,
    eps: float = 1.0,
    p: float = 2.0,
) -> Molecule:
    """Hand-built molecule (l(Q)^2 L)^M e^{-l(Q)^2 L} from a seed supported
    in a cube, scaled by the smallest constant making the (p, eps, M) bounds
    hold on all computable annuli.
    """
    grid = op.grid
    v = f_on_Q.values
    inside = cube.node_set(0)
    outside = np.setdiff1d(np.arange(grid.n_nodes), inside, assume_unique=True)
    if outside.size and np.abs(v[outside]).max(initial=0.0) > 0:
        raise SupportError("seed has support outside the cube")
    if lp_norm(v, grid, 2) > cube.volume ** (-0.5) * (1 + 1e-9):
        raise ValueError("seed L2 norm exceeds |Q|^{-1/2}")
    out = semigroup.heat_power_apply(op, cube.sidelength, M, f_on_Q).values
    # the cancellation factor annihilates constants exactly; remove the
    # roundoff-level mean so the inverse-power chain stays well posed
    out = semigroup.mean_zero(op, out)
    raw = _annular_table(out, cube, op, p, eps, M)
    norm_const = raw.max_ratio if raw.max_ratio > 0 else 1.0
    return Molecule(ScalarField(out / norm_const, grid), cube, p, eps, M, norm_const)


# ---------------------------------------------------------------------------
# the decomposition itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecompositionTerm:
    level: int
    cube_index: int
    weight: float
    molecule: Molecule


@dataclass(frozen=True, eq=False)
class MolecularDecomposition:
    terms: list
    residual: ScalarField
    truncation: tuple[float, float]
    weight_sum: float
    calderon: float
    s_h: ScalarField


def _tents(
    f: ScalarField, op: DiscreteOperator, M: int, gamma: float, times: TimeGrid
) -> tuple:
    """The tent stage: (mean-zero f, heat profile u, S_h f, tents), where
    each tent is (level, cube index, weight C_M 2^k |Q|, mask, cube)."""
    grid = op.grid
    _require_dyadic(grid)
    try:
        v = semigroup.mean_zero(op, f.values)
    except semigroup.KernelComponentError as exc:
        raise DegenerateFieldError(str(exc)) from exc
    u = semigroup.heat_profile(op, ScalarField(v, grid), times, K=1)
    s_h = cone_integrate(SpaceTimeField(u, grid, times), ConeSpec(1.0))
    s = s_h.values.real
    smax = float(s.max())
    if smax == 0.0:
        if lp_norm(v, grid, 2) > 0:
            raise DegenerateFieldError(
                "square function vanishes identically on a nonzero field"
            )
        return v, u, s_h, []
    pos = s[s > 0]
    kmin = math.floor(math.log2(float(pos.min())))
    kmax = math.ceil(math.log2(smax))
    c_m = calderon_constant(M)

    # per level: expanded sets, then Whitney cubes and their truncated tents
    expanded: dict[int, np.ndarray] = {}
    for k in range(kmin, kmax + 2):
        o_k = np.nonzero(s > 2.0**k)[0]
        expanded[k] = density_expansion(o_k, gamma, grid) if o_k.size else o_k
    tents = []
    for k in range(kmin, kmax + 1):
        o_star = expanded[k]
        if o_star.size == 0:
            continue
        lower = dist_to_complement(grid, o_star)
        upper = dist_to_complement(grid, expanded[k + 1])
        for j, cube in enumerate(whitney_decompose(o_star, grid)):
            mask = truncated_tent_mask(cube, lower, upper, times)
            if mask.any():
                tents.append((k, j, c_m * 2.0**k * cube.volume, mask, cube))
    return v, u, s_h, tents


def molecular_decompose(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    p: float = 2.0,
    eps: float = 1.0,
    gamma: float = 0.5,
    times: TimeGrid | None = None,
) -> MolecularDecomposition:
    """Level-set molecular decomposition of f with reconstruction residual.

    The molecules carry (p, eps, M) but no certificate: validate_molecule
    computes it for a caller that reads it.
    """
    grid = op.grid
    times = times or reproduction_times(op)
    v, u, s_h, tents = _tents(f, op, M, gamma, times)
    c_m = calderon_constant(M)
    calc = semigroup.calculus(op)
    ts = times.samples
    wlog = times.log_weights

    # integrate (t^2 L e^{-t^2 L})^{M+1} over each truncated tent, batched in
    # t; with u = (M+1) t^2 the integrand is (uL)^{M+1} e^{-uL} / (M+1)^{M+1}
    raw = [np.zeros(grid.n_nodes, dtype=complex) for _ in tents]
    for jt, t in enumerate(ts):
        active = [i for i, item in enumerate(tents) if item[3][:, jt].any()]
        if not active:
            continue
        cols = np.stack(
            [u[:, jt] * tents[i][3][:, jt] for i in active], axis=1
        )
        out = calc.heat_poly(M + 1, (M + 1) * float(t * t), cols) / (M + 1) ** (M + 1)
        for pos_i, i in enumerate(active):
            raw[i] += wlog[jt] * out[:, pos_i]

    recon = np.zeros(grid.n_nodes, dtype=complex)
    terms = []
    for (k, j, weight, _, cube), integral in zip(tents, raw):
        mvals = integral * (c_m / weight)
        recon += weight * mvals
        mol = Molecule(ScalarField(mvals, grid), cube, p, eps, M, 1.0)
        terms.append(DecompositionTerm(k, j, weight, mol))

    return MolecularDecomposition(
        terms,
        ScalarField(v - recon, grid),
        (times.t_min, times.t_max),
        float(sum(t.weight for t in terms)),
        c_m,
        s_h,
    )


@dataclass(frozen=True)
class H1Estimate:
    weight_sum: float
    l1_norm: float
    estimate: float
    s_h_l1: float


def h1_norm_estimate(
    f: ScalarField,
    op: DiscreteOperator,
    M: int = 1,
    gamma: float = 0.5,
    times: TimeGrid | None = None,
) -> H1Estimate:
    """Decomposition-based upper proxy for the molecular Hardy norm.

    The weights C_M 2^k |Q| come from the tent stage alone, so no molecule
    is integrated; weight_sum equals molecular_decompose's exactly.
    """
    times = times or reproduction_times(op)
    _, _, s_h, tents = _tents(f, op, M, gamma, times)
    weight_sum = float(sum(weight for _, _, weight, _, _ in tents))
    l1 = lp_norm(f.values, op.grid, 1)
    return H1Estimate(weight_sum, l1, weight_sum + l1, lp_norm(s_h.values, op.grid, 1))
