"""Molecular decomposition machinery.

The decomposition follows the level-set construction: level sets of the
cone square function of f, density-expanded through the Hardy-Littlewood
maximal operator, Whitney-decomposed into dyadic cubes, and intersected
with tents, whose truncations partition space-time and are held as one
(node, time) label array, to cut the reproducing-formula integral

    f = C_M int_0^inf (t^2 L e^{-t^2 L})^{M+2} f dt/t

into one molecule per (level, cube), with weight C_M 2^k |Q|.
validate_molecule checks a molecule against the annular decay and
negative-power cancellation bounds that define a (p, eps, M)-molecule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PERIODIC, Cube, Grid, GridError, ScalarField, lp_norm
from .operator import DiscreteOperator
from . import semigroup
from .functionals import ConeSpec, SpaceTimeField, _hl_maximal_block, cone_integrate
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
    """The window on which `decompose` reproduces f from its profiles: up
    to t_max (four domain sides by default, the upper end of
    `semigroup.default_time_grid`), with a tail of at most 1e-4, a tenth of
    the residual tolerance of `decompose`.  The tail bound of
    `semigroup.tail_window`, C_M x^{M+2} / (2(M+2)), is largest at M = 1
    for the x this gives, so one window serves every M.
    """
    if t_max is None:
        t_max = semigroup.default_time_grid(op.grid).t_max
    return semigroup.tail_window(op, 3, calderon_constant(1), 1e-4, t_max, count)


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
    ind = np.zeros((grid.n_nodes, 1))
    ind[np.asarray(O, dtype=int)] = 1.0
    return np.flatnonzero(_expanded(ind, gamma, grid))


def _expanded(indicators: np.ndarray, gamma: float, grid: Grid) -> np.ndarray:
    """Density expansion of K sets at once from their (N, K) indicators."""
    if not 0 < gamma < 1:
        raise ValueError("need 0 < gamma < 1")
    return _hl_maximal_block(grid, indicators) > 1.0 - gamma


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
    return _whitney(dist_to_complement(grid, open_set), grid)[0]


def _whitney(dist: np.ndarray, grid: Grid) -> tuple:
    """(cubes, index): the Whitney cubes of the set where ``dist``, the
    distance to its complement, is positive, and per node the index of its
    cube or -1.

    The blocks of m nodes per axis are a reshape of the lattice, for m = n,
    n/2, ..., 1; a block is a cube when it lies in the set, meets the
    comparison and holds no node of a larger cube, so the cubes come out in
    the order (-nnodes, anchor)."""
    n, d = grid.sizes[0], grid.dim
    axes = tuple(range(1, 2 * d, 2))
    index = np.full(grid.sizes, -1)
    cubes: list[Cube] = []
    m = n
    while m:
        shape, spread = (n // m, m) * d, (n // m, 1) * d
        blocks = index.reshape(shape)  # a view: writes land in index
        least = dist.reshape(shape).min(axis=axes)
        # a block with a node outside the set has least = 0, which fails both tests
        fits = least > 0 if m == 1 else m * grid.spacing <= WHITNEY_C2 * least
        new = fits & (blocks < 0).all(axis=axes)
        labels = len(cubes) - 1 + np.cumsum(new).reshape(new.shape)
        np.copyto(blocks, labels.reshape(spread), where=new.reshape(spread))
        cubes += [Cube(grid, tuple(a), m) for a in (np.argwhere(new) * m).tolist()]
        m //= 2
    return cubes, index.ravel()


# ---------------------------------------------------------------------------
# molecules
# ---------------------------------------------------------------------------


def molecule_bound(i, grid: Grid, p: float, eps: float, cube: Cube):
    """Annular decay bound 2^{-i(n - n/p + eps)} |Q|^{1/p - 1}, for one
    annulus index i or an array of them."""
    n = grid.dim
    return 2.0 ** (-i * (n - n / p + eps)) * cube.volume ** (1.0 / p - 1.0)


@dataclass(frozen=True, eq=False)
class MoleculeReport:
    max_ratio: float  # largest annular L^p norm over its bound; NaN if any is
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
    """Annular decay table for the field and its negative powers: the L^p
    norm over each nonempty annulus against its bound."""
    grid = op.grid
    labels = cube.annulus_labels()
    present = np.flatnonzero(np.bincount(labels))
    bounds = molecule_bound(present, grid, p, eps, cube)
    ell2 = cube.sidelength**2
    g = values
    ratios = []
    for k in range(M + 1):
        if k > 0:
            g = semigroup.neg_power_apply(op, 1, ScalarField(g, grid)).values / ell2
        a = np.abs(g)
        if math.isinf(p):
            norms = np.zeros(present[-1] + 1)
            np.maximum.at(norms, labels, a)
        else:
            # lp_norm's rounding, one annulus per bin
            norms = np.bincount(labels, a**p) ** (1.0 / p) * grid.cell_volume ** (1.0 / p)
        ratios.append(norms[present] / bounds)
    ratios = np.concatenate(ratios)
    return MoleculeReport(float(np.max(ratios)), bool((ratios <= 1.0 + 1e-9).all()))


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
    if np.abs(v[cube.annulus_labels() > 0]).max(initial=0.0) > 0:
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
    """The tent stage: (mean-zero f, heat profile u, S_h f, labels, tents).
    Tent i is (level, cube index, weight C_M 2^k |Q|, cube); labels, shaped
    like u, holds the tent of each (node, time), or -1 outside every tent."""
    grid = op.grid
    _require_dyadic(grid)
    try:
        v = semigroup.mean_zero(op, f.values)
    except semigroup.KernelComponentError as exc:
        raise DegenerateFieldError(str(exc)) from exc
    u = semigroup.heat_profile(op, ScalarField(v, grid), times, K=1)
    s_h = cone_integrate(SpaceTimeField(u, grid, times), ConeSpec(1.0))
    labels = np.full(u.shape, -1)
    s = s_h.values.real
    smax = float(s.max())
    if smax == 0.0:
        if lp_norm(v, grid, 2) > 0:
            raise DegenerateFieldError(
                "square function vanishes identically on a nonzero field"
            )
        return v, u, s_h, labels, []
    kmin = math.floor(math.log2(float(s[s > 0].min())))
    kmax = math.ceil(math.log2(smax))
    c_m = calderon_constant(M)

    # Level k keeps each Whitney cube's column inside the tent over O*_k
    # (dist to its complement >= t) and outside the tent over O*_{k+1}.  The
    # maximal function is monotone in the set, so the expanded sets and their
    # tents are nested and these bands are disjoint: each (node, time) lies
    # in at most one tent.  A band lies inside O*_k, since t > 0.
    levels = range(kmin, kmax + 2)
    expanded = _expanded((s[:, None] > 2.0 ** np.array(levels)).astype(float), gamma, grid)
    dist = [dist_to_complement(grid, np.flatnonzero(o)) for o in expanded.T]
    tent_over = [d[:, None] >= times.samples for d in dist]
    tents = []
    for i, k in enumerate(levels[:-1]):
        cubes, index = _whitney(dist[i], grid)
        node, jt = np.nonzero(tent_over[i] & ~tent_over[i + 1])
        hit = np.zeros(len(cubes), dtype=bool)
        hit[index[node]] = True
        labels[node, jt] = len(tents) - 1 + np.cumsum(hit)[index[node]]
        tents += [(k, j, c_m * 2.0**k * cubes[j].volume, cubes[j]) for j in np.flatnonzero(hit).tolist()]
    return v, u, s_h, labels, tents


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
    v, u, s_h, labels, tents = _tents(f, op, M, gamma, times)
    c_m = calderon_constant(M)
    calc = semigroup.calculus(op)
    ts = times.samples
    wlog = times.log_weights

    # integrate (t^2 L e^{-t^2 L})^{M+1} over each truncated tent, batched in
    # t; with u = (M+1) t^2 the integrand is (uL)^{M+1} e^{-uL} / (M+1)^{M+1},
    # on one column of u per tent that holds a node at t, in tent order
    raw = np.zeros((grid.n_nodes, len(tents)), dtype=complex)
    for jt, t in enumerate(ts):
        held = np.nonzero(labels[:, jt] >= 0)[0]
        if not held.size:
            continue
        active, col = np.unique(labels[held, jt], return_inverse=True)
        cols = np.zeros((grid.n_nodes, active.size), dtype=complex)
        cols[held, col] = u[held, jt]
        out = calc.heat_poly(M + 1, (M + 1) * float(t * t), cols) / (M + 1) ** (M + 1)
        raw[:, active] += wlog[jt] * out

    recon = np.zeros(grid.n_nodes, dtype=complex)
    terms = []
    for (k, j, weight, cube), integral in zip(tents, raw.T):
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
    _, _, s_h, _, tents = _tents(f, op, M, gamma, times)
    weight_sum = float(sum(weight for _, _, weight, _ in tents))
    l1 = lp_norm(f.values, op.grid, 1)
    return H1Estimate(weight_sum, l1, weight_sum + l1, lp_norm(s_h.values, op.grid, 1))
