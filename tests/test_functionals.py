"""Square functions, non-tangential maximal functions, cone integrals."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_lab import (
    ConeSpec,
    ScalarField,
    SpaceTimeField,
    TimeGrid,
    aperture_compare,
    cone_integrate,
    hl_maximal,
    lp_norm,
    nontangential_max,
    square_function,
    vertical_square_function,
)
from hardy_lab import Grid, assemble_operator, random_elliptic_coefficients, semigroup
from hardy_lab.functionals import _hl_maximal_block
from hardy_lab.oracle_suite import _brute_hl, _brute_nontangential, _brute_square

TIMES = TimeGrid(1.0 / 256, 2.0, 16)

# small 2D grids with an odd axis, on a torus and with the Dirichlet truncation
GRIDS_2D = [
    Grid(2, (9, 12), 1.0 / 12),
    Grid(2, (9, 12), 1.0 / 12, "dirichlet"),
    Grid(2, (11, 8), 1.0 / 11),
    Grid(2, (11, 8), 1.0 / 11, "dirichlet"),
]
GRID_IDS = [f"{g.sizes[0]}x{g.sizes[1]}-{g.boundary}" for g in GRIDS_2D]


def time_grids(grid):
    """Samples from below grid scale to beyond the grid, and dense samples
    from t = h, a lattice distance where < and <= pick different nodes, up
    to the longest side, so that balls that reach the far row or column of a
    torus but do not cover it are sampled too."""
    return [TIMES, TimeGrid(grid.spacing, max(grid.side_lengths), 48)]


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes), grid)


def nxn_cone(F, alpha):
    """The cone integral as a masked N x N product per time sample."""
    grid, dist = F.grid, F.grid.distance_matrix()
    out = np.zeros(grid.n_nodes)
    for j, t in enumerate(F.times.samples):
        contrib = (dist < alpha * t) @ (np.abs(F.values[:, j]) ** 2)
        out += (F.times.log_weights[j] * grid.cell_volume / t**grid.dim) * contrib
    return np.sqrt(out)


def nxn_nontangential(prof, grid, radii):
    """The sup over dist < r of closed-ball means, as N x N masked maxima."""
    dist = grid.distance_matrix()
    g2 = np.abs(prof) ** 2
    best = np.zeros(grid.n_nodes)
    for j, r in enumerate(radii):
        mask = dist <= r
        means = (mask @ g2[:, j]) / mask.sum(axis=1)
        best = np.maximum(best, np.where(dist < r, means[None, :], -np.inf).max(axis=1))
    return np.sqrt(best)


def nxn_hl(f):
    """Ball means of |f| at every distance from each node, by a sort per node."""
    dist = f.grid.distance_matrix()
    a = np.abs(f.values)
    out = np.empty(f.grid.n_nodes)
    for x in range(f.grid.n_nodes):
        order = np.argsort(dist[x], kind="stable")
        csum = np.cumsum(a[order])
        last = np.append(np.diff(dist[x][order]) > 0, True)  # a ball ends before a longer distance
        out[x] = (csum[last] / (np.flatnonzero(last) + 1)).max()
    return out


def assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_square_function_annihilates_constants(op1d, grid1d):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    s = square_function(ones, op1d, ConeSpec(1.0), "heat", times=TIMES)
    assert np.abs(s.values).max() < 1e-10


def test_vertical_square_annihilates_constants(op1d_random, grid1d):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    g = vertical_square_function(ones, op1d_random, times=TIMES)
    assert np.abs(g.values).max() < 1e-8


def test_square_matches_brute_force(op1d_random, field1d):
    fast = square_function(field1d, op1d_random, ConeSpec(1.0), "heat", times=TIMES)
    slow = _brute_square(field1d, op1d_random, 1.0, TIMES)
    assert np.abs(fast.values - slow).max() < 1e-9


def test_maximal_matches_brute_force(op1d_random, field1d):
    fast = nontangential_max(field1d, op1d_random, "heat", times=TIMES)
    slow = _brute_nontangential(field1d, op1d_random, TIMES)
    assert np.abs(fast.values - slow).max() < 1e-9


def test_hl_matches_brute_force(field1d):
    fast = hl_maximal(field1d)
    slow = _brute_hl(field1d)
    assert np.abs(fast.values - slow).max() < 1e-9


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("grid", GRIDS_2D, ids=GRID_IDS)
def test_cone_matches_brute_force_2d(grid, alpha):
    rng = np.random.default_rng(grid.n_nodes)
    for times in time_grids(grid):
        F = SpaceTimeField(rng.normal(size=(grid.n_nodes, times.count)), grid, times)
        assert_close(cone_integrate(F, ConeSpec(alpha)).values, nxn_cone(F, alpha))


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("grid", GRIDS_2D, ids=GRID_IDS)
def test_maximal_matches_brute_force_2d(grid, beta):
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))
    f = random_field(grid, seed=2)
    for times in time_grids(grid):
        got = nontangential_max(f, op, "heat", beta, 0, times).values
        prof = semigroup.heat_profile(op, f, times, 0)
        assert_close(got, nxn_nontangential(prof, grid, beta * times.samples))


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("grid", GRIDS_2D, ids=GRID_IDS)
def test_maximal_matches_brute_force_2d_at_every_scale(grid, beta, monkeypatch):
    # A heat image flattens at large t, so its sup is set at small radii.
    # Profiles that vanish at all but one time test each radius on its own.
    times = time_grids(grid)[1]
    rng = np.random.default_rng(grid.n_nodes)
    op = SimpleNamespace(grid=grid)  # the profile below stands in for its heat image
    for j in range(times.count):
        prof = np.zeros((grid.n_nodes, times.count))
        prof[:, j] = rng.normal(size=grid.n_nodes)
        monkeypatch.setattr(semigroup, "heat_profile", lambda *args, **kwargs: prof)
        got = nontangential_max(random_field(grid, seed=2), op, "heat", beta, 0, times).values
        assert_close(got, nxn_nontangential(prof, grid, beta * times.samples))


@pytest.mark.parametrize("grid", GRIDS_2D, ids=GRID_IDS)
def test_hl_matches_brute_force_2d(grid):
    f = random_field(grid, seed=5)
    assert_close(hl_maximal(f).values, nxn_hl(f))


@pytest.mark.parametrize(
    "grid",
    GRIDS_2D + [Grid(2, (16, 16), 1.0 / 16), Grid(1, (37,), 1.0 / 37, "dirichlet")],
    ids=GRID_IDS + ["16x16-periodic", "37-dirichlet"],
)
def test_hl_block_matches_each_column(grid):
    # nested level sets of one field, the last one empty, as the tent stage passes them
    s = np.abs(random_field(grid, seed=6).values)
    indicators = (s[:, None] > np.quantile(s, [0.0, 0.2, 0.5, 0.8, 0.95, 1.0])).astype(float)
    per_column = [hl_maximal(ScalarField(c, grid)).values.real for c in indicators.T]
    assert np.array_equal(_hl_maximal_block(grid, indicators), np.stack(per_column, axis=1))


def test_hl_dominates_pointwise(field1d):
    out = hl_maximal(field1d)
    assert np.all(out.values >= np.abs(field1d.values) - 1e-12)


@settings(max_examples=20, deadline=None)
@given(
    c_re=st.floats(-5, 5, allow_nan=False),
    c_im=st.floats(-5, 5, allow_nan=False),
)
def test_exact_homogeneity(op1d, c_re, c_im):
    c = complex(c_re, c_im)
    rng = np.random.default_rng(11)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    v -= v.mean()
    f = ScalarField(v, op1d.grid)
    cf = ScalarField(c * v, op1d.grid)
    base = square_function(f, op1d, ConeSpec(1.0), "heat", times=TIMES)
    scaled = square_function(cf, op1d, ConeSpec(1.0), "heat", times=TIMES)
    assert np.abs(scaled.values - abs(c) * base.values).max() <= 1e-9 * (
        1.0 + abs(c) * base.values.max()
    )


def test_square_function_sublinear(op1d, grid1d):
    rng = np.random.default_rng(2)
    a = rng.normal(size=64) + 0j
    b = rng.normal(size=64) + 0j
    a -= a.mean()
    b -= b.mean()
    f, g = ScalarField(a, grid1d), ScalarField(b, grid1d)
    fg = ScalarField(a + b, grid1d)
    s_f = square_function(f, op1d, ConeSpec(1.0), "heat", times=TIMES).values
    s_g = square_function(g, op1d, ConeSpec(1.0), "heat", times=TIMES).values
    s_fg = square_function(fg, op1d, ConeSpec(1.0), "heat", times=TIMES).values
    assert np.all(s_fg <= s_f + s_g + 1e-12)


def test_cone_norm_monotone_in_aperture(op1d, field1d):
    prof = semigroup.heat_profile(op1d, field1d, TIMES, K=1)
    F = SpaceTimeField(prof, op1d.grid, TIMES)
    norms = []
    for alpha in (1.0, 1.5, 2.0):
        rep = aperture_compare(F, alpha)
        norms.append(rep.norm_alpha)
        assert rep.ratio >= 1.0 - 1e-12
    assert norms[0] <= norms[1] <= norms[2]


def test_unknown_kind_rejected(op1d, field1d):
    with pytest.raises(ValueError):
        square_function(field1d, op1d, ConeSpec(1.0), "no_such_kind")
    with pytest.raises(ValueError):
        nontangential_max(field1d, op1d, "no_such_kind")


def test_heat_kinds_honour_their_parameters(op1d_random, field1d):
    op = op1d_random
    prof = semigroup.heat_profile(op, field1d, TIMES, K=2)
    expected = cone_integrate(SpaceTimeField(np.abs(prof), op.grid, TIMES), ConeSpec(1.0))
    s2 = square_function(field1d, op, ConeSpec(1.0), "heat", 2, TIMES)
    assert np.array_equal(s2.values, expected.values)
    g1 = vertical_square_function(field1d, op, 1, TIMES).values
    g2 = vertical_square_function(field1d, op, 2, TIMES).values
    assert not np.allclose(g1, g2)
    n1 = nontangential_max(field1d, op, "heat", 1.0, 1, TIMES).values
    n2 = nontangential_max(field1d, op, "heat", 2.0, 1, TIMES).values
    assert not np.allclose(n1, n2)
    with pytest.raises(ValueError):
        square_function(field1d, op, ConeSpec(1.0), "heat", 0, TIMES)


def test_nontangential_max_power_acts_on_the_heat_image(op1d_random, grid1d):
    op = op1d_random
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    n0 = nontangential_max(ones, op, "heat", 1.0, 0, TIMES).values
    assert np.array_equal(nontangential_max(ones, op, times=TIMES).values, n0)
    assert np.abs(n0 - 1.0).max() < 1e-8  # e^{-t^2 L} keeps constants
    n1 = nontangential_max(ones, op, "heat", 1.0, 1, TIMES).values
    assert np.abs(n1).max() < 1e-8  # t^2 L annihilates them
    with pytest.raises(ValueError):
        nontangential_max(ones, op, "poisson", 1.0, 1, TIMES)
    with pytest.raises(ValueError):
        nontangential_max(ones, op, "heat", 1.0, -1, TIMES)


def test_aperture_below_one_rejected(op1d, field1d):
    prof = semigroup.heat_profile(op1d, field1d, TIMES, K=1)
    F = SpaceTimeField(prof, op1d.grid, TIMES)
    with pytest.raises(ValueError):
        aperture_compare(F, 0.5)


def test_poisson_square_function_finite(op1d, field1d):
    s = square_function(
        field1d, op1d, ConeSpec(1.0), "poisson_tderiv", times=TIMES
    )
    assert np.all(np.isfinite(s.values))
    assert lp_norm(s.values, op1d.grid, 1) > 0
