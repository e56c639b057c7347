"""BMO norms, Carleson measures, tent norms and duality."""

import numpy as np
import pytest

from hardy_lab import (
    Grid,
    ScalarField,
    TimeGrid,
    assemble_operator,
    bmo_norm,
    carleson_functional,
    duality_constant,
    duality_pair,
    dyadic_cubes,
    identity_coefficients,
    john_nirenberg_compare,
    lp_norm,
    random_elliptic_coefficients,
    tent_norms,
)
from hardy_lab import semigroup, spaces
from hardy_lab.decomposition import dist_to_complement
from hardy_lab.functionals import SpaceTimeField
from hardy_lab.grid import DIRICHLET, PERIODIC, restricted_lp_norm
from hardy_lab.spaces import _cube_sup, _level_tables, _tent_mean_sup
from hardy_lab.semigroup import KernelComponentError
from conftest import mean_zero_field


def test_dyadic_cube_family_1d(grid1d):
    cubes = dyadic_cubes(grid1d)
    # all anchors at every scale 2,4,...,64 on a periodic axis
    assert len(cubes) == 64 * 6
    assert {c.nnodes for c in cubes} == {2, 4, 8, 16, 32, 64}


def test_dyadic_cube_family_2d(grid2d):
    cubes = dyadic_cubes(grid2d)
    assert len(cubes) == 64 + 16 + 4 + 1


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("sizes", [(8,), (12,), (64,), (8, 8), (12, 10), (16, 16), (20, 12)])
def test_cube_depth_matches_distance_transform(sizes, boundary):
    # every table row is its family cube's node set and distance transform,
    # wrapping and clipped cubes included
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    rows = [
        (m, nodes[k, :count], depth[k, :count])
        for m, nodes, n_nodes, depth in _level_tables(grid)
        for k, count in enumerate(n_nodes)
    ]
    cubes = dyadic_cubes(grid)
    assert len(rows) == len(cubes)
    for cube, (m, nodes, depth) in zip(cubes, rows):
        assert m == cube.nnodes
        assert np.array_equal(nodes, cube.node_set())
        assert np.array_equal(depth, dist_to_complement(grid, nodes)[nodes])


def _walk_cube_sup(osc, grid, p):
    # the cube-by-cube supremum the level tables replace
    return max(
        restricted_lp_norm(osc[c.sidelength], grid, c.node_set(), p) / c.volume ** (1.0 / p)
        for c in dyadic_cubes(grid)
    )


def _walk_tent_mean_sup(density, grid, times):
    best = 0.0
    for c in dyadic_cubes(grid):
        mask = dist_to_complement(grid, c.node_set())[:, None] >= times.samples[None, :]
        mass = ((mask * density).sum(axis=0) * times.log_weights).sum() * grid.cell_volume
        best = max(best, mass / c.volume)
    return best


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("sizes", [(12,), (256,), (12, 10), (16, 16), (20, 12)])
def test_level_suprema_match_the_cube_walk(monkeypatch, sizes, boundary):
    # small blocks, so levels split into blocks of rows, down to one cube each
    monkeypatch.setattr(spaces, "_TABLE_BLOCK", 64)
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    rng = np.random.default_rng(sum(sizes))
    osc = {
        m * grid.spacing: rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
        for m in {c.nnodes for c in dyadic_cubes(grid)}
    }
    passes, tables = [], spaces._level_tables
    monkeypatch.setattr(spaces, "_level_tables", lambda g: passes.append(g) or tables(g))
    sups = _cube_sup(osc, grid, (1.5, 2.0, 3.0))
    assert len(passes) == 1 and list(sups) == [1.5, 2.0, 3.0]
    for p, sup in sups.items():
        assert sup == _walk_cube_sup(osc, grid, p)
    times = semigroup.default_time_grid(grid)
    density = rng.exponential(size=(grid.n_nodes, times.count))
    want = _walk_tent_mean_sup(density, grid, times)
    assert abs(_tent_mean_sup(density, grid, times) - want) <= 1e-14 * want


def test_nan_oscillation_gives_nan_bmo(grid1d):
    osc = {m * grid1d.spacing: np.ones(grid1d.n_nodes) for m in (2, 4, 8, 16, 32, 64)}
    osc[64 * grid1d.spacing][-1] = np.nan
    assert np.isnan(_cube_sup(osc, grid1d, (2.0,))[2.0])


def test_nan_inside_a_tent_gives_nan_carleson(grid1d):
    times = semigroup.default_time_grid(grid1d)
    density = np.ones((grid1d.n_nodes, times.count))
    density[5, 0] = np.nan
    assert np.isnan(_tent_mean_sup(density, grid1d, times))


def test_bmo_of_constant_vanishes(op1d_random, grid1d):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    rep = bmo_norm(ones, op1d_random, M=1, variant="heat")
    assert rep.norm < 1e-10
    rep = bmo_norm(ones, op1d_random, M=1, variant="resolvent")
    assert rep.norm < 1e-10


def test_carleson_of_constant_vanishes(op1d, grid1d):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    assert carleson_functional(ones, op1d, M=1) < 1e-10


def test_bmo_exact_homogeneity(op1d, field1d):
    c = -2.5 + 1.5j
    base = bmo_norm(field1d, op1d, M=1).norm
    scaled = bmo_norm(
        ScalarField(c * field1d.values, op1d.grid), op1d, M=1
    ).norm
    assert scaled == pytest.approx(abs(c) * base, rel=1e-9)


def test_carleson_quadratic_homogeneity(op1d, field1d):
    c = 3.0
    base = carleson_functional(field1d, op1d, M=1)
    scaled = carleson_functional(ScalarField(c * field1d.values, op1d.grid), op1d, M=1)
    assert scaled == pytest.approx(c * c * base, rel=1e-9)


def test_bmo_p2_matches_heat_variant(op1d, field1d):
    heat = bmo_norm(field1d, op1d, M=1, variant="heat").norm
    p2 = john_nirenberg_compare(field1d, op1d, M=1)[2.0]
    assert p2 == pytest.approx(heat, rel=1e-12)


def test_bmo_rejects_unknown_variant(op1d, field1d):
    with pytest.raises(ValueError):
        bmo_norm(field1d, op1d, variant="no_such")


def test_john_nirenberg_ratios_finite(op1d, field1d):
    norms = john_nirenberg_compare(field1d, op1d, M=1)
    assert set(norms) == {1.5, 2.0, 3.0}
    assert all(np.isfinite(v) and v > 0 for v in norms.values())


def test_duality_constant_normalizes_scalar_profile():
    from scipy.integrate import quad

    for M in (1, 2):
        val, _ = quad(
            lambda u: u ** (M + 1) * np.exp(-2 * u) / u, 0, np.inf
        )
        # substitute u = t^2 mu; the dt/t integral halves the du/u integral
        assert duality_constant(M) * val / 2.0 == pytest.approx(1.0, abs=1e-10)


def test_duality_pair_recovers_inner_product(op1d_random, grid1d):
    f = mean_zero_field(grid1d, seed=21)
    g = mean_zero_field(grid1d, seed=22)
    direct = complex((f.values * np.conj(g.values)).sum() * grid1d.cell_volume)
    got = duality_pair(f, g, op1d_random, M=1)
    assert abs(got - direct) <= 1e-6 * abs(direct)


def test_duality_pair_recovers_inner_product_on_a_stiff_operator(grid2d):
    # rho h^2 = 266 (8 for the identity): the time window must reach below h/256
    op = assemble_operator(grid2d, random_elliptic_coefficients(grid2d, 0.5, 50.0, seed=1))
    f = mean_zero_field(grid2d, seed=21)
    g = mean_zero_field(grid2d, seed=22)
    direct = complex((f.values * np.conj(g.values)).sum() * grid2d.cell_volume)
    got = duality_pair(f, g, op, M=1)
    assert abs(got - direct) <= 1e-6 * abs(direct)


def test_duality_pair_builds_one_eigendecomposition(monkeypatch, grid1d):
    # a fresh operator: L* must come from L's eigenbasis, not a second eig
    op = assemble_operator(grid1d, random_elliptic_coefficients(grid1d, 0.5, 2.0, seed=4))
    builds = []
    init = semigroup.DenseCalculus.__init__
    monkeypatch.setattr(
        semigroup.DenseCalculus, "__init__", lambda self, op: builds.append(init(self, op))
    )
    f, g = mean_zero_field(grid1d, seed=21), mean_zero_field(grid1d, seed=22)
    duality_pair(f, g, op, M=1)
    assert len(builds) == 1


def test_duality_pair_rejects_kernel_component(op1d_random, grid1d):
    f = mean_zero_field(grid1d, seed=21)
    shifted = ScalarField(f.values + 0.1, grid1d)
    with pytest.raises(KernelComponentError):
        duality_pair(shifted, f, op1d_random, M=1)
    with pytest.raises(KernelComponentError):
        duality_pair(f, shifted, op1d_random, M=1)


def test_tent_duality_ratio_small():
    grid = Grid(1, (32,), 1.0 / 32)
    op = assemble_operator(grid, identity_coefficients(grid))
    times = TimeGrid(1.0 / 128, 2.0, 24)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5):
        a = rng.normal(size=(32, 24)) + 1j * rng.normal(size=(32, 24))
        b = rng.normal(size=(32, 24)) + 1j * rng.normal(size=(32, 24))
        F = SpaceTimeField(a, grid, times)
        G = SpaceTimeField(b, grid, times)
        pairing = abs(
            complex(((a * np.conj(b)).sum(axis=0) * grid.cell_volume) @ times.log_weights)
        )
        t1, _ = tent_norms(F)
        _, tinf = tent_norms(G)
        if t1 > 0 and tinf > 0:
            worst = max(worst, pairing / (t1 * tinf))
    assert worst <= 10.0
