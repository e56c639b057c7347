"""Grids, coefficient fields, cubes and the assembled operator."""

import numpy as np
import pytest

from hardy_lab import (
    CoefficientField,
    Cube,
    Grid,
    GridError,
    check_ellipticity,
    full_grid_cube,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
    assemble_operator,
)
from hardy_lab.grid import NonEllipticError, lattice_distances
from hardy_lab.semigroup import calculus


def test_grid_rejects_tiny_axes():
    with pytest.raises(GridError):
        Grid(1, (4,), 0.25)


def test_grid_rejects_mismatched_dim():
    with pytest.raises(GridError):
        Grid(2, (16,), 1.0 / 16)


def test_distance_matrix_periodic_wrap(grid1d):
    d = grid1d.distance_matrix()
    assert d[0, 63] == pytest.approx(grid1d.spacing)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_distance_matrix_dirichlet_no_wrap():
    g = Grid(1, (16,), 1.0 / 16, "dirichlet")
    d = g.distance_matrix()
    assert d[0, 15] == pytest.approx(15.0 / 16)


@pytest.mark.parametrize(
    "grid",
    [
        Grid(1, (37,), 1.0 / 37),
        Grid(1, (37,), 1.0 / 37, "dirichlet"),
        Grid(2, (16, 11), 1.0 / 16),
        Grid(2, (16, 11), 1.0 / 16, "dirichlet"),
    ],
    ids=lambda g: f"{g.dim}d-{g.boundary}",
)
def test_lattice_distances_match_distance_matrix(grid):
    rng = np.random.default_rng(grid.n_nodes)
    d = grid.distance_matrix()
    for size_a, size_b in ((1, 1), (5, 17), (30, 3)):
        a = rng.choice(grid.n_nodes, size_a, replace=False)
        b = rng.choice(grid.n_nodes, size_b, replace=False)
        assert np.array_equal(lattice_distances(grid, a, b), d[np.ix_(a, b)])


def test_random_coefficients_are_elliptic(grid1d):
    coeff = random_elliptic_coefficients(grid1d, 0.5, 2.0, seed=1)
    lam, Lam = check_ellipticity(coeff)
    assert lam >= 0.5 - 1e-12
    assert Lam <= 2.0 + 1e-12


def test_non_elliptic_coefficients_rejected(grid1d):
    mats = np.zeros((grid1d.n_nodes, 1, 1), dtype=complex)
    with pytest.raises(NonEllipticError):
        check_ellipticity(CoefficientField(grid1d, mats, 1.0, 1.0))


def test_operator_annihilates_constants(op1d_random):
    ones = np.ones(op1d_random.n)
    assert np.abs(op1d_random.matrix @ ones).max() < 1e-12


def test_adjoint_matches_inner_product(op1d_random, grid1d):
    rng = np.random.default_rng(5)
    f = rng.normal(size=64) + 1j * rng.normal(size=64)
    g = rng.normal(size=64) + 1j * rng.normal(size=64)
    calc = calculus(op1d_random)
    lhs = np.vdot(g, calc.heat(0.01, f))  # <e^{-sL} f, g>
    rhs = np.vdot(calc.adjoint().heat(0.01, g), f)  # <f, e^{-sL*} g>
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_identity_operator_is_laplacian(op1d, grid1d):
    # second difference of a plane wave has symbol (2/h sin(pi k h))^2
    k = 3
    x = grid1d.coords()[:, 0]
    wave = np.exp(2j * np.pi * k * x)
    sym = (2.0 / grid1d.spacing * np.sin(np.pi * k * grid1d.spacing)) ** 2
    assert np.allclose(op1d.matrix @ wave, sym * wave, atol=1e-8 * sym)


def test_lp_norm_scaling(grid1d):
    v = np.ones(grid1d.n_nodes)
    assert lp_norm(v, grid1d, 2) == pytest.approx(1.0)
    assert lp_norm(3 * v, grid1d, 1) == pytest.approx(3.0)


def test_cube_node_set_wraps(grid1d):
    c = Cube(grid1d, (62,), 4)
    assert sorted(c.node_set(0)) == [0, 1, 62, 63]


def test_cube_dilation_and_annuli(grid1d):
    c = Cube(grid1d, (30,), 4)
    inner = set(c.node_set(0))
    first = set(c.node_set(1))
    assert inner < first
    ann = set(c.annuli()[1])
    assert ann == first - inner
    assert not ann & inner


def test_full_grid_cube_covers_everything(grid2d):
    c = full_grid_cube(grid2d)
    assert c.node_set(0).size == grid2d.n_nodes


def test_cube_volume(grid2d):
    c = Cube(grid2d, (0, 0), 4)
    assert c.volume == pytest.approx((4.0 / 16) ** 2)


def test_operator_2d_assembly(op2d, grid2d):
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid2d.n_nodes)
    out = op2d.matrix @ f
    assert out.shape == (grid2d.n_nodes,)
    assert abs(out.mean()) < 1e-12 * np.abs(out).max()
