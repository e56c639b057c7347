"""The Riesz transform grad L^{-1/2} and its experiments."""

import numpy as np
import pytest

from hardy_lab import (
    Grid,
    ScalarField,
    VectorField,
    assemble_operator,
    heat_apply,
    identity_coefficients,
    inv_sqrt_apply,
    lp_norm,
    random_elliptic_coefficients,
    restricted_lp_norm,
    riesz_apply,
    riesz_h1_experiment,
    semigroup,
    sqrt_apply,
    vertical_square_function,
)
from hardy_lab.grid import DIRICHLET, PERIODIC, set_distance
from hardy_lab.oracle_suite import _inv_sqrt_by_sqrtm
from hardy_lab.riesz import _decay_norms, commutator_slope, commutator_window
from hardy_lab.semigroup import KernelComponentError
from conftest import mean_zero_field


def test_inv_sqrt_inverts_sqrt(op1d_random, field1d):
    half = inv_sqrt_apply(op1d_random, field1d)
    back = sqrt_apply(op1d_random, half)
    assert np.abs(back.values - field1d.values).max() <= 1e-6


def test_inv_sqrt_linearity(op1d, grid1d):
    f = mean_zero_field(grid1d, seed=31)
    g = mean_zero_field(grid1d, seed=32)
    c = 2.0 - 1.0j
    combo = ScalarField(c * f.values + g.values, grid1d)
    lhs = inv_sqrt_apply(op1d, combo).values
    rhs = c * inv_sqrt_apply(op1d, f).values + inv_sqrt_apply(op1d, g).values
    assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()


@pytest.mark.parametrize(
    "sizes, boundary",
    [((64,), PERIODIC), ((16, 16), PERIODIC), ((12, 12), DIRICHLET)],
)
def test_inv_sqrt_matches_dense_square_root(sizes, boundary):
    # the eigenbasis symbol against a Schur square root, which forms no eigenbasis
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))
    f = mean_zero_field(grid, seed=5)
    ref = _inv_sqrt_by_sqrtm(op, f.values)
    got = inv_sqrt_apply(op, f).values
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_riesz_rejects_kernel_component(op1d, grid1d):
    with pytest.raises(KernelComponentError):
        inv_sqrt_apply(op1d, ScalarField(np.ones(64, dtype=complex), grid1d))


def test_riesz_apply_returns_vector_field(op1d, field1d):
    out = riesz_apply(op1d, field1d)
    assert isinstance(out, VectorField)
    assert out.magnitude().shape == (64,)
    assert lp_norm(out.magnitude(), op1d.grid, 1) > 0


def test_riesz_h1_empty_corpus(op1d):
    rep = riesz_h1_experiment([], op1d)
    assert rep.per_molecule == []
    assert rep.sup_norm == 0.0


def test_commutator_rejects_touching_sets(op1d):
    with pytest.raises(ValueError, match="disjoint"):
        commutator_slope(
            op1d, "g_h", 1, np.arange(0, 6), np.arange(5, 10), np.array([1e-3, 1e-2])
        )


@pytest.mark.parametrize(
    "sizes, boundary", [((64,), PERIODIC), ((16, 16), PERIODIC), ((12, 12), DIRICHLET)]
)
def test_commutator_window_is_fixed_for_identity(sizes, boundary):
    # the identity coefficients have stiffness exactly 1, so the window is
    # the unscaled 1e-4 to 1e-2 of dist^2
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    op = assemble_operator(grid, identity_coefficients(grid))
    d = 0.3
    want = np.geomspace(1e-4 * d * d, 1e-2 * d * d, 6)
    np.testing.assert_allclose(commutator_window(op, d), want, rtol=1e-12, atol=0)


def test_commutator_slope_near_order(op1d):
    E = np.arange(0, 6)
    F = np.arange(28, 36)
    d = set_distance(op1d.grid, E, F)
    ts = np.geomspace(1e-4 * d * d, 1e-2 * d * d, 5)
    slope = commutator_slope(op1d, "g_h", 1, E, F, ts)
    assert slope >= 0.8


@pytest.mark.parametrize(
    "sizes, boundary, coefficients, backend",
    [
        ((16, 16), PERIODIC, (0.5, 2.0), "DenseCalculus"),
        ((12, 12), DIRICHLET, (0.5, 2.0), "DenseCalculus"),
        # weak coefficients keep the Krylov actions over the default time
        # grid, up to t^2 = 16 sides^2, to a few steps each
        ((16,), PERIODIC, (0.005, 0.02), "KrylovCalculus"),
    ],
)
def test_g_h_decay_is_vertical_square_function_on_F(
    monkeypatch, sizes, boundary, coefficients, backend
):
    if backend == "KrylovCalculus":
        monkeypatch.setattr(semigroup, "AUTO_DENSE_MAX", 0)
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, *coefficients, seed=1))
    assert type(semigroup.calculus(op)).__name__ == backend
    E, F = np.arange(0, 2), np.arange(sizes[0] // 2 - 1, sizes[0] // 2 + 1)
    ts = commutator_window(op, set_distance(grid, E, F))
    if backend == "KrylovCalculus":
        ts = ts[[0, -1]]
    ind = np.zeros(grid.n_nodes, dtype=complex)
    ind[E] = 1.0
    ind /= lp_norm(ind, grid, 2)
    for M in (1, 2):
        want = []
        for t in ts:
            v = ScalarField(ind, grid)
            for _ in range(M):
                v = ScalarField(v.values - heat_apply(op, t, v).values, grid)
            want.append(restricted_lp_norm(vertical_square_function(v, op).values, grid, F))
        _, got = _decay_norms(op, "g_h", E, F, ts, M)
        # the full profile's stencil pass leaves roundoff of the size of the
        # whole field, 1.2e-12 of the small norms on F measured at M = 2 on
        # the periodic 16 x 16 operator
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


def test_g_h_slope_makes_no_full_space_time_profile():
    import tracemalloc

    grid = Grid(2, (32, 32), 1.0 / 32)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=4))
    semigroup.calculus(op)  # build the eigenbasis outside the trace
    E, F = np.arange(0, 3), np.arange(14, 18)
    ts = commutator_window(op, set_distance(grid, E, F))
    block = 16 * grid.n_nodes * 64
    tracemalloc.start()
    try:
        commutator_slope(op, "g_h", 2, E, F, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the symbol table and one column's product (2.35 blocks measured); the
    # full profile and its stencil power took 3.4, an (N, 6, 64) product 6
    assert peak <= 3 * block
