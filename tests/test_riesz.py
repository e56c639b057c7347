"""The Riesz transform grad L^{-1/2} and its experiments."""

import numpy as np
import pytest

from hardy_lab import (
    Grid,
    ScalarField,
    VectorField,
    assemble_operator,
    inv_sqrt_apply,
    lp_norm,
    random_elliptic_coefficients,
    riesz_apply,
    riesz_h1_experiment,
    sqrt_apply,
)
from hardy_lab.grid import DIRICHLET, PERIODIC
from hardy_lab.oracle_suite import _inv_sqrt_by_sqrtm
from hardy_lab.riesz import commutator_slope, gaffney_commutator_check
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
    with pytest.raises(ValueError):
        gaffney_commutator_check(
            op1d, "g_h", 1, 1e-3, np.arange(0, 6), np.arange(5, 10)
        )


def test_commutator_slope_near_order(op1d):
    E = np.arange(0, 6)
    F = np.arange(28, 36)
    from hardy_lab.semigroup import set_distance

    d = set_distance(op1d.grid, E, F)
    ts = np.geomspace(1e-4 * d * d, 1e-2 * d * d, 5)
    slope = commutator_slope(op1d, "g_h", 1, E, F, ts)
    assert slope >= 0.8
