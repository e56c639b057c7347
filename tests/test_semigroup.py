"""Functional calculus: heat, resolvent, Poisson, fractional powers."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from hardy_lab import (
    CoefficientField,
    Grid,
    ScalarField,
    TimeGrid,
    assemble_operator,
    gaffney_profile,
    heat_apply,
    heat_profile,
    identity_coefficients,
    lp_norm,
    neg_power_apply,
    poisson_apply,
    random_elliptic_coefficients,
    resolvent_apply,
    sqrt_apply,
)
from hardy_lab import semigroup
from hardy_lab.grid import DIRICHLET, PERIODIC
from hardy_lab.semigroup import ConvergenceError, KernelComponentError
from conftest import mean_zero_field


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.5, 8)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 8)


def test_time_grid_log_weights_integrate_dt_over_t():
    tg = TimeGrid(1e-3, 1.0, 200)
    # int dt/t over the window is log(t_max/t_min)
    assert tg.log_weights.sum() == pytest.approx(np.log(1e3), rel=1e-4)


@pytest.mark.parametrize("t", [1e-4, 1e-2, 0.3])
def test_heat_conserves_constants(op1d_random, grid1d, t):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    out = heat_apply(op1d_random, t, ones)
    assert np.abs(out.values - 1.0).max() < 1e-8


def test_resolvent_conserves_constants(op1d_random, grid1d):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    out = resolvent_apply(op1d_random, 0.1, ones)
    assert np.abs(out.values - 1.0).max() < 1e-8


def test_poisson_conserves_constants(op1d, grid1d):
    ones = ScalarField(np.ones(64, dtype=complex), grid1d)
    out = poisson_apply(op1d, 0.3, ones)
    assert np.abs(out.values - 1.0).max() < 1e-8


def test_heat_semigroup_property(op1d_random, field1d):
    one_step = heat_apply(op1d_random, 0.03, field1d)
    two_step = heat_apply(op1d_random, 0.02, heat_apply(op1d_random, 0.01, field1d))
    assert np.abs(one_step.values - two_step.values).max() < 1e-10


@pytest.fixture(scope="module", params=["1d", "2d"])
def random_op(request, grid1d, grid2d):
    grid = grid1d if request.param == "1d" else grid2d
    return assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))


# each calculus method at the oracle suite's tolerance for its kind of quantity:
# 1e-8 for functions of L, 1e-10 for direct solves
PARITY = {
    "heat": (lambda c, v: c.heat(0.05, v), 1e-8),
    "heat_block": (lambda c, v: c.heat(0.05, np.stack([v, v.conj()], axis=1)), 1e-8),
    "heat_batch": (lambda c, v: c.heat_batch(np.array([1e-4, 1e-2, 0.1]), v), 1e-8),
    "heat_poly": (lambda c, v: c.heat_poly(2, 0.01, v), 1e-8),
    "heat_profile": (lambda c, v: c.heat_profile(np.array([0.01, 0.1, 0.3]), v, 1), 1e-8),
    # a two-column block at a scattered row set
    "heat_profile_rows": (
        lambda c, v: c.heat_profile(
            np.array([0.01, 0.1, 0.3]), np.stack([v, v.conj()], axis=1), 2, [37, 2, 50, 11]
        ),
        1e-8,
    ),
    "resolvent": (lambda c, v: c.resolvent(0.01, v), 1e-10),
    "neg_power": (lambda c, v: c.neg_power(2, v), 1e-10),
}
# functions of sqrt(L), served by the eigenbasis alone
SQRT_FUNCTIONS = {
    "poisson": lambda c, v: c.poisson(0.3, v),
    "sqrt": lambda c, v: c.sqrt(v),
    "inv_sqrt": lambda c, v: c.inv_sqrt(v),
}


@pytest.mark.parametrize("method", sorted(PARITY))
def test_heat_krylov_matches_dense(random_op, method):
    v = mean_zero_field(random_op.grid, seed=3).values
    apply, tol = PARITY[method]
    dense = apply(semigroup.DenseCalculus(random_op), v)
    krylov = apply(semigroup.KrylovCalculus(random_op), v)
    assert np.abs(krylov - dense).max() <= tol * np.abs(dense).max()


@pytest.mark.parametrize(
    "method, backend",
    [(m, b) for m in sorted(PARITY) for b in ("DenseCalculus", "KrylovCalculus")]
    + [(m, "DenseCalculus") for m in sorted(SQRT_FUNCTIONS)],
)
def test_adjoint_matches_calculus_of_conjugate_transpose(random_op, backend, method):
    v = mean_zero_field(random_op.grid, seed=3).values
    apply = PARITY[method][0] if method in PARITY else SQRT_FUNCTIONS[method]
    calc = getattr(semigroup, backend)(random_op)
    # factorize L first: the adjoint must not reuse these LU factors
    calc.resolvent(0.01, v)
    calc.neg_power(2, v)
    # G^H A^H G, A^H the cellwise conjugate transpose, is exactly L^H
    coeff = random_elliptic_coefficients(random_op.grid, 0.5, 2.0, seed=1)
    adjoint_coeff = CoefficientField(random_op.grid, coeff.matrices.conj().transpose(0, 2, 1))
    star = assemble_operator(random_op.grid, adjoint_coeff)
    direct = apply(getattr(semigroup, backend)(star), v)
    assert np.abs(apply(calc.adjoint(), v) - direct).max() <= 1e-10 * np.abs(direct).max()


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_dense_row_profile_is_rows_of_full_profile(boundary):
    # the symbol table times V[rows] against heat_batch and stencil powers
    grid = Grid(2, (12, 12), 1.0 / 12, boundary)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))
    calc = semigroup.DenseCalculus(op)
    block = np.stack([mean_zero_field(grid, seed=s).values for s in (3, 4)], axis=1)
    ts = semigroup.default_time_grid(grid).samples
    rows = np.array([100, 7, 64, 13])
    # two stencil passes on the full route multiply the roundoff of its
    # e^{-t^2 L} columns by up to (t^2 rho)^2, which the row route's one
    # symbol does not: 1e-11 apart at k = 2 on the Dirichlet grid
    for k, tol in ((0, 1e-12), (1, 1e-12), (2, 1e-10)):
        full = calc.heat_profile(ts, block, k)
        got = calc.heat_profile(ts, block, k, rows)
        assert got.shape == (4, 2, ts.size)
        assert np.abs(got - full[rows]).max() <= tol * np.abs(full[rows]).max()
        assert np.array_equal(calc.heat_profile(ts, block[:, 1], k, rows), got[:, 1])


def test_failed_eigenbasis_check_selects_krylov(monkeypatch, grid1d, field1d):
    op = assemble_operator(grid1d, random_elliptic_coefficients(grid1d, 0.5, 2.0, seed=1))
    eig = scipy.linalg.eig
    noise = np.random.default_rng(0).normal(size=(op.n, op.n))

    def perturbed_eig(a):
        w, v = eig(a)
        return w, v + 1e-6 * noise

    monkeypatch.setattr(semigroup.scipy.linalg, "eig", perturbed_eig)
    with pytest.raises(ConvergenceError):
        semigroup.DenseCalculus(op)
    assert type(semigroup.calculus(op)) is semigroup.KrylovCalculus
    ref = scipy.linalg.expm(-0.05 * op.matrix.toarray()) @ field1d.values
    got = heat_apply(op, 0.05, field1d).values
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()


def eigenbasis(op):
    w, v = scipy.linalg.eig(op.matrix.toarray())
    return w, v, scipy.linalg.inv(v)


def dense_reconstruction_error(op, w, v, vinv):
    """The quantity the eigenbasis check bounds, written with N x N arrays:
    V e^{-t0 w} V^{-1} against the dense expm of L."""
    t0 = 1.0 / (np.abs(w).max() + 1.0)
    ref = scipy.linalg.expm(-t0 * op.matrix.toarray())
    rec = (v * np.exp(-t0 * w)) @ vinv
    return np.linalg.norm(rec - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize(
    "grid, Lam",
    [
        (Grid(1, (64,), 1.0 / 64), 2.0),
        (Grid(2, (16, 16), 1.0 / 16), 2.0),
        (Grid(2, (12, 12), 1.0 / 13, DIRICHLET), 2.0),
        (Grid(2, (10, 10), 1.0 / 10), 2.0),
        (Grid(2, (16, 16), 1.0 / 16), 50.0),
    ],
    ids=["1d-64", "2d-16x16", "2d-12x12-dirichlet", "2d-10x10", "2d-16x16-stiff"],
)
def test_reconstruction_bound_brackets_dense_expm(grid, Lam):
    # 144 and 100 nodes leave a partial last block
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, Lam, seed=1))
    basis = eigenbasis(op)
    exact = dense_reconstruction_error(op, *basis)
    bound = semigroup._reconstruction_error(op, *basis)
    assert exact <= bound < 1e-10
    assert bound <= 1e3 * exact + 1e-14


@pytest.mark.parametrize(
    "grid",
    [Grid(1, (64,), 1.0 / 64), Grid(2, (12, 12), 1.0 / 13, DIRICHLET), Grid(2, (10, 10), 1.0 / 10)],
    ids=["1d-64", "2d-12x12-dirichlet", "2d-10x10"],
)
def test_reconstruction_bound_exceeds_the_error_of_scaled_eigenvalues(grid):
    # w / 4 reconstructs e^{-t0 L / 4}, an O(1) error the bound must not hide
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))
    w, v, vinv = eigenbasis(op)
    exact = dense_reconstruction_error(op, 0.25 * w, v, vinv)
    bound = semigroup._reconstruction_error(op, 0.25 * w, v, vinv)
    assert bound >= exact > 0.1


@pytest.mark.parametrize("part", ["w", "v", "vinv"])
def test_reconstruction_bound_rejects_a_perturbed_factor(grid2d, part):
    # a perturbed w shows in L V - V W, a perturbed V^{-1} in V V^{-1} - I
    op = assemble_operator(grid2d, random_elliptic_coefficients(grid2d, 0.5, 2.0, seed=1))
    basis = dict(zip(("w", "v", "vinv"), eigenbasis(op)))
    noise = np.random.default_rng(0).normal(size=basis[part].shape)
    basis[part] = basis[part] + 1e-6 * noise
    exact = dense_reconstruction_error(op, **basis)
    bound = semigroup._reconstruction_error(op, **basis)
    assert bound >= exact > 1e-10


def test_dense_calculus_keeps_only_its_eigenbasis(grid2d):
    op = assemble_operator(grid2d, random_elliptic_coefficients(grid2d, 0.5, 2.0, seed=1))
    unit = 16 * op.n**2  # bytes of one complex N x N array
    block = 16 * op.n * semigroup._CHECK_BLOCK  # one column block of the check
    # warm caches and imports outside the trace on another operator of the
    # same size, so that the traced build of op misses the eigenbasis cache
    other = assemble_operator(grid2d, random_elliptic_coefficients(grid2d, 0.5, 2.0, seed=2))
    semigroup.DenseCalculus(other)
    semigroup.DenseCalculus(other)
    tracemalloc.start()
    try:
        calc = semigroup.DenseCalculus(op)
        built, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adj = calc.adjoint()
        _, adj_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = semigroup.DenseCalculus(op)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (calc.source, loaded.source) == ("built", "cache")
    # V, V^{-1}, and eig's input copy and workspace; the dense check held ~10.5
    assert peak <= 6 * unit
    assert built <= 2.1 * unit
    # a load holds V, V^{-1} and the check's column blocks (~5.2), no N x N scratch
    assert load_peak <= 2.1 * unit + 6 * block
    # transposed views of V and V^{-1}: no conjugated copies
    assert adj_peak - built <= 0.1 * unit
    assert np.shares_memory(adj.v, calc.vinv) and np.shares_memory(adj.vinv, calc.v)


def test_calculus_cache_releases_dropped_operators(grid1d):
    op = assemble_operator(grid1d, identity_coefficients(grid1d))
    semigroup.calculus(op)
    alive = weakref.ref(op)
    del op
    gc.collect()
    assert alive() is None


def test_resolvent_inverts_operator(op1d_random, grid1d, field1d):
    s = 0.07
    out = resolvent_apply(op1d_random, s, field1d)
    back = out.values + s * s * (op1d_random.matrix @ out.values)
    assert np.abs(back - field1d.values).max() < 1e-10


def test_neg_power_roundtrip(op1d_random, grid1d, field1d):
    inv = neg_power_apply(op1d_random, 2, field1d)
    fwd = op1d_random.matrix @ (op1d_random.matrix @ inv.values)
    assert np.abs(fwd - field1d.values).max() < 1e-8


def test_neg_power_rejects_kernel_component(op1d, grid1d):
    with pytest.raises(KernelComponentError):
        neg_power_apply(op1d, 1, ScalarField(np.ones(64, dtype=complex), grid1d))


def test_neg_power_factorizes_sparse_bordered_matrix(monkeypatch, grid2d):
    op = assemble_operator(grid2d, random_elliptic_coefficients(grid2d, 0.5, 2.0, seed=1))
    seen = []
    splu = semigroup.spla.splu

    def recording_splu(mat, *args, **kwargs):
        seen.append(mat)
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(semigroup.spla, "splu", recording_splu)
    f = mean_zero_field(grid2d, seed=5)
    out = semigroup.KrylovCalculus(op).neg_power(1, f.values)
    assert len(seen) == 1
    # L bordered by the constants: no dense rank-one pin
    assert seen[0].nnz <= op.matrix.nnz + 2 * op.n + 1
    assert np.abs(op.matrix @ out - f.values).max() < 1e-10
    assert abs(out.mean()) < 1e-12 * np.abs(out).max()


@pytest.mark.parametrize("boundary", ["periodic", DIRICHLET])
@pytest.mark.parametrize("sizes", [(64,), (16, 16)], ids=["1d", "2d"])
def test_dense_solves_factorize_nothing(monkeypatch, sizes, boundary):
    grid = Grid(len(sizes), sizes, 1.0 / sizes[0], boundary)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))
    v = mean_zero_field(grid, seed=3).values
    cases = [(m, adj) for m in ("resolvent", "neg_power") for adj in (False, True)]

    def solves(calc):
        return [PARITY[m][0](calc.adjoint() if adj else calc, v) for m, adj in cases]

    expected = solves(semigroup.KrylovCalculus(op))

    def no_splu(*args, **kwargs):
        raise AssertionError("a dense solve factorized")

    monkeypatch.setattr(semigroup.spla, "splu", no_splu)
    dense = semigroup.DenseCalculus(op)
    for (m, _), got, ref in zip(cases, solves(dense), expected):
        assert np.abs(got - ref).max() <= PARITY[m][1] * np.abs(ref).max()
    # one refinement step does not hide a wrong symbol from the residual check
    dense.w = dense.w * 1.001
    with pytest.raises(ConvergenceError):
        dense.resolvent(0.01, v)


def test_mean_zero_passes_dirichlet_fields_through():
    grid = Grid(1, (64,), 1.0 / 64, DIRICHLET)
    op = assemble_operator(grid, identity_coefficients(grid))
    v = np.ones(64, dtype=complex)
    assert semigroup.mean_zero(op, v) is v


def test_mean_zero_projects_roundoff_mean(op1d, field1d):
    v = field1d.values + 1e-12
    out = semigroup.mean_zero(op1d, v)
    assert abs(out.mean()) < 1e-16
    assert np.abs(out - field1d.values).max() < 1e-15


def test_mean_zero_rejects_kernel_component(op1d, field1d):
    with pytest.raises(KernelComponentError):
        semigroup.mean_zero(op1d, field1d.values + 1e-6)


def test_poisson_squares_to_heat_of_sqrt(op1d, field1d):
    # e^{-t sqrt(L)} applied twice equals e^{-2t sqrt(L)}
    once = poisson_apply(op1d, 0.1, field1d)
    twice = poisson_apply(op1d, 0.1, once)
    direct = poisson_apply(op1d, 0.2, field1d)
    assert np.abs(twice.values - direct.values).max() < 1e-7


def test_sqrt_squares_to_operator(op1d_random, field1d):
    half = sqrt_apply(op1d_random, field1d)
    again = sqrt_apply(op1d_random, half)
    direct = op1d_random.matrix @ field1d.values
    assert np.abs(again.values - direct).max() < 1e-8


def test_heat_profile_shape_and_decay(op1d, field1d):
    tg = TimeGrid(1e-2, 2.0, 16)
    prof = heat_profile(op1d, field1d, tg, K=1)
    assert prof.shape == (64, 16)
    # (t^2 L) e^{-t^2 L} f vanishes as t -> infinity for mean-zero f
    assert np.abs(prof[:, -1]).max() < 1e-8


def test_gaffney_profile_monotone_small_times(op1d):
    E = np.arange(0, 6)
    F = np.arange(28, 36)
    prof = gaffney_profile(op1d, "heat", E, F, TimeGrid(1.2e-3, 6e-2, 16))
    norms = prof.measured_norms
    assert all(
        norms[i] <= norms[i + 1] * (1 + 1e-12) for i in range(len(norms) - 1)
    )


def test_gaffney_beta_near_one(op1d):
    E = np.arange(0, 6)
    F = np.arange(28, 36)
    prof = gaffney_profile(op1d, "heat", E, F, TimeGrid(8e-3, 1e-1, 16))
    assert 0.8 <= prof.fitted_beta <= 1.2


def test_gaffney_rejects_overlapping_sets(op1d):
    with pytest.raises(ValueError):
        gaffney_profile(
            op1d, "heat", np.arange(0, 6), np.arange(5, 10), TimeGrid(1e-3, 1e-1, 8)
        )


def test_subordination_rule_matches_scalar_exponential():
    nodes, coeffs = semigroup._subordination_rule(128)
    for t in (0.05, 0.5, 2.0):
        for lam in (0.0, 1.0, 500.0, 16384.0):
            approx = float((coeffs * np.exp(-(t * t * lam) / (4.0 * nodes))).sum())
            assert approx == pytest.approx(np.exp(-t * np.sqrt(lam)), abs=1e-8)


@pytest.mark.parametrize("method", sorted(SQRT_FUNCTIONS))
def test_krylov_poisson_raises_at_once(op1d_random, field1d, method):
    # the Poisson rule's heat times (~1e16 t^2) are out of Krylov reach, and
    # a Krylov route has no z^{+-1/2} for L^{1/2} and L^{-1/2}
    with pytest.raises(ConvergenceError, match="eigenbasis"):
        SQRT_FUNCTIONS[method](semigroup.KrylovCalculus(op1d_random), field1d.values)
