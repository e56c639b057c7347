"""Property tests of the assembled operator over random grids and coefficients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardy_lab import Grid, assemble_operator, check_ellipticity, random_elliptic_coefficients
from hardy_lab.grid import DIRICHLET, PERIODIC, CoefficientField, ScalarField
from hardy_lab.decomposition import calderon_constant, reproduction_times
from hardy_lab.semigroup import DenseCalculus, calculus, default_time_grid, tail_window
from hardy_lab.spaces import duality_constant, duality_pair


@st.composite
def operators(draw):
    dim = draw(st.sampled_from((1, 2)))
    sizes = tuple(draw(st.integers(8, 16)) for _ in range(dim))
    boundary = draw(st.sampled_from((PERIODIC, DIRICHLET)))
    grid = Grid(dim, sizes, 1.0 / max(sizes), boundary)
    lam = draw(st.floats(0.1, 1.0))
    Lam = draw(st.floats(lam, 3.0))
    coeff = random_elliptic_coefficients(grid, lam, Lam, draw(st.integers(0, 2**16)))
    return assemble_operator(grid, coeff), coeff


def wide_sector_operator():
    """A 1D periodic operator that `operators()` drew, whose spectrum reaches
    |arg lambda| = 57 degrees: 64 log-t nodes left an M = 3 Calderon
    residual of 1.89e-3 there."""
    grid = Grid(1, (14,), 1.0 / 14, PERIODIC)
    a = np.array([
        1.5823489 + 0.36370315j, 0.73325678 + 0.53601123j, 0.20412627 - 0.25459304j,
        0.14759516 - 0.55187263j, 1.99006243 - 0.28900227j, 2.22012227 - 0.2458353j,
        1.51222023 + 0.3585609j, 1.7963358 - 0.57529017j, 1.36650779 + 0.54860806j,
        2.27172998 - 0.2659636j, 1.99603634 + 0.43806199j, 0.11570778 + 0.2875725j,
        2.09212239 + 0.30600859j, 0.18704164 - 0.45428236j,
    ])
    coeff = CoefficientField(grid, a.reshape(14, 1, 1))
    return assemble_operator(grid, coeff), coeff


def random_fields(op, seed, count):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, op.n)) + 1j * rng.normal(size=(count, op.n))


@settings(max_examples=30, deadline=None)
@given(pair=operators(), seed=st.integers(0, 2**16))
def test_adjoint_identity(pair, seed):
    op, _ = pair
    f, g = random_fields(op, seed, 2)
    calc = calculus(op)
    lhs = np.vdot(g, calc.heat(0.01, f))  # <e^{-sL} f, g>
    rhs = np.vdot(calc.adjoint().heat(0.01, g), f)  # <f, e^{-sL*} g>
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(f) * np.linalg.norm(g)


@settings(max_examples=30, deadline=None)
@given(pair=operators(), seed=st.integers(0, 2**16))
def test_accretivity_with_measured_lambda(pair, seed):
    op, coeff = pair
    (u,) = random_fields(op, seed, 1)
    lam, _ = check_ellipticity(coeff)
    form = np.vdot(u, op.matrix @ u).real  # Re <Lu, u>
    grad_sq = float((np.abs(op.gradient(u)) ** 2).sum())
    assert form >= lam * grad_sq * (1 - 1e-12)


@settings(max_examples=30, deadline=None)
@given(pair=operators(), seed=st.integers(0, 2**16))
@example(pair=wide_sector_operator(), seed=0)
def test_duality_identity(pair, seed):
    op, _ = pair
    f, g = random_fields(op, seed, 2)
    f, g = (ScalarField(v - v.mean(), op.grid) for v in (f, g))
    direct = np.vdot(g.values, f.values) * op.grid.cell_volume  # <f, g>
    for M in (1, 2, 3):
        assert abs(duality_pair(f, g, op, M) - direct) <= 1e-6 * abs(direct)


@settings(max_examples=30, deadline=None)
@given(
    pair=operators(),
    seed=st.integers(0, 2**16),
    s=st.floats(1e-4, 0.1),
    t=st.floats(1e-4, 0.1),
)
def test_semigroup_law(pair, seed, s, t):
    op, _ = pair
    (v,) = random_fields(op, seed, 1)
    calc = calculus(op)
    assert isinstance(calc, DenseCalculus)
    lhs = calc.heat(s, calc.heat(t, v))  # e^{-sL} e^{-tL} v
    assert np.linalg.norm(lhs - calc.heat(s + t, v)) <= 1e-10 * np.linalg.norm(v)


@settings(max_examples=30, deadline=None)
@given(pair=operators())
def test_spectrum_lies_in_ellipticity_sector(pair):
    op, coeff = pair
    lam, Lam = check_ellipticity(coeff)
    w = np.linalg.eigvals(op.matrix.toarray())
    # the kernel eigenvalue of a periodic L is roundoff with a random argument
    w = w[np.abs(w) > 1e-10 * np.abs(w).max()]
    assert np.abs(np.angle(w)).max() <= math.acos(min(lam / Lam, 1.0)) + 1e-10


@settings(max_examples=30, deadline=None)
@given(pair=operators())
def test_spectrum_lies_in_numerical_range_sector(pair):
    op, coeff = pair
    lam, Lam = check_ellipticity(coeff)
    w = np.linalg.eigvals(op.matrix.toarray())
    w = w[np.abs(w) > 1e-10 * np.abs(w).max()]
    assert np.abs(np.angle(w)).max() <= op.sector + 1e-10
    assert op.sector <= math.acos(min(lam / Lam, 1.0)) + 1e-12
    # tan(sector) is the spectral radius of C^{-1} S C^{-H}, A = H + iS, H = C C^H
    a = coeff.matrices
    adj = np.conj(np.swapaxes(a, 1, 2))
    cinv = np.linalg.inv(np.linalg.cholesky(0.5 * (a + adj)))
    skew = cinv @ (-0.5j * (a - adj)) @ np.conj(np.swapaxes(cinv, 1, 2))
    assert abs(op.sector - np.arctan(np.abs(np.linalg.eigvalsh(skew)).max())) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(pair=operators())
def test_pinned_spectrum_is_accretive(pair):
    # DenseCalculus.heat exponentiates -t w with no clamp on growth
    w = DenseCalculus(pair[0]).w
    assert (w.real >= 0).all()


def assert_calderon_reproduces(op, seed):
    (f,) = random_fields(op, seed, 1)
    f -= f.mean()
    calc = calculus(op)
    # the time grid `hardy-lab decompose` integrates on
    base = default_time_grid(op.grid)
    times = reproduction_times(op, base.t_max, base.count)
    for M in (1, 2, 3):
        K = M + 2
        # (t^2 L e^{-t^2 L})^K = (s L)^K e^{-sL} / K^K with s = K t^2
        terms = (
            w * calc.heat_poly(K, K * t * t, f)
            for t, w in zip(times.samples, times.log_weights)
        )
        recon = calderon_constant(M) / K**K * sum(terms)
        # the residual tolerance of `hardy-lab decompose`
        assert np.linalg.norm(recon - f) <= 1e-3 * np.linalg.norm(f)


@settings(max_examples=30, deadline=None)
@given(pair=operators(), seed=st.integers(0, 2**16))
@example(pair=wide_sector_operator(), seed=0)
def test_calderon_reproduction(pair, seed):
    assert_calderon_reproduces(pair[0], seed)


@pytest.mark.parametrize("lam, Lam", [(3.0, 3.0), (1.0, 32.0)])
def test_calderon_reproduction_on_stiff_operators(lam, Lam):
    # a fixed h/16 window misses 1e-3 on both: its cut-off grows with lambda_max
    grid = Grid(2, (16, 16), 1.0 / 16, PERIODIC)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, lam, Lam, 0))
    assert_calderon_reproduces(op, 0)


def operator_16():
    grid = Grid(2, (16, 16), 1.0 / 16, PERIODIC)
    return assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, 1))


@pytest.mark.parametrize(
    "make", [operator_16, lambda: wide_sector_operator()[0]], ids=["16x16", "wide-sector"]
)
def test_windows_integrate_their_symbols_within_the_tail(make):
    # each identity C int_0^inf (t^2 lambda)^K e^{-b t^2 lambda} dt/t = 1,
    # summed on its window, for every nonzero eigenvalue of L: off by at most
    # the window's tail plus roundoff
    op = make()
    w = np.linalg.eigvals(op.matrix.toarray())
    w = w[np.abs(w) > 1e-10 * np.abs(w).max()]
    base = default_time_grid(op.grid)
    calderon = reproduction_times(op, base.t_max, base.count)
    identities = [(calderon, calderon_constant(M), M + 2, M + 2, 1e-4) for M in (1, 2, 3)]
    for M in (1, 2, 3):
        # the window and budget of `duality_pair`
        times = tail_window(op, M + 1, duality_constant(M), 1e-13, 8 * max(op.grid.side_lengths), 128)
        identities.append((times, duality_constant(M), M + 1, 2, 1e-13))
    for times, constant, K, b, tail in identities:
        x = times.samples[:, None] ** 2 * w
        total = constant * (times.log_weights @ (x**K * np.exp(-b * x)))
        assert np.abs(total - 1).max() <= tail + 1e-14
