"""Square functions, non-tangential maximal functions, cone integrals."""

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
from hardy_lab import semigroup
from hardy_lab.oracle_suite import _brute_hl, _brute_nontangential, _brute_square

TIMES = TimeGrid(1.0 / 256, 2.0, 16)


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
