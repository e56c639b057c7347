"""Shared fixtures: the reference grids, operators and fields, and an
isolated eigenbasis cache."""

import numpy as np
import pytest

from hardy_lab import (
    Grid,
    ScalarField,
    assemble_operator,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
)


@pytest.fixture(autouse=True)
def eigenbasis_cache(tmp_path, monkeypatch):
    """A fresh, empty eigenbasis cache root for every test, never $HOME."""
    root = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "hardy-lab"


@pytest.fixture(scope="session")
def grid1d():
    return Grid(1, (64,), 1.0 / 64)


@pytest.fixture(scope="session")
def grid2d():
    return Grid(2, (16, 16), 1.0 / 16)


@pytest.fixture(scope="session")
def op1d(grid1d):
    return assemble_operator(grid1d, identity_coefficients(grid1d))


@pytest.fixture(scope="session")
def op1d_random(grid1d):
    coeff = random_elliptic_coefficients(grid1d, 0.5, 2.0, seed=1)
    return assemble_operator(grid1d, coeff)


@pytest.fixture(scope="session")
def op2d(grid2d):
    return assemble_operator(grid2d, identity_coefficients(grid2d))


def mean_zero_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
    v -= v.mean()
    return ScalarField(v / lp_norm(v, grid, 2), grid)


@pytest.fixture()
def field1d(grid1d):
    return mean_zero_field(grid1d, seed=3)


@pytest.fixture()
def field2d(grid2d):
    return mean_zero_field(grid2d, seed=3)
