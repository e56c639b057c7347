"""The on-disk eigenbasis cache behind DenseCalculus.

conftest points XDG_CACHE_HOME at a fresh directory for every test; the
`eigenbasis_cache` fixture is the hardy-lab directory inside it.
"""

import os

import numpy as np
import pytest

from hardy_lab import Grid, assemble_operator, random_elliptic_coefficients, semigroup
from hardy_lab.grid import DIRICHLET


def random_op(grid, seed=1):
    return assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=seed))


def entry(cache, calc):
    return cache / f"{calc.cache_key}.eig"


def read_entry(path):
    with open(path, "rb") as fh:
        return [np.load(fh) for _ in range(3)]


def write_entry(path, arrays):
    with open(path, "wb") as fh:
        for arr in arrays:
            np.save(fh, arr)


def assert_same_basis(a, b):
    for name in ("w", "v", "vinv", "kernel_mask"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_hit_serves_the_built_basis_exactly(eigenbasis_cache, grid2d, field2d):
    op = random_op(grid2d)
    built = semigroup.DenseCalculus(op)
    loaded = semigroup.DenseCalculus(op)
    assert (built.source, loaded.source) == ("built", "cache")
    assert_same_basis(built, loaded)
    assert loaded.reconstruction_error == built.reconstruction_error < 1e-10
    ts = semigroup.default_time_grid(grid2d).samples
    v = field2d.values
    assert np.array_equal(built.heat_profile(ts, v, 1), loaded.heat_profile(ts, v, 1))
    # the entry holds the unpinned eigenvalues, as eig returned them
    w, v_stored, vinv = read_entry(entry(eigenbasis_cache, built))
    assert np.array_equal(v_stored, built.v) and np.array_equal(vinv, built.vinv)
    assert np.count_nonzero(w == 0) < np.count_nonzero(built.w == 0)


@pytest.mark.parametrize(
    "damage",
    [
        lambda path, n: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
        lambda path, n: path.write_bytes(np.random.default_rng(0).bytes(4096)),
        lambda path, n: write_entry(
            path, [np.ones(n - 1, complex), np.eye(n - 1, dtype=complex), np.eye(n - 1, dtype=complex)]
        ),
        lambda path, n: write_entry(path, [np.ones(n), np.eye(n), np.eye(n)]),
        lambda path, n: path.write_bytes(b""),
        # well formed, but t0 = 1 puts the certificate's e^{t0 ||L||} far past overflow
        lambda path, n: write_entry(path, [np.zeros(n, complex), np.eye(n, dtype=complex), np.eye(n, dtype=complex)]),
    ],
    ids=["truncated", "garbage", "wrong-shape", "wrong-dtype", "empty", "zero-eigenvalues"],
)
def test_bad_entry_is_rebuilt_and_replaced(eigenbasis_cache, grid1d, damage):
    op = random_op(grid1d)
    ref = semigroup.DenseCalculus(op)
    path = entry(eigenbasis_cache, ref)
    good = path.read_bytes()
    damage(path, op.n)
    calc = semigroup.DenseCalculus(op)
    assert calc.source == "built"
    assert_same_basis(calc, ref)
    assert path.read_bytes() == good
    assert semigroup.DenseCalculus(op).source == "cache"


def test_entry_failing_the_check_is_not_used(eigenbasis_cache, grid1d):
    op = random_op(grid1d)
    ref = semigroup.DenseCalculus(op)
    path = entry(eigenbasis_cache, ref)
    good = path.read_bytes()
    w, v, vinv = read_entry(path)
    noise = np.random.default_rng(0).normal(size=v.shape)
    write_entry(path, [w, v + 1e-6 * noise, vinv])
    assert not semigroup._reconstruction_error(op, w, v + 1e-6 * noise, vinv) < 1e-10
    calc = semigroup.DenseCalculus(op)
    assert calc.source == "built"
    assert_same_basis(calc, ref)
    assert path.read_bytes() == good


@pytest.mark.parametrize("blocker", ["read-only-dir", "file-in-the-way"])
def test_unwritable_cache_still_gives_a_calculus(eigenbasis_cache, grid1d, field1d, blocker):
    op = random_op(grid1d)
    eigenbasis_cache.parent.mkdir(parents=True)
    if blocker == "read-only-dir":
        eigenbasis_cache.mkdir()
        eigenbasis_cache.chmod(0o555)
    else:
        eigenbasis_cache.write_bytes(b"not a directory")
    try:
        calc = semigroup.DenseCalculus(op)
        again = semigroup.DenseCalculus(op)
        writable = os.access(eigenbasis_cache, os.W_OK)
    finally:
        if blocker == "read-only-dir":
            eigenbasis_cache.chmod(0o755)
    assert calc.source == "built"
    assert_same_basis(calc, again)
    ref = semigroup.KrylovCalculus(op).heat(0.05, field1d.values)
    assert np.abs(calc.heat(0.05, field1d.values) - ref).max() <= 1e-8 * np.abs(ref).max()
    if blocker == "file-in-the-way":
        assert eigenbasis_cache.read_bytes() == b"not a directory"
    elif not writable:  # mode bits do not bind every user
        assert again.source == "built" and not any(eigenbasis_cache.iterdir())


def test_eviction_keeps_the_directory_under_the_cap(eigenbasis_cache, monkeypatch, grid1d):
    ops = [random_op(grid1d, seed) for seed in (1, 2, 3)]
    first = semigroup.DenseCalculus(ops[0])
    size = entry(eigenbasis_cache, first).stat().st_size
    monkeypatch.setattr(semigroup, "CACHE_MAX_BYTES", int(2.5 * size))
    stray = eigenbasis_cache / "left-by-a-killed-writer.tmp"
    stray.write_bytes(b"\0" * 100)
    os.utime(stray, (500, 500))
    os.utime(entry(eigenbasis_cache, first), (1000, 1000))
    second = semigroup.DenseCalculus(ops[1])
    os.utime(entry(eigenbasis_cache, second), (2000, 2000))
    # a hit marks the first entry as recently used, so the second goes
    assert semigroup.DenseCalculus(ops[0]).source == "cache"
    third = semigroup.DenseCalculus(ops[2])
    names = {p.name for p in eigenbasis_cache.iterdir()}
    assert names == {entry(eigenbasis_cache, c).name for c in (first, third)}
    assert sum(p.stat().st_size for p in eigenbasis_cache.iterdir()) <= semigroup.CACHE_MAX_BYTES


def test_key_covers_what_the_basis_depends_on(monkeypatch):
    periodic = Grid(2, (8, 8), 1.0 / 8)
    dirichlet = Grid(2, (8, 8), 1.0 / 8, DIRICHLET)
    key = semigroup._cache_key
    base = key(random_op(periodic, 1))
    assert key(random_op(periodic, 1)) == base
    assert key(random_op(periodic, 2)) != base
    assert key(random_op(dirichlet, 1)) != base
    # eig's roundoff depends on the number of BLAS threads
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    one = key(random_op(periodic, 1))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert key(random_op(periodic, 1)) != one


def test_cache_lives_under_xdg_cache_home(eigenbasis_cache, monkeypatch, tmp_path, grid1d):
    calc = semigroup.DenseCalculus(random_op(grid1d))
    assert [p.name for p in eigenbasis_cache.iterdir()] == [f"{calc.cache_key}.eig"]
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    for unset in ("", "relative/cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", unset)
        assert semigroup._cache_dir() == home / ".cache" / "hardy-lab"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert semigroup._cache_dir() == home / ".cache" / "hardy-lab"
