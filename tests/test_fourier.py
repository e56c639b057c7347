"""A second transform for the spectral base, for constant coefficients on
a torus, where the DFT diagonalizes L exactly (Davis, Circulant Matrices,
1979).

`FourierCalculus` plugs into `semigroup._Spectral` beside the eigenbasis
`DenseCalculus`, a peer and not a subclass: it supplies its eigenvalues
to the base's constructor, `_apply_vals` and `summary`, and keeps the
base's adjoint, whose symbol conj w on the same modes is that of L^H.
Every symbol method runs unchanged on top of them, so it checks the seam
between the spectral base and its transforms, and it gives
`KrylovCalculus` and the command paths an exact reference at 64x64, past
the size any eigenbasis is built at.
"""

import json

import numpy as np
import pytest

from hardy_lab import CoefficientField, Grid, assemble_operator, cli, semigroup, serialize
from conftest import mean_zero_field
from test_semigroup import PARITY, SQRT_FUNCTIONS


class FourierCalculus(semigroup._Spectral):
    """The calculus of L = -div(A grad), A constant, on a periodic grid.  Its
    eigenvalues are the symbol sum_ab A_ab conj(g_a) g_b, with
    g_b = (e^{i theta_b} - 1)/h, on the DFT modes."""

    def __init__(self, op, A):
        thetas = np.meshgrid(*(2 * np.pi * np.fft.fftfreq(n) for n in op.grid.sizes), indexing="ij")
        g = [(np.exp(1j * th) - 1) / op.grid.spacing for th in thetas]
        d = op.grid.dim
        lam = sum(A[a, b] * np.conj(g[a]) * g[b] for a in range(d) for b in range(d))
        super().__init__(op, lam.ravel())

    def _apply_vals(self, vals, f, rows=slice(None)):
        shape, axes = self.op.grid.sizes, tuple(range(self.op.grid.dim))
        c = np.fft.fftn(f.reshape(shape + f.shape[1:]), axes=axes).reshape(f.shape)
        if vals.ndim < c.ndim:
            vals = vals[:, None]
        elif c.ndim < vals.ndim:
            c = c[:, None]
        prod = vals * c
        return np.fft.ifftn(prod.reshape(shape + prod.shape[1:]), axes=axes).reshape(prod.shape)[rows]

    def summary(self):
        return {"backend": "fourier"}


COMPLEX_A = np.array([[1 + 0.3j, 0.4 - 0.2j], [-0.1 + 0.5j, 1.5 - 0.4j]])
COEFFICIENTS = {"identity": np.eye(2, dtype=complex), "complex": COMPLEX_A}


def constant_operator(n: int, A: np.ndarray):
    grid = Grid(2, (n, n), 1.0 / n)
    return assemble_operator(grid, CoefficientField(grid, np.broadcast_to(A, (grid.n_nodes, 2, 2))))


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.fixture(scope="module", params=sorted(COEFFICIENTS))
def pair16(request):
    A = COEFFICIENTS[request.param]
    op = constant_operator(16, A)
    return op, FourierCalculus(op, A), semigroup.DenseCalculus(op)


def test_symbol_diagonalizes_the_stencil(pair16):
    op, fourier, _ = pair16
    v = mean_zero_field(op.grid, seed=3).values
    block = np.stack([v, v.conj(), np.ones_like(v)], axis=1)
    assert relative_error(fourier._apply_vals(fourier.w, block), op.apply(block)) <= 1e-12


@pytest.mark.parametrize("method", sorted(PARITY) + sorted(SQRT_FUNCTIONS))
@pytest.mark.parametrize("adjoint", [False, True], ids=["L", "adjoint"])
def test_fourier_matches_the_eigenbasis(pair16, method, adjoint):
    op, fourier, dense = pair16
    if adjoint:
        fourier, dense = fourier.adjoint(), dense.adjoint()
    apply = PARITY[method][0] if method in PARITY else SQRT_FUNCTIONS[method]
    v = mean_zero_field(op.grid, seed=3).values
    assert relative_error(apply(fourier, v), apply(dense, v)) <= 1e-12


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_krylov_matches_fourier_past_the_dense_size(name):
    op = constant_operator(64, COEFFICIENTS[name])
    assert op.n > semigroup.AUTO_DENSE_MAX
    fourier, krylov = FourierCalculus(op, COEFFICIENTS[name]), semigroup.KrylovCalculus(op)
    v = mean_zero_field(op.grid, seed=3).values
    calls = [
        lambda c: c.heat(1e-3, v),
        lambda c: c.heat(np.array([1e-4, 1e-3, 1e-2]), v),
        lambda c: c.resolvent(0.01, v),
        lambda c: c.neg_power(2, v),
    ]
    for call in calls:
        assert relative_error(call(krylov), call(fourier)) <= 1e-12


def report_numbers(out):
    """Every number in the report bodies of out, by file, in file order."""
    numbers = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            values = [x for row in serialize.read_csv(path)[1] for x in row if _is_number(x)]
        elif path.suffix == ".json" and path.name != "run_metadata.json":
            values = list(_leaves(json.loads(path.read_text())))
        elif path.suffix == ".npy":
            values = np.load(path).ravel()
        else:
            continue
        numbers[path.name] = np.asarray(values, dtype=complex)
    return numbers


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _leaves(obj):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key])
    elif isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def write_constant_config(tmp_path, n, A):
    path = tmp_path / "A.npy"
    np.save(path, np.broadcast_to(A, (n * n, 2, 2)).copy())
    cfg = {
        "grid": {"sizes": [n, n]},
        "coefficients": {"kind": "file", "path": str(path)},
        "corpus": {"count": 2, "seed": 0},
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return tmp_path / "config.json"


def run_through_fourier(monkeypatch, command, cfg, out, A):
    monkeypatch.setattr(semigroup, "_choose_calculus", lambda op: FourierCalculus(op, A))
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "run_metadata.json").read_text())["calculus"] == {"backend": "fourier"}


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("command", ["bmo", "carleson", "riesz", "decompose"])
def test_commands_through_fourier_match_the_eigenbasis(tmp_path, monkeypatch, command, name):
    A = COEFFICIENTS[name]
    cfg = write_constant_config(tmp_path, 16, A)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "dense")]) == cli.EXIT_OK
    run_through_fourier(monkeypatch, command, cfg, tmp_path / "fourier", A)
    dense, fourier = report_numbers(tmp_path / "dense"), report_numbers(tmp_path / "fourier")
    assert dense and sorted(dense) == sorted(fourier)
    for body, want in dense.items():
        np.testing.assert_allclose(fourier[body], want, rtol=1e-8, atol=1e-12, err_msg=body)


@pytest.mark.parametrize("command", ["bmo", "carleson", "riesz"])
def test_commands_run_through_fourier_at_64(tmp_path, monkeypatch, command):
    # past AUTO_DENSE_MAX, where no eigenbasis is built
    cfg = write_constant_config(tmp_path, 64, COMPLEX_A)
    run_through_fourier(monkeypatch, command, cfg, tmp_path / "out", COMPLEX_A)
    numbers = report_numbers(tmp_path / "out")
    assert numbers and all(np.isfinite(v).all() for v in numbers.values())


def test_fourier_is_a_peer_of_the_eigenbasis(tmp_path, monkeypatch):
    assert semigroup.DenseCalculus not in FourierCalculus.__mro__

    def no_eigenbasis(*args):
        raise AssertionError("the FFT transform builds and loads no eigenbasis")

    monkeypatch.setattr(semigroup, "_build_eigenbasis", no_eigenbasis)
    monkeypatch.setattr(semigroup, "_load_eigenbasis", no_eigenbasis)
    cfg = write_constant_config(tmp_path, 16, COMPLEX_A)
    run_through_fourier(monkeypatch, "riesz", cfg, tmp_path / "out", COMPLEX_A)
