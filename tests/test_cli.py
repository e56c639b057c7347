"""End-to-end command-line driver behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_lab import (
    Grid,
    assemble_operator,
    cli,
    generate_corpus,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
    semigroup,
    serialize,
)
from hardy_lab.decomposition import DegenerateFieldError
from hardy_lab.semigroup import KernelComponentError


def write_config(tmp_path, **extra):
    cfg = {
        "grid": {"sizes": [64]},
        "coefficients": {"kind": "identity"},
        "params": {"M": 1},
        "corpus": {"kind": "standard", "count": 3, "seed": 7},
        "out": str(tmp_path / "reports"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "command",
    ["assemble", "functional", "decompose", "validate", "bmo", "carleson", "equivalence"],
)
def test_commands_exit_zero(tmp_path, command):
    cfg = write_config(tmp_path)
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_OK


def test_riesz_command(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["riesz", "--config", str(cfg)]) == cli.EXIT_OK
    rows = serialize.read_csv(tmp_path / "reports" / "riesz_slopes.csv")[1]
    assert len(rows) == 4


def test_oracle_command_with_filter(tmp_path):
    cfg = write_config(tmp_path)
    code = cli.main(["oracle", "--config", str(cfg), "--filter", "calderon"])
    assert code == cli.EXIT_OK
    obj = json.loads((tmp_path / "reports" / "oracle.json").read_text())
    assert all(r["passed"] for r in obj["results"])


def test_report_merges_tables(tmp_path):
    cfg = write_config(tmp_path)
    cli.main(["equivalence", "--config", str(cfg)])
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    obj = json.loads((tmp_path / "reports" / "report.json").read_text())
    assert "equivalence.csv" in obj["tables"]


def test_missing_config_is_config_error(tmp_path):
    code = cli.main(["assemble", "--config", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_CONFIG


def test_bad_corpus_kind_is_config_error(tmp_path):
    cfg = write_config(tmp_path, corpus={"kind": "no_such", "count": 3, "seed": 7})
    assert cli.main(["assemble", "--config", str(cfg)]) == cli.EXIT_CONFIG


def test_empty_corpus_is_config_error(tmp_path):
    cfg = write_config(tmp_path, corpus={"kind": "standard", "count": 0, "seed": 7})
    assert cli.main(["assemble", "--config", str(cfg)]) == cli.EXIT_CONFIG


def test_unmatched_oracle_filter_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    code = cli.main(["oracle", "--config", str(cfg), "--filter", "no_such_oracle"])
    assert code == cli.EXIT_CONFIG


def assert_one_line_config_error(capsys, code):
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1


def write_coefficients(tmp_path, matrices):
    path = tmp_path / "coefficients.npy"
    np.save(path, matrices)
    return {"kind": "file", "path": str(path)}


def test_file_coefficients_are_measured(tmp_path):
    coeff = random_elliptic_coefficients(Grid(1, (64,), 1.0 / 64), 0.5, 2.0, seed=1)
    cfg = write_config(tmp_path, coefficients=write_coefficients(tmp_path, coeff.matrices))
    assert cli.main(["assemble", "--config", str(cfg)]) == cli.EXIT_OK
    assert np.array_equal(np.load(tmp_path / "reports" / "coefficients.npy"), coeff.matrices)


def test_assembled_coefficients_feed_back_in(tmp_path):
    grid = {"sizes": [16, 16]}
    coeff = {"kind": "random", "lam": 0.5, "Lam": 2.0, "seed": 4}
    cfg = write_config(tmp_path, grid=grid, coefficients=coeff)
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["assemble", "--config", str(cfg), "--out", str(first)]) == cli.EXIT_OK
    coeff = {"kind": "file", "path": str(first / "coefficients.npy")}
    cfg = write_config(tmp_path, grid=grid, coefficients=coeff)
    assert cli.main(["assemble", "--config", str(cfg), "--out", str(second)]) == cli.EXIT_OK
    for name in ("spectrum.csv", "coefficients.npy", "operator.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "name, write",
    [
        ("empty.npy", lambda path: path.write_bytes(b"")),
        (
            "coefficients.json",
            lambda path: path.write_text(
                json.dumps({"shape": [64, 1, 1], "re": [1.0] * 64, "im": [0.0] * 64})
            ),
        ),
        ("short.npy", lambda path: np.save(path, np.ones((32, 1, 1), dtype=complex))),
        ("bundle.npz", lambda path: np.savez(path, matrices=np.ones((64, 1, 1)))),
    ],
    ids=["empty", "old-json", "wrong-shape", "npz"],
)
def test_bad_coefficient_files_are_config_errors(tmp_path, capsys, name, write):
    path = tmp_path / name
    write(path)
    cfg = write_config(tmp_path, coefficients={"kind": "file", "path": str(path)})
    assert_one_line_config_error(capsys, cli.main(["assemble", "--config", str(cfg)]))


def test_assemble_builds_the_coefficient_field_once(tmp_path, monkeypatch):
    calls = []
    build = cli.ExperimentConfig.coefficients
    monkeypatch.setattr(
        cli.ExperimentConfig, "coefficients", lambda cfg: calls.append(cfg) or build(cfg)
    )
    assert cli.main(["assemble", "--config", str(write_config(tmp_path))]) == cli.EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize(
    "grid, boundary",
    [([16, 16], "periodic"), ([64], "dirichlet")],
    ids=["16x16-periodic", "64-dirichlet"],
)
def test_assemble_writes_the_sorted_spectrum(tmp_path, grid, boundary):
    coeff = {"kind": "random", "lam": 0.5, "Lam": 2.0, "seed": 1}
    cfg = write_config(tmp_path, grid={"sizes": grid, "boundary": boundary}, coefficients=coeff)
    assert cli.main(["assemble", "--config", str(cfg)]) == cli.EXIT_OK
    header, rows = serialize.read_csv(tmp_path / "reports" / "spectrum.csv")
    assert header == ["index", "re", "im"]
    got = np.array([float(re) + 1j * float(im) for _, re, im in rows])
    g = Grid(len(grid), tuple(grid), 1.0 / max(grid), boundary)
    op = assemble_operator(g, random_elliptic_coefficients(g, 0.5, 2.0, seed=1))
    w = semigroup.DenseCalculus(op).w
    w = w[np.argsort(w.real, kind="stable")]
    assert got.size == op.n
    assert np.abs(got - w).max() <= 1e-10 * np.abs(w).max()
    # the kernel row is pinned to exactly zero on periodic grids only
    assert (np.count_nonzero(got == 0) == 1) == (boundary == "periodic")


def test_assemble_writes_no_spectrum_past_dense_size(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.semigroup, "AUTO_DENSE_MAX", 63)
    assert cli.main(["assemble", "--config", str(write_config(tmp_path))]) == cli.EXIT_OK
    assert (tmp_path / "reports" / "operator.json").exists()
    assert not (tmp_path / "reports" / "spectrum.csv").exists()


def test_degenerate_file_coefficients_are_config_error(tmp_path, capsys):
    coeff = random_elliptic_coefficients(Grid(1, (64,), 1.0 / 64), 0.5, 2.0, seed=1)
    cfg = write_config(tmp_path, coefficients=write_coefficients(tmp_path, -coeff.matrices))
    assert_one_line_config_error(capsys, cli.main(["assemble", "--config", str(cfg)]))


def test_non_numeric_param_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, params={"M": "x"})
    assert_one_line_config_error(capsys, cli.main(["assemble", "--config", str(cfg)]))


def test_non_dyadic_decompose_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = cli.main(["decompose", "--config", str(cfg), "--grid", "12x12"])
    assert_one_line_config_error(capsys, code)


@pytest.mark.parametrize(
    "command, extra",
    [
        ("assemble", {"coefficients": {"kind": "random", "lam": 3.0, "Lam": 2.0}}),
        ("assemble", {"tolerances": {"residual": "x"}}),
        ("functional", {"params": {"apertures": [0.5]}}),
        ("assemble", {"params": {"apertures": 2}}),
        ("assemble", {"grid": "64"}),
        ("assemble", {"params": [1]}),
        ("assemble", {"coefficients": "identity"}),
        ("validate", {"params": {"M": semigroup.MAX_HEAT_POWER + 1}}),
        ("validate", {"params": {"p": 0}}),
        ("decompose", {"params": {"p": 0.5}}),
        ("validate", {"params": {"eps": 0}}),
        ("assemble", {"coefficients": {"kind": "random", "seed": -1}}),
        ("bmo", {"corpus": {"seed": -3}}),
        ("bmo --seed -2", {}),
        ("riesz --grid 8", {}),
        ("validate --grid 16x12", {}),
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path, **extra)
    code = cli.main(command.split() + ["--config", str(cfg)])
    assert_one_line_config_error(capsys, code)


def test_decompose_reproduces_on_a_stiff_operator(tmp_path):
    # lambda_max ~ 32x the identity's: the time window must reach below h/16
    cfg = write_config(
        tmp_path,
        grid={"sizes": [16, 16]},
        coefficients={"kind": "random", "lam": 1.0, "Lam": 32.0, "seed": 0},
        corpus={"kind": "standard", "count": 3, "seed": 0},
    )
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_OK


def test_cli_import_leaves_optional_scipy_modules_unloaded():
    # scipy.optimize, scipy.ndimage and the oracle suite (with scipy.integrate)
    # load inside the one function that needs each of them
    optional = ("scipy.optimize", "scipy.ndimage", "scipy.integrate", "hardy_lab.oracle_suite")
    code = f"import sys, hardy_lab.cli; print([m for m in {optional!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_non_finite_norm_exits_four(tmp_path, capsys, monkeypatch):
    class NanReport:
        norm = float("nan")

    monkeypatch.setattr(cli.spaces, "bmo_norm", lambda *args, **kwargs: NanReport())
    cfg = write_config(tmp_path, grid={"sizes": [16, 16]}, corpus={"count": 1})
    code = cli.main(["carleson", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NONCONVERGENCE
    assert err.startswith("non-convergence: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_decompose_writes_one_molecule_row_per_term(tmp_path):
    cfg = write_config(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert cli.main(["decompose", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (first / "molecules.npy").read_bytes() == (second / "molecules.npy").read_bytes()
    molecules = np.load(first / "molecules.npy")
    bundles = json.loads((first / "decomposition.json").read_text())["decompositions"]
    grid = Grid(1, (64,), 1.0 / 64)
    fields = generate_corpus(
        assemble_operator(grid, identity_coefficients(grid)), "standard", 3, 7
    )
    assert molecules.dtype == np.complex128
    assert molecules.shape == (sum(len(b["terms"]) for b in bundles), grid.n_nodes)
    row = 0
    for bundle, f in zip(bundles, fields, strict=True):
        assert all("molecule" not in term for term in bundle["terms"])
        weights = np.array([term["weight"] for term in bundle["terms"]])
        recon = weights @ molecules[row : row + weights.size]
        row += weights.size
        rel = lp_norm(f.values - recon, grid, 2) / lp_norm(f.values, grid, 2)
        assert abs(rel - bundle["residual_rel"]) <= 1e-12


def test_failed_assertion_exits_two(tmp_path):
    cfg = write_config(tmp_path, tolerances={"residual": 1e-12})
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_ASSERTION


def test_grid_override(tmp_path):
    cfg = write_config(tmp_path)
    code = cli.main(["assemble", "--config", str(cfg), "--grid", "16x16"])
    assert code == cli.EXIT_OK
    obj = json.loads((tmp_path / "reports" / "operator.json").read_text())
    assert obj["grid"]["sizes"] == [16, 16]


def test_csv_bodies_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["equivalence", "--config", str(cfg), "--out", str(out_a)])
    cli.main(["equivalence", "--config", str(cfg), "--out", str(out_b)])
    for name in ("equivalence.csv", "equivalence_ratios.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_metadata_quarantined(tmp_path):
    cfg = write_config(tmp_path)
    cli.main(["equivalence", "--config", str(cfg)])
    reports = tmp_path / "reports"
    meta = json.loads((reports / "run_metadata.json").read_text())
    assert "unix_time" in meta
    for path in reports.glob("*.csv"):
        assert "unix_time" not in path.read_text()


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-1e12, 1e12, allow_nan=False),
    y=st.floats(-1e12, 1e12, allow_nan=False),
)
def test_csv_float_format_roundtrips(x, y):
    cell = serialize.fmt(complex(x, y))
    got = complex(cell.replace("j", "j"))
    assert got.real == pytest.approx(x, rel=1e-11, abs=1e-300)
    assert got.imag == pytest.approx(y, rel=1e-11, abs=1e-300)


@pytest.mark.parametrize(
    "command, target, error",
    [
        ("carleson", "spaces.carleson_functional", KernelComponentError),
        ("decompose", "decomposition.molecular_decompose", DegenerateFieldError),
    ],
)
def test_kernel_and_degenerate_fields_are_config_errors(
    tmp_path, capsys, monkeypatch, command, target, error
):
    # no corpus kind produces such fields, so the first call raises instead
    def fail(*args, **kwargs):
        raise error("field is not mean-zero")

    monkeypatch.setattr(f"hardy_lab.{target}", fail)
    cfg = write_config(tmp_path)
    assert_one_line_config_error(capsys, cli.main([command, "--config", str(cfg)]))


@pytest.mark.parametrize("command", ["functional", "equivalence", "riesz"])
def test_krylov_poisson_exits_four_at_once(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli.semigroup, "AUTO_DENSE_MAX", 0)
    code = cli.main([command, "--config", str(write_config(tmp_path))])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NONCONVERGENCE
    assert err.startswith("non-convergence: ") and err.count("\n") == 1
    assert "eigenbasis" in err
