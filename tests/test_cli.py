"""End-to-end command-line driver behavior."""

import json
import math
import os
import subprocess
import sys
import warnings
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


def test_riesz_command_on_stiff_operator(tmp_path):
    # Lambda = 50: a window fixed at 1e-4..1e-2 d^2 leaves the (t/d^2)^M
    # regime and the slopes fall below M - 0.2
    cfg = write_config(
        tmp_path,
        grid={"sizes": [16, 16]},
        coefficients={"kind": "random", "Lam": 50, "seed": 1},
        corpus={"count": 2, "seed": 0},
    )
    assert cli.main(["riesz", "--config", str(cfg)]) == cli.EXIT_OK


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
    return err


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


def save_with(value):
    """Writes 64 unit 1x1 matrices with one entry replaced by value."""

    def write(path):
        mats = np.ones((64, 1, 1), dtype=complex)
        mats[5, 0, 0] = value
        np.save(path, mats)

    return write


EXPECTED_SHAPE = ".npy array of shape (64, 1, 1)"


@pytest.mark.parametrize(
    "name, write, message",
    [
        ("empty.npy", lambda path: path.write_bytes(b""), EXPECTED_SHAPE),
        (
            "coefficients.json",
            lambda path: path.write_text(
                json.dumps({"shape": [64, 1, 1], "re": [1.0] * 64, "im": [0.0] * 64})
            ),
            EXPECTED_SHAPE,
        ),
        (
            "short.npy",
            lambda path: np.save(path, np.ones((32, 1, 1), dtype=complex)),
            EXPECTED_SHAPE,
        ),
        ("bundle.npz", lambda path: np.savez(path, matrices=np.ones((64, 1, 1))), EXPECTED_SHAPE),
        ("nan.npy", save_with(np.nan), "coefficients must be finite"),
        ("inf.npy", save_with(np.inf), "coefficients must be finite"),
    ],
    ids=["empty", "old-json", "wrong-shape", "npz", "nan", "inf"],
)
def test_bad_coefficient_files_are_config_errors(tmp_path, capsys, name, write, message):
    path = tmp_path / name
    write(path)
    cfg = write_config(tmp_path, coefficients={"kind": "file", "path": str(path)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warnings are not the message either
        code = cli.main(["assemble", "--config", str(cfg)])
    err = assert_one_line_config_error(capsys, code)
    # the project's own message, naming what is expected, not numpy's text
    assert message in err and "allow_pickle" not in err


@pytest.mark.parametrize("spacing", [1e-170, 1e200], ids=["underflow", "overflow"])
def test_spacing_without_a_finite_cell_volume_is_config_error(tmp_path, capsys, spacing):
    cfg = write_config(tmp_path, grid={"sizes": [16, 16], "spacing": spacing})
    err = assert_one_line_config_error(capsys, cli.main(["bmo", "--config", str(cfg)]))
    assert "spacing**dim" in err


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
    # the eigenvalues of the verified eigenbasis, as the formatter writes them
    assert rows == spectrum_rows(semigroup.DenseCalculus(op).w)
    # the kernel row is pinned to exactly zero on periodic grids only
    assert (np.count_nonzero(got == 0) == 1) == (boundary == "periodic")


def spectrum_rows(w):
    """The rows of spectrum.csv for the eigenvalues w, as read back."""
    w = w[np.argsort(w.real, kind="stable")]
    return [[str(i), serialize.fmt(z.real), serialize.fmt(z.imag)] for i, z in enumerate(w)]


def test_assemble_falls_back_to_eigenvalues_when_the_check_fails(
    tmp_path, monkeypatch, eigenbasis_cache
):
    monkeypatch.setattr(semigroup, "_reconstruction_error", lambda *basis: math.inf)
    assert cli.main(["assemble", "--config", str(write_config(tmp_path))]) == cli.EXIT_OK
    reports = tmp_path / "reports"
    rows = serialize.read_csv(reports / "spectrum.csv")[1]
    grid = Grid(1, (64,), 1.0 / 64)
    op = assemble_operator(grid, identity_coefficients(grid))
    # the eigenvalues of the build that failed its check, kernel pinned: no
    # second eigendecomposition
    w = semigroup._pin_kernel(semigroup._build_eigenbasis(op)[0], op.kernel_dim)[0]
    assert rows == spectrum_rows(w)
    meta = json.loads((reports / "run_metadata.json").read_text())
    assert meta["calculus"] == {"backend": "krylov", "eigenbasis": "failed"}
    assert not list(eigenbasis_cache.glob("*.eig"))  # a failed basis is not kept


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
        ("validate", {"params": {"eps": math.inf}}),
        ("validate", {"params": {"eps": 1e300}}),
        ("validate", {"params": {"M": math.inf}}),
        ("carleson", {"times": {"t_max": math.inf}}),
        ("functional", {"times": {"t_max": math.inf}}),
        ("functional", {"times": {"count": math.inf}}),
        ("bmo", {"tolerances": {"spread": math.nan, "duality": math.nan}}),
        ("assemble", {"coefficients": {"kind": "random", "lam": math.nan}}),
        ("assemble", {"coefficients": {"kind": "random", "Lam": math.inf}}),
        ("carleson", {"times": {"t_max": 1e200}}),
        ("assemble", {"times": {"t_max": "abc"}}),
        ("bmo", {"times": {"count": 3}}),
        ("carleson", {"grid": {"sizes": [16], "spacing": 1e200}}),
        ("assemble", {"params": {"M": 1.9}}),
        ("assemble", {"grid": {"sizes": [16.7, 16]}}),
        ("bmo", {"times": {"count": 40.9}}),
        ("validate", {"corpus": {"count": True}}),
        ("validate", {"params": {"M": True}}),
        ("assemble", {"coefficients": {"kind": "random", "lam": True}}),
        ("assemble", {"times": {"t_min": True}}),
        ("assemble", {"grid": {"sizes": [16], "spacing": True}}),
        ("report", {"out": 5}),
        ("bmo --seed abc", {}),
        ("bmo", {"grid": {"sizes": [16], "spacing": 1e-160}}),
        ("assemble", {"grid": {"sizes": [16]}, "coefficients": {"kind": "random", "Lam": 1e308}}),
        ("assemble", {"coefficients": {"kind": "random", "Lam": 1e308}}),
        ("no_such_command", {}),
        # finite entries whose row and column sums overflow
        ("assemble", {"grid": {"sizes": [16]}, "coefficients": {"kind": "random", "Lam": 5e305}}),
        ("bmo", {"grid": {"sizes": [16]}, "coefficients": {"kind": "random", "Lam": 5e305}}),
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path, **extra)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is refused, not warned about
        code = cli.main(command.split() + ["--config", str(cfg)])
    assert_one_line_config_error(capsys, code)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and "usage: hardy-lab" in capsys.readouterr().out


def run_cli(tmp_path, *argv, flags=()):
    """The exit code and stderr of the CLI run as a child process, with the
    interpreter flags given."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, *flags, "-m", "hardy_lab.cli", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return run.returncode, run.stderr


@pytest.mark.parametrize("path", [1, 2, True], ids=["stdout", "stderr", "true"])
def test_coefficient_path_must_be_a_string(tmp_path, path):
    # in a child: open() takes an int as a file descriptor, and closing fd 2
    # here would close the test process's own stderr
    cfg = write_config(tmp_path, coefficients={"kind": "file", "path": path})
    code, err = run_cli(tmp_path, "assemble", "--config", str(cfg))
    assert code == cli.EXIT_CONFIG
    assert err == f"config error: coefficients.path: kind 'file' needs a path, got {path!r}\n"


def test_window_past_its_tail_bound_is_non_convergence(tmp_path, capsys):
    # a spectrum so small that tail_window's t_min lies beyond t_max
    coeff = {"kind": "random", "lam": 1e-300, "Lam": 1e-300}
    cfg = write_config(tmp_path, grid={"sizes": [16]}, coefficients=coeff)
    code = cli.main(["bmo", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NONCONVERGENCE
    assert err.startswith("non-convergence: ") and err.count("\n") == 1
    assert "t_min" in err and "t_max" in err and "tail" in err


def test_carleson_with_no_positive_ratio_is_non_convergence(tmp_path, capsys):
    # every BMO norm is 0, so no ratio is left for the spread to compare
    coeff = {"kind": "random", "lam": 1e-300, "Lam": 1e-300}
    cfg = write_config(tmp_path, grid={"sizes": [16]}, coefficients=coeff)
    code = cli.main(["carleson", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NONCONVERGENCE
    assert err == "non-convergence: carleson/bmo^2 spread: no positive value to compare\n"
    assert not (tmp_path / "reports" / "carleson_summary.json").exists()


def spectrum_csv(reports: Path) -> np.ndarray:
    rows = serialize.read_csv(reports / "spectrum.csv")[1]
    return np.array([complex(float(re), float(im)) for _, re, im in rows])


def test_huge_finite_stencil_is_checked_without_a_warning(tmp_path):
    # ||L|| ~ 1e203: the eigenbasis check's residual must not overflow when
    # it is summed, and eig, run on L scaled near 1, must return eigenvalues
    # that pass the check
    coeff = {"kind": "random", "Lam": 1e200}
    cfg = write_config(tmp_path, grid={"sizes": [16]}, coefficients=coeff)
    code, err = run_cli(tmp_path, "assemble", "--config", str(cfg), flags=("-W", "error::RuntimeWarning"))
    assert (code, err) == (cli.EXIT_OK, "")
    reports = tmp_path / "reports"
    assert json.loads((reports / "run_metadata.json").read_text())["calculus"]["backend"] == "dense"
    grid = Grid(1, (16,), 1.0 / 16)
    norm = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 1e200, 1)).gershgorin_bound
    assert norm / 2 <= np.abs(spectrum_csv(reports)).max() <= 2 * norm


@pytest.mark.parametrize("command", ["decompose", "equivalence", "functional", "bmo", "carleson"])
def test_huge_finite_stencil_fails_to_converge_in_one_line(tmp_path, command):
    # ||L|| ~ 1e203: the full-row heat profiles carry roundoff times t^2 rho
    # past 1e154, whose squares overflow, and the resolvent's refinement
    # step overflows in L; each is a non-convergence, without numpy warnings
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"grid": {"sizes": [16]}, "coefficients": {"kind": "random", "Lam": 1e200}}))
    code, err = run_cli(tmp_path, command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_NONCONVERGENCE
    assert len(err.splitlines()) == 1 and err.startswith("non-convergence: "), err
    assert "Traceback" not in err and "Warning" not in err


def test_tiny_stencil_spectrum_is_the_scaled_identity_spectrum(tmp_path):
    # A = 1e-300 I exactly, so L is 1e-300 times the identity-coefficient L:
    # eig runs on L scaled near 1, and no eigenvalue but the kernel's is
    # pinned to 0
    coeff = {"kind": "random", "lam": 1e-300, "Lam": 1e-300}
    cfg = write_config(tmp_path, grid={"sizes": [16]}, coefficients=coeff)
    code, err = run_cli(tmp_path, "assemble", "--config", str(cfg), flags=("-W", "error::RuntimeWarning"))
    assert (code, err) == (cli.EXIT_OK, "")
    grid = Grid(1, (16,), 1.0 / 16)
    w = semigroup.DenseCalculus(assemble_operator(grid, identity_coefficients(grid))).w
    want = 1e-300 * w[np.argsort(w.real, kind="stable")]
    np.testing.assert_allclose(spectrum_csv(tmp_path / "reports"), want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("flags", [(), ("-W", "error::RuntimeWarning")], ids=["plain", "warnings-error"])
@pytest.mark.parametrize("command", ["assemble", "bmo"])
def test_overflowing_row_sums_are_one_line_config_errors(tmp_path, command, flags):
    # every entry of the stencil is finite, its row and column sums are not
    coeff = {"kind": "random", "Lam": 5e305}
    cfg = write_config(tmp_path, grid={"sizes": [16]}, coefficients=coeff)
    code, err = run_cli(tmp_path, command, "--config", str(cfg), flags=flags)
    assert code == cli.EXIT_CONFIG
    assert err == "config error: the row or column sums of L overflow at spacing 0.0625\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--out", "a_file"], "cannot make output directory a_file"),
        (["--config", "."], "Is a directory"),
        (["--config", "latin1.json"], "can't decode"),
    ],
    ids=["out-is-a-file", "config-is-a-directory", "config-not-utf8"],
)
def test_unusable_paths_are_config_errors(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "latin1.json").write_bytes('{"out": "r\u00e9sultats"}'.encode("latin-1"))
    argv = args if "--config" in args else args + ["--config", "config.json"]
    code = cli.main(["report"] + argv)
    assert message in assert_one_line_config_error(capsys, code)


def test_decompose_reproduces_on_a_stiff_operator(tmp_path):
    # lambda_max ~ 32x the identity's: the time window must reach below h/16
    cfg = write_config(
        tmp_path,
        grid={"sizes": [16, 16]},
        coefficients={"kind": "random", "lam": 1.0, "Lam": 32.0, "seed": 0},
        corpus={"kind": "standard", "count": 3, "seed": 0},
    )
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_OK


def test_bmo_duality_check_holds_on_near_orthogonal_pairs(tmp_path):
    # corpus seed 2946 draws a pair with |<f, g>| = 1.0e-3 ||f|| ||g|| h^d, so
    # the 1e-6 relative check needs a window whose tail is far below 1e-9 of
    # ||f|| ||g|| h^d
    cfg = write_config(
        tmp_path,
        grid={"sizes": [16, 16]},
        coefficients={"kind": "random", "seed": 1},
        corpus={"count": 2, "seed": 2946},
    )
    assert cli.main(["bmo", "--config", str(cfg)]) == cli.EXIT_OK


def test_cli_import_leaves_optional_scipy_modules_unloaded():
    # scipy.optimize, scipy.ndimage, scipy.linalg, scipy.sparse (with
    # scipy.sparse.linalg) and the oracle suite (with scipy.integrate) load
    # inside the functions that need them
    optional = (
        "scipy.optimize",
        "scipy.ndimage",
        "scipy.integrate",
        "scipy.linalg",
        "scipy.sparse",
        "scipy.sparse.linalg",
        "hardy_lab.oracle_suite",
    )
    code = f"import sys, hardy_lab.cli; print([m for m in {optional!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_warm_dense_commands_load_no_scipy_linalg(tmp_path):
    # each command in a fresh interpreter on a basis assemble already built:
    # no eig, no LU and no CSR matrix, so neither scipy.linalg nor
    # scipy.sparse loads; nor does assemble past AUTO_DENSE_MAX, which
    # computes no spectrum
    cfg = write_config(
        tmp_path, grid={"sizes": [16, 16]}, coefficients={"kind": "random", "seed": 1}
    )
    (tmp_path / "large-config").mkdir()
    large = write_config(
        tmp_path / "large-config", grid={"sizes": [64, 64]}, coefficients={"kind": "random", "seed": 1}
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(tmp_path / "xdg"))
    heavy = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "numpy.ma")
    code = (
        "import json, sys\n"
        "from hardy_lab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {heavy!r} if m in sys.modules]]))\n"
    )
    runs = [("assemble", cfg, "cold")] + [
        (c, cfg, c) for c in ("assemble", "bmo", "carleson", "riesz")
    ] + [("assemble", large, "large")]
    for command, config, out in runs:
        argv = [command, "--config", str(config), "--out", str(tmp_path / out)]
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
        )
        status, loaded = json.loads(run.stdout.strip().splitlines()[-1])
        assert status == cli.EXIT_OK, run.stderr
        meta = json.loads((tmp_path / out / "run_metadata.json").read_text())
        if out == "large":
            assert meta["calculus"] is None and not (tmp_path / out / "spectrum.csv").exists()
        elif out != "cold":
            assert meta["calculus"]["eigenbasis"] == "cache"
        if out != "cold":
            assert loaded == [], (command, loaded)


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


def test_metadata_records_the_calculus(tmp_path, eigenbasis_cache):
    cfg = write_config(tmp_path)
    metas = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert cli.main(["bmo", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        metas.append(json.loads((out / "run_metadata.json").read_text())["calculus"])
    cold, warm = metas
    assert (cold["backend"], cold["eigenbasis"]) == ("dense", "built")
    assert (warm["backend"], warm["eigenbasis"]) == ("dense", "cache")
    assert cold["cache_key"] == warm["cache_key"]
    assert (eigenbasis_cache / f"{cold['cache_key']}.eig").is_file()
    assert 0 <= warm["reconstruction_error"] < 1e-10
    # the cache changes no report body
    names = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for name in names:
        if name != "run_metadata.json":
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def test_assemble_fills_the_eigenbasis_cache(tmp_path):
    cfg = write_config(tmp_path)
    metas = []
    for command, out in (("assemble", "cold"), ("assemble", "warm"), ("bmo", "bmo")):
        out = tmp_path / out
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        metas.append(json.loads((out / "run_metadata.json").read_text())["calculus"])
    assert [m["eigenbasis"] for m in metas] == ["built", "cache", "cache"]
    assert len({m["cache_key"] for m in metas}) == 1
    # a loaded basis writes the spectrum the built one wrote
    spectra = [(tmp_path / run / "spectrum.csv").read_bytes() for run in ("cold", "warm")]
    assert spectra[0] == spectra[1]


@pytest.mark.parametrize(
    "command, dense_max, expected",
    [("validate", 0, {"backend": "krylov", "eigenbasis": None}), ("assemble", 63, None)],
    ids=["krylov", "no-calculus"],
)
def test_metadata_without_an_eigenbasis(tmp_path, monkeypatch, command, dense_max, expected):
    monkeypatch.setattr(semigroup, "AUTO_DENSE_MAX", dense_max)
    assert cli.main([command, "--config", str(write_config(tmp_path))]) == cli.EXIT_OK
    meta = json.loads((tmp_path / "reports" / "run_metadata.json").read_text())
    assert meta["calculus"] == expected


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
