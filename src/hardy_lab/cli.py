"""Batch experiment driver.

One JSON config describes the grid, coefficients, time quadrature,
parameters, corpus and output directory; every command reads the same
config and writes CSV/JSON reports into the output directory.  Report
bodies are byte-stable across runs; wall-clock metadata is quarantined
in run_metadata.json.

Exit codes: 0 all assertions pass, 2 assertion failure, 3 config error
(a command-line usage error among them), 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .grid import (
    CoefficientField,
    Cube,
    Grid,
    GridError,
    NonEllipticError,
    ScalarField,
    full_grid_cube,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
    set_distance,
)
from .operator import DiscreteOperator, assemble_operator
from . import corpus as corpus_mod
from . import decomposition
from . import riesz as riesz_mod
from . import semigroup
from . import serialize
from . import spaces
from .functionals import ConeSpec, SpaceTimeField, aperture_compare, nontangential_max, square_function
from .semigroup import TimeGrid

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NONCONVERGENCE = 4

DEFAULT_TOLERANCES = {
    "residual": 1e-3,
    "spread": 25.0,
    "duality": 1e-6,
    "riesz_ratio": 10.0,
    "slope_margin": 0.2,
}


class ConfigError(ValueError):
    pass


class AssertionFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _number(label: str, value, kind=float):
    # JSON true and false are Python bools, which int() and float() take as 1 and 0
    if isinstance(value, bool):
        raise ConfigError(f"{label}: not a number: {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{label}: not an integer: {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{label}: not a number: {value!r}") from exc


def _seed(label: str, value) -> int:
    seed = _number(label, value, int)
    if seed < 0:
        raise ConfigError(f"{label} must be >= 0, got {seed}")
    return seed


def _section(obj: dict, name: str) -> dict:
    spec = obj.get(name)
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {spec!r}")
    return spec


class ExperimentConfig:
    """Validated run configuration assembled from JSON plus overrides."""

    def __init__(self, obj: dict, overrides: argparse.Namespace):
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        self.grid = self._build_grid(_section(obj, "grid"), overrides.grid)
        self.coeff_spec = _section(obj, "coefficients")
        times = _section(obj, "times")
        try:
            base = semigroup.default_time_grid(self.grid)
            self.time_grid = TimeGrid(
                _number("t_min", times.get("t_min", base.t_min)),
                _number("t_max", times.get("t_max", base.t_max)),
                _number("count", times.get("count", base.count), int),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"times: {exc}") from exc
        params = _section(obj, "params")
        self.M = _number("params.M", params.get("M", 1), int)
        self.p = _number("params.p", params.get("p", 2.0))
        self.eps = _number("params.eps", params.get("eps", 1.0))
        self.gamma = _number("params.gamma", params.get("gamma", 0.5))
        apertures = params.get("apertures", (1.0, 1.5, 2.0))
        if not isinstance(apertures, (list, tuple)):
            raise ConfigError(f"params.apertures: not a list: {apertures!r}")
        self.apertures = [_number("params.apertures", a) for a in apertures]
        corpus = _section(obj, "corpus")
        self.corpus_kind = str(corpus.get("kind", "standard"))
        self.corpus_count = _number("corpus.count", corpus.get("count", 20), int)
        self.corpus_seed = _seed("corpus.seed", corpus.get("seed", 7))
        if overrides.seed is not None:
            self.corpus_seed = _seed("--seed", overrides.seed)
        out = overrides.out or obj.get("out", "reports")
        if not isinstance(out, str):
            raise ConfigError(f"out: not a path: {out!r}")
        self.out = Path(out)
        self.tolerances = dict(DEFAULT_TOLERANCES)
        for key, val in _section(obj, "tolerances").items():
            if key not in self.tolerances:
                raise ConfigError(f"unknown tolerance {key!r}")
            self.tolerances[key] = _number(f"tolerances.{key}", val)
            if math.isnan(self.tolerances[key]):
                raise ConfigError(f"tolerances.{key}: NaN passes no comparison, so it checks nothing")
        self.filter = overrides.filter
        # the operator built by `operator()`, kept for run_metadata.json
        self.op: DiscreteOperator | None = None
        if not 1 <= self.M <= semigroup.MAX_HEAT_POWER:
            raise ConfigError(f"params.M must lie in [1, {semigroup.MAX_HEAT_POWER}]")
        if not self.p >= 1:
            raise ConfigError("params.p must be >= 1")
        if not self.eps > 0:
            raise ConfigError("params.eps must be > 0")
        # the decay tables divide by decay bounds, none below the bound of a
        # corner node's outermost annulus (the most a cube has) at the grid's volume
        outermost = int(Cube(self.grid, (0,) * self.grid.dim, 1).annulus_labels().max())
        least = decomposition.molecule_bound(outermost, self.grid, self.p, self.eps, full_grid_cube(self.grid))
        if least < np.finfo(float).tiny:
            raise ConfigError(f"params.eps = {self.eps}: the molecule decay bound underflows on this grid")
        if self.corpus_count < 1:
            raise ConfigError("empty corpus")
        if self.corpus_kind not in corpus_mod.CORPUS_KINDS:
            raise ConfigError(f"unknown corpus kind {self.corpus_kind!r}")
        if not 0 < self.gamma < 1:
            raise ConfigError("params.gamma must lie in (0, 1)")
        if not all(a >= 1 for a in self.apertures):
            raise ConfigError("params.apertures must all be >= 1")

    @staticmethod
    def _build_grid(spec: dict, override: str | None) -> Grid:
        try:
            if override is not None:
                spec = dict(spec, sizes=override.lower().split("x"))
            sizes = tuple(_number("sizes", s, int) for s in spec.get("sizes", (64,)))
            spacing = _number("spacing", spec.get("spacing", 1.0 / max(sizes)))
            return Grid(len(sizes), sizes, spacing, str(spec.get("boundary", "periodic")))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid: {exc}") from exc

    def coefficients(self) -> CoefficientField:
        spec = self.coeff_spec
        kind = spec.get("kind", "identity")
        if kind == "identity":
            return identity_coefficients(self.grid)
        if kind == "random":
            return random_elliptic_coefficients(
                self.grid,
                _number("coefficients.lam", spec.get("lam", 0.5)),
                _number("coefficients.Lam", spec.get("Lam", 2.0)),
                _seed("coefficients.seed", spec.get("seed", 1)),
            )
        if kind == "file":
            path = spec.get("path")
            if not path or not isinstance(path, str):  # open() takes an int as a file descriptor
                raise ConfigError(f"coefficients.path: kind 'file' needs a path, got {path!r}")
            return CoefficientField(self.grid, self._coefficient_file(path))
        raise ConfigError(f"unknown coefficient kind {kind!r}")

    def _coefficient_file(self, path: str) -> np.ndarray:
        """The numeric (N, d, d) .npy array at path, or a ConfigError."""
        want = (self.grid.n_nodes, self.grid.dim, self.grid.dim)
        try:
            with open(path, "rb") as fh:
                mats = np.lib.format.read_array(fh)  # no pickles
        except OSError as exc:
            raise ConfigError(f"coefficients file {path}: {exc.strerror or exc}") from exc
        except ValueError:
            mats = None
        if mats is None or mats.shape != want or mats.dtype.kind not in "biufc":
            raise ConfigError(
                f"coefficients file {path}: expected a numeric .npy array of shape "
                f"{want}, as assemble writes to coefficients.npy"
            )
        return mats

    def operator(self) -> DiscreteOperator:
        self.op = assemble_operator(self.grid, self.coefficients())
        return self.op

    def decomposition_times(self, op: DiscreteOperator) -> TimeGrid:
        return decomposition.reproduction_times(op, self.time_grid.t_max, self.time_grid.count)

    def fields(self, op: DiscreteOperator) -> list:
        return corpus_mod.generate_corpus(
            op, self.corpus_kind, self.corpus_count, self.corpus_seed
        )

    def molecules(self, op: DiscreteOperator) -> list:
        return corpus_mod.molecule_corpus(
            op, self.corpus_count, self.corpus_seed, self.M, self.eps, self.p
        )


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        try:
            obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        obj = {}
    return ExperimentConfig(obj, args)


def _finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise semigroup.ConvergenceError(f"{label}: non-finite value {v}")


def _write_metadata(cfg: ExperimentConfig, command: str, started: float) -> None:
    # the only file carrying wall-clock and cache state; everything else is
    # bit-stable
    calc = None if cfg.op is None else semigroup.calculus_summary(cfg.op)
    serialize.write_json(
        cfg.out / "run_metadata.json",
        {"command": command, "unix_time": started, "calculus": calc},
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_assemble(cfg: ExperimentConfig) -> None:
    coeff = cfg.coefficients()
    op = assemble_operator(cfg.grid, coeff)
    serialize.write_json(
        cfg.out / "operator.json",
        {
            "grid": {
                "sizes": list(cfg.grid.sizes),
                "spacing": cfg.grid.spacing,
                "boundary": cfg.grid.boundary,
            },
            "kernel_dim": op.kernel_dim,
        },
    )
    np.save(cfg.out / "coefficients.npy", coeff.matrices)
    cfg.op = op
    w = semigroup.spectrum(op)  # its eigenbasis stored for the commands that follow
    if w is not None:
        order = np.argsort(w.real, kind="stable")
        rows = [(int(i), w[j].real, w[j].imag) for i, j in enumerate(order)]
        serialize.write_csv(cfg.out / "spectrum.csv", ("index", "re", "im"), rows)
    print(f"assembled operator on {cfg.grid.sizes}, kernel_dim={op.kernel_dim}")


def _h1_functionals(f: ScalarField, op: DiscreteOperator, times: TimeGrid) -> dict:
    """The heat and Poisson square and non-tangential maximal functions of f.

    n_p goes first: a Krylov calculus refuses the Poisson semigroup at once,
    before the heat functionals spend minutes in Krylov actions.
    """
    n_p = nontangential_max(f, op, "poisson", times=times)
    return {
        "s_h": square_function(f, op, ConeSpec(1.0), "heat", times=times),
        "n_h": nontangential_max(f, op, "heat", times=times),
        "s_p": square_function(f, op, ConeSpec(1.0), "poisson_tderiv", times=times),
        "n_p": n_p,
    }


def cmd_functional(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    times = cfg.time_grid
    coords = cfg.grid.coords()
    fields = cfg.fields(op)
    rows = []
    for idx, f in enumerate(fields):
        for tag, field in _h1_functionals(f, op, times).items():
            for node in range(cfg.grid.n_nodes):
                rows.append(
                    (idx, tag, node)
                    + tuple(float(c) for c in coords[node])
                    + (float(field.values[node].real),)
                )
    coord_cols = tuple(f"x{a}" for a in range(cfg.grid.dim))
    serialize.write_csv(
        cfg.out / "functionals.csv",
        ("field", "functional", "node") + coord_cols + ("value",),
        rows,
    )
    ap_rows = []
    prof = semigroup.heat_profile(op, fields[0], times, K=cfg.M)
    F = SpaceTimeField(prof, cfg.grid, times)
    for alpha in cfg.apertures:
        rep = aperture_compare(F, alpha)
        _finite("aperture_compare", rep.ratio)
        ap_rows.append((alpha, rep.norm_alpha, rep.norm_base, rep.ratio))
    serialize.write_csv(
        cfg.out / "apertures.csv",
        ("alpha", "norm_alpha", "norm_base", "ratio"),
        ap_rows,
    )
    print(f"functionals over {cfg.corpus_count} fields -> functionals.csv")


def cmd_decompose(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    times = cfg.decomposition_times(op)
    rows = []
    bundles = []
    molecules = []
    worst = 0.0
    for idx, f in enumerate(cfg.fields(op)):
        dec = decomposition.molecular_decompose(
            f, op, cfg.M, cfg.p, cfg.eps, cfg.gamma, times
        )
        rel = lp_norm(dec.residual.values, cfg.grid, 2) / lp_norm(f.values, cfg.grid, 2)
        _finite("decomposition residual", rel, dec.weight_sum)
        worst = max(worst, rel)
        global_const = 1.0
        for term in dec.terms:
            rep = decomposition.validate_molecule(term.molecule, op)
            global_const = max(global_const, rep.max_ratio)
            rows.append((idx, term.level, term.cube_index, term.weight, rep.passes))
        bundles.append(
            {
                "field": idx,
                "M": cfg.M,
                "p": cfg.p,
                "eps": cfg.eps,
                "gamma": cfg.gamma,
                "calderon": dec.calderon,
                "truncation": list(dec.truncation),
                "weight_sum": dec.weight_sum,
                "residual_rel": rel,
                "global_molecule_constant": global_const,
                "terms": [
                    {
                        "k": t.level,
                        "j": t.cube_index,
                        "weight": t.weight,
                        "cube": {
                            "anchor": list(t.molecule.cube.anchor),
                            "nnodes": t.molecule.cube.nnodes,
                        },
                    }
                    for t in dec.terms
                ],
            }
        )
        molecules.extend(t.molecule.field.values for t in dec.terms)
    serialize.write_csv(
        cfg.out / "decomposition_summary.csv",
        ("field", "k", "j", "weight", "validated"),
        rows,
    )
    serialize.write_json(cfg.out / "decomposition.json", {"decompositions": bundles})
    # row i holds the values of the i-th term of decomposition.json, field by field
    np.save(cfg.out / "molecules.npy", np.array(molecules, complex).reshape(-1, cfg.grid.n_nodes))
    print(f"decomposed {cfg.corpus_count} fields, worst residual {worst:.3e}")
    if worst > cfg.tolerances["residual"]:
        raise AssertionFailure(
            f"reconstruction residual {worst:.3e} exceeds {cfg.tolerances['residual']:.1e}"
        )


def cmd_validate(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    mols = cfg.molecules(op)
    rows = []
    all_pass = True
    for idx, mol in enumerate(mols):
        rep = decomposition.validate_molecule(mol, op)
        _finite("molecule validation", rep.max_ratio)
        all_pass = all_pass and rep.passes
        rows.append((idx, mol.cube.sidelength, mol.normalization, rep.max_ratio, rep.passes))
    serialize.write_csv(
        cfg.out / "molecules.csv",
        ("molecule", "cube_sidelength", "normalization", "max_ratio", "passes"),
        rows,
    )
    print(f"validated {len(mols)} molecules, all_pass={all_pass}")
    if not all_pass:
        raise AssertionFailure("a molecule failed its annular decay bounds")


def _spread(label: str, values: list) -> float:
    """max / min of the positive values; a check with none of them checks
    nothing, so it does not pass."""
    pos = [v for v in values if v > 0]
    if not pos:
        raise semigroup.ConvergenceError(f"{label}: no positive value to compare")
    return max(pos) / min(pos)


def cmd_bmo(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    fields = cfg.fields(op)
    rows = []
    hr_ratios = []
    jn_spreads = []
    for idx, f in enumerate(fields):
        # the p = 2 norm of the John-Nirenberg family is the heat BMO norm
        jn = spaces.john_nirenberg_compare(f, op, cfg.M)
        heat = jn[2.0]
        reso = spaces.bmo_norm(f, op, cfg.M, "resolvent").norm
        _finite("bmo", heat, reso)
        rows.append((idx, "heat", cfg.M, 2.0, heat))
        rows.append((idx, "resolvent", cfg.M, 2.0, reso))
        if reso > 0:
            hr_ratios.append(heat / reso)
        for p, val in sorted(jn.items()):
            rows.append((idx, "p", cfg.M, p, val))
        jn_spreads.append(_spread("BMO^p spread", list(jn.values())))
    serialize.write_csv(
        cfg.out / "bmo.csv", ("field", "variant", "M", "p", "norm"), rows
    )
    rng = np.random.default_rng(cfg.corpus_seed + 1)
    shape = (2, cfg.grid.n_nodes)
    draws = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(cfg.corpus_count)]
    pairs = [[ScalarField(v, cfg.grid) for v in a - a.mean(axis=1, keepdims=True)] for a in draws]
    worst_pair = spaces.duality_error(pairs, op, cfg.M)
    summary = {
        "heat_resolvent_spread": _spread("heat/resolvent BMO spread", hr_ratios),
        "john_nirenberg_worst_spread": max(jn_spreads),
        "duality_worst_relative_error": worst_pair,
    }
    serialize.write_json(cfg.out / "bmo_summary.json", summary)
    print(
        "bmo spreads: heat/resolvent {heat_resolvent_spread:.3g}, "
        "p-family {john_nirenberg_worst_spread:.3g}, duality err "
        "{duality_worst_relative_error:.3e}".format(**summary)
    )
    tol = cfg.tolerances
    if summary["heat_resolvent_spread"] > tol["spread"]:
        raise AssertionFailure("heat/resolvent BMO spread exceeds bound")
    if summary["john_nirenberg_worst_spread"] > tol["spread"]:
        raise AssertionFailure("BMO^p spread exceeds bound")
    if worst_pair > tol["duality"]:
        raise AssertionFailure(f"duality pairing error {worst_pair:.3e}")


def cmd_carleson(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    times = cfg.time_grid
    rows = []
    ratios = []
    for idx, f in enumerate(cfg.fields(op)):
        car = spaces.carleson_functional(f, op, cfg.M, times)
        bmo = spaces.bmo_norm(f, op, cfg.M, "heat").norm
        _finite("carleson", car, bmo)
        rows.append((idx, car, bmo, car / bmo**2 if bmo > 0 else math.nan))
        if bmo > 0 and car > 0:
            ratios.append(car / bmo**2)
    serialize.write_csv(
        cfg.out / "carleson.csv",
        ("field", "carleson_norm", "bmo_heat", "carleson_over_bmo_sq"),
        rows,
    )
    spread = _spread("carleson/bmo^2 spread", ratios)
    serialize.write_json(cfg.out / "carleson_summary.json", {"ratio_spread": spread})
    print(f"carleson/bmo^2 spread {spread:.3g} over {len(ratios)} fields")
    if spread > cfg.tolerances["spread"]:
        raise AssertionFailure(f"carleson/bmo^2 spread {spread:.3g} exceeds bound")


def cmd_riesz(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    mols = cfg.molecules(op)
    rep = riesz_mod.riesz_h1_experiment(mols, op)
    _finite("riesz", rep.sup_norm, rep.max_min_ratio)
    serialize.write_csv(
        cfg.out / "riesz.csv",
        ("molecule", "cube_sidelength", "l1_norm"),
        [(i, ell, val) for i, ell, val in rep.per_molecule],
    )
    size = min(cfg.grid.sizes)
    E = np.arange(0, max(size // 10, 2))
    F = np.arange(size // 2 - size // 16, size // 2 + size // 16)
    t_values = riesz_mod.commutator_window(op, set_distance(cfg.grid, E, F))
    slope_rows = []
    slope_ok = True
    for M in (1, 2):
        for T in ("g_h", "riesz"):
            slope = riesz_mod.commutator_slope(op, T, M, E, F, t_values)
            _finite("commutator slope", slope)
            ok = slope >= M - cfg.tolerances["slope_margin"]
            slope_ok = slope_ok and ok
            slope_rows.append((T, M, slope, ok))
    serialize.write_csv(
        cfg.out / "riesz_slopes.csv", ("transform", "M", "slope", "passes"), slope_rows
    )
    print(
        f"riesz L1 max/min {rep.max_min_ratio:.3g}; slopes "
        + ", ".join(f"{t}/M={m}: {s:.2f}" for t, m, s, _ in slope_rows)
    )
    if rep.max_min_ratio > cfg.tolerances["riesz_ratio"]:
        raise AssertionFailure(
            f"riesz L1 ratio {rep.max_min_ratio:.3g} exceeds bound"
        )
    if not slope_ok:
        raise AssertionFailure("a commutator slope fell below M - margin")


EQUIVALENCE_QUANTITIES = ("h1_est", "s_h", "n_h", "s_p", "n_p")


def cmd_equivalence(cfg: ExperimentConfig) -> None:
    op = cfg.operator()
    times = cfg.time_grid
    dec_times = cfg.decomposition_times(op)
    rows = []
    table = {q: [] for q in EQUIVALENCE_QUANTITIES}
    for idx, f in enumerate(cfg.fields(op)):
        l1 = lp_norm(f.values, cfg.grid, 1)
        functionals = _h1_functionals(f, op, times)  # first, see its docstring
        est = decomposition.h1_norm_estimate(f, op, cfg.M, cfg.gamma, dec_times)
        quantities = {"h1_est": est.estimate}
        for tag, field in functionals.items():
            quantities[tag] = lp_norm(field.values, cfg.grid, 1) + l1
        _finite("equivalence", *quantities.values())
        for q in EQUIVALENCE_QUANTITIES:
            table[q].append(quantities[q])
        rows.append((idx,) + tuple(quantities[q] for q in EQUIVALENCE_QUANTITIES))
    serialize.write_csv(
        cfg.out / "equivalence.csv", ("field",) + EQUIVALENCE_QUANTITIES, rows
    )
    ratio_rows = []
    worst_spread = 0.0
    for qa in EQUIVALENCE_QUANTITIES:
        for qb in EQUIVALENCE_QUANTITIES:
            if qa == qb:
                continue
            ratios = sorted(a / b for a, b in zip(table[qa], table[qb]))
            spread = ratios[-1] / ratios[0]
            worst_spread = max(worst_spread, spread)
            ratio_rows.append(
                (qa, qb, ratios[0], ratios[-1], ratios[len(ratios) // 2], spread)
            )
    serialize.write_csv(
        cfg.out / "equivalence_ratios.csv",
        ("numerator", "denominator", "min", "max", "median", "spread"),
        ratio_rows,
    )
    print(f"equivalence worst pairwise spread {worst_spread:.3g}")
    if worst_spread > cfg.tolerances["spread"]:
        raise AssertionFailure(
            f"equivalence spread {worst_spread:.3g} exceeds {cfg.tolerances['spread']:.3g}"
        )


def cmd_oracle(cfg: ExperimentConfig) -> None:
    # the oracle suite, and scipy.integrate with it, loads for this command only
    from . import oracle_suite

    try:
        results = oracle_suite.run_suite(cfg.filter)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not results:
        raise ConfigError(f"oracle filter {cfg.filter!r} selects nothing")
    obj = [dataclasses.asdict(r) for r in results]
    serialize.write_json(cfg.out / "oracle.json", {"results": obj})
    fails = [r for r in results if not r.passed]
    for r in results:
        print(("PASS" if r.passed else "FAIL"), r.name, serialize.fmt(r.measured))
    if fails:
        raise AssertionFailure(f"{len(fails)} oracle comparisons failed")


def cmd_report(cfg: ExperimentConfig) -> None:
    merged = {}
    for path in sorted(cfg.out.glob("*.csv")):
        header, rows = serialize.read_csv(path)
        merged[path.name] = {"header": header, "rows": rows}
    if not merged:
        raise ConfigError(f"no CSV reports found in {cfg.out}")
    serialize.write_json(cfg.out / "report.json", {"tables": merged})
    print(f"merged {len(merged)} CSV tables into report.json")


COMMANDS = {
    "assemble": cmd_assemble,
    "functional": cmd_functional,
    "decompose": cmd_decompose,
    "validate": cmd_validate,
    "bmo": cmd_bmo,
    "carleson": cmd_carleson,
    "riesz": cmd_riesz,
    "equivalence": cmd_equivalence,
    "oracle": cmd_oracle,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is a config error, in argparse's words
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardy-lab",
        description="operator-adapted Hardy/BMO space experiments",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to the JSON config")
    parser.add_argument("--grid", help="override grid sizes, e.g. 64 or 16x16")
    parser.add_argument("--seed", type=int, help="override the corpus seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--filter", help="substring filter for oracle groups")
    return parser


def main(argv: list | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        try:
            cfg.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, say
            raise ConfigError(f"cannot make output directory {cfg.out}: {exc}") from exc
        started = time.time()
        try:
            COMMANDS[args.command](cfg)
        finally:
            _write_metadata(cfg, args.command, started)
    except (
        ConfigError,
        GridError,
        NonEllipticError,
        semigroup.KernelComponentError,
        decomposition.DegenerateFieldError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except RuntimeError as exc:  # semigroup.ConvergenceError among them
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
