"""Independent oracle comparisons, runnable as a suite.

Each entry recomputes a quantity through a second, structurally different
route (dense linear algebra, explicit summation loops, scalar quadrature)
and compares at a fixed tolerance.  The suite is the machinery behind the
`oracle` command and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from .grid import (
    Grid,
    ScalarField,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
)
from .operator import assemble_operator
from . import decomposition, functionals, riesz, semigroup, spaces
from .semigroup import TimeGrid


@dataclass(frozen=True)
class OracleResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def default_operators() -> dict:
    """The four acceptance operators: 1D/2D, identity and random elliptic A."""
    ops = {}
    g1 = Grid(1, (64,), 1.0 / 64)
    g2 = Grid(2, (16, 16), 1.0 / 16)
    ops["1d_identity"] = assemble_operator(g1, identity_coefficients(g1))
    ops["1d_random"] = assemble_operator(
        g1, random_elliptic_coefficients(g1, 0.5, 2.0, seed=1)
    )
    ops["2d_identity"] = assemble_operator(g2, identity_coefficients(g2))
    ops["2d_random"] = assemble_operator(
        g2, random_elliptic_coefficients(g2, 0.5, 2.0, seed=1)
    )
    return ops


def _test_field(op, seed=0) -> ScalarField:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=op.n) + 1j * rng.normal(size=op.n)
    if op.kernel_dim:
        v = v - v.mean()
    return ScalarField(v / lp_norm(v, op.grid, 2), op.grid)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max() / scale)


# ---------------------------------------------------------------------------
# semigroup oracles
# ---------------------------------------------------------------------------


def oracle_heat(ops) -> list:
    out = []
    for tag, op in ops.items():
        f = _test_field(op)
        dense = op.matrix.toarray()
        forced = semigroup.KrylovCalculus(op)
        worst = 0.0
        for t in (1e-4, 1e-2, 0.1):
            ref = scipy.linalg.expm(-t * dense) @ f.values
            got = semigroup.heat_apply(op, t, f).values
            krylov = forced.heat(t, f.values)
            worst = max(worst, _rel(got, ref), _rel(krylov, ref))
        out.append(OracleResult(f"semigroup.heat.{tag}", worst <= 1e-8, worst, 1e-8))
    return out


def oracle_resolvent(ops) -> list:
    out = []
    for tag, op in ops.items():
        f = _test_field(op)
        dense = op.matrix.toarray()
        worst = 0.0
        for t in (0.01, 0.1, 1.0):
            ref = scipy.linalg.solve(np.eye(op.n) + t * t * dense, f.values)
            got = semigroup.resolvent_apply(op, t, f).values
            worst = max(worst, _rel(got, ref))
        out.append(
            OracleResult(f"semigroup.resolvent.{tag}", worst <= 1e-10, worst, 1e-10)
        )
    return out


def oracle_neg_power(ops) -> list:
    out = []
    for tag, op in ops.items():
        f = _test_field(op)
        worst = 0.0
        for k in (1, 2):
            g = semigroup.neg_power_apply(op, k, f)
            back = g.values
            for _ in range(k):
                back = op.matrix @ back
            worst = max(worst, _rel(back, f.values))
        out.append(
            OracleResult(f"semigroup.neg_power.{tag}", worst <= 1e-10, worst, 1e-10)
        )
    return out


def oracle_poisson(ops) -> list:
    # against expm of the Schur square root sqrtm(L), which never forms the eigenbasis
    out = []
    for tag, op in ops.items():
        f = _test_field(op)
        s = scipy.linalg.sqrtm(op.matrix.toarray())
        worst = 0.0
        for t in (0.05, 0.2, 1.0):
            ref = scipy.linalg.expm(-t * s) @ f.values
            got = semigroup.poisson_apply(op, t, f).values
            worst = max(worst, _rel(got, ref))
        out.append(OracleResult(f"semigroup.poisson.{tag}", worst <= 1e-6, worst, 1e-6))
    return out


def _inv_sqrt_by_sqrtm(op, v: np.ndarray) -> np.ndarray:
    """L^{-1/2} v for a mean-zero v by a solve with S = sqrtm(L), the Schur
    principal square root of the dense L.  On periodic grids S shares L's
    kernel, the constants, so the solve is bordered, [[S, 1], [1^T, 0]]."""
    s = scipy.linalg.sqrtm(op.matrix.toarray())
    if op.kernel_dim:
        ones = np.ones((op.n, 1))
        s = np.block([[s, ones], [ones.T, np.zeros((1, 1))]])
        v = np.append(v, 0.0)
    return scipy.linalg.solve(s, v)[: op.n]


def oracle_riesz_spectral(ops) -> list:
    # the eigenbasis evaluation against a square root that never forms it
    out = []
    for tag, op in ops.items():
        f = _test_field(op)
        got = riesz.inv_sqrt_apply(op, f).values
        err = _rel(got, _inv_sqrt_by_sqrtm(op, f.values))
        out.append(OracleResult(f"riesz.inv_sqrt.{tag}", err <= 1e-6, err, 1e-6))
    return out


# ---------------------------------------------------------------------------
# functional brute-force oracles (explicit loops, 1D only)
# ---------------------------------------------------------------------------


def _brute_square(f, op, alpha, times) -> np.ndarray:
    grid = op.grid
    prof = semigroup.heat_profile(op, f, times, K=1)
    dist = grid.distance_matrix()
    out = np.zeros(grid.n_nodes)
    for x in range(grid.n_nodes):
        acc = 0.0
        for j, t in enumerate(times.samples):
            for y in range(grid.n_nodes):
                if dist[x, y] < alpha * t:
                    acc += (
                        times.log_weights[j]
                        * grid.cell_volume
                        / t**grid.dim
                        * abs(prof[y, j]) ** 2
                    )
        out[x] = math.sqrt(acc)
    return out


def _brute_nontangential(f, op, times) -> np.ndarray:
    grid = op.grid
    prof = semigroup.heat_profile(op, f, times, K=0)
    dist = grid.distance_matrix()
    out = np.zeros(grid.n_nodes)
    for x in range(grid.n_nodes):
        best = 0.0
        for j, t in enumerate(times.samples):
            for y in range(grid.n_nodes):
                if dist[x, y] < t:
                    ball = [z for z in range(grid.n_nodes) if dist[y, z] <= t]
                    avg = sum(abs(prof[z, j]) ** 2 for z in ball) / len(ball)
                    best = max(best, avg)
        out[x] = math.sqrt(best)
    return out


def _brute_hl(f) -> np.ndarray:
    grid = f.grid
    dist = grid.distance_matrix()
    a = np.abs(f.values)
    out = np.zeros(grid.n_nodes)
    for x in range(grid.n_nodes):
        best = 0.0
        for r in sorted(set(dist[x])):
            ball = [y for y in range(grid.n_nodes) if dist[x, y] <= r]
            best = max(best, sum(a[y] for y in ball) / len(ball))
        out[x] = best
    return out


def oracle_functionals(ops) -> list:
    out = []
    times = TimeGrid(1.0 / 256, 2.0, 16)
    for tag in ("1d_identity", "1d_random"):
        op = ops[tag]
        f = _test_field(op, seed=4)
        got = functionals.square_function(
            f, op, functionals.ConeSpec(1.0), "heat", times=times
        ).values.real
        ref = _brute_square(f, op, 1.0, times)
        err = _rel(got, ref)
        out.append(OracleResult(f"functionals.square.{tag}", err <= 1e-9, err, 1e-9))

        got = functionals.vertical_square_function(f, op, times=times).values.real
        prof = semigroup.heat_profile(op, f, times, K=1)
        ref = np.sqrt((np.abs(prof) ** 2 * times.log_weights[None, :]).sum(axis=1))
        err = _rel(got, ref)
        out.append(OracleResult(f"functionals.vertical.{tag}", err <= 1e-9, err, 1e-9))

        got = functionals.nontangential_max(f, op, "heat", times=times).values.real
        ref = _brute_nontangential(f, op, times)
        err = _rel(got, ref)
        out.append(OracleResult(f"functionals.maximal.{tag}", err <= 1e-9, err, 1e-9))

        got = functionals.hl_maximal(f).values.real
        ref = _brute_hl(f)
        err = _rel(got, ref)
        out.append(OracleResult(f"functionals.hardy_littlewood.{tag}", err <= 1e-9, err, 1e-9))
    return out


# ---------------------------------------------------------------------------
# constants and pairings
# ---------------------------------------------------------------------------


def oracle_calderon(_ops=None) -> list:
    # dt/t integral of (t^2 mu)^{M+2} e^{-(M+2) t^2 mu} is half the du/u
    # integral under u = t^2 mu, independent of mu
    out = []
    for M in (1, 2, 3):
        integral, _ = scipy.integrate.quad(
            lambda u: u ** (M + 2) * math.exp(-(M + 2) * u) / u, 0, np.inf
        )
        err = abs(decomposition.calderon_constant(M) * integral / 2.0 - 1.0)
        out.append(
            OracleResult(f"decomposition.calderon.M{M}", err <= 1e-10, err, 1e-10)
        )
    return out


def oracle_duality(ops) -> list:
    out = []
    for tag in ("1d_identity", "1d_random"):
        op = ops[tag]
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(5):
            fv = rng.normal(size=op.n) + 1j * rng.normal(size=op.n)
            gv = rng.normal(size=op.n) + 1j * rng.normal(size=op.n)
            fv -= fv.mean()
            gv -= gv.mean()
            f = ScalarField(fv, op.grid)
            g = ScalarField(gv, op.grid)
            direct = complex((fv * np.conj(gv)).sum() * op.grid.cell_volume)
            got = spaces.duality_pair(f, g, op, M=1)
            worst = max(worst, abs(got - direct) / max(abs(direct), 1e-300))
        out.append(OracleResult(f"spaces.duality.{tag}", worst <= 1e-6, worst, 1e-6))
    return out


def oracle_gaffney(ops) -> list:
    out = []
    op = ops["1d_identity"]
    E = np.arange(0, 6)
    F = np.arange(28, 36)
    # window where the discrete kernel is already in its diffusive regime
    # (t well above dist * spacing^2 in lattice units) and the decay factor
    # still sweeps two decades
    times = TimeGrid(8e-3, 1e-1, 16)
    prof = semigroup.gaffney_profile(op, "heat", E, F, times)
    beta = prof.fitted_beta
    out.append(
        OracleResult(
            "semigroup.gaffney_beta.1d_identity",
            0.8 <= beta <= 1.2,
            beta,
            1.2,
            "fitted decay exponent",
        )
    )
    # the monotone decade check wants genuinely small times, below the
    # diffusive window used for the exponent fit
    mono_times = TimeGrid(1.2e-3, 6e-2, 16)
    for fam in semigroup.GAFFNEY_FAMILIES:
        p = semigroup.gaffney_profile(op, fam, E, F, mono_times)
        decade = [
            n for t, n in zip(p.t_values, p.measured_norms) if t <= 10 * p.t_values[0]
        ]
        mono = all(
            decade[i] <= decade[i + 1] * (1 + 1e-12) for i in range(len(decade) - 1)
        )
        out.append(
            OracleResult(
                f"semigroup.gaffney_monotone.{fam}",
                mono,
                float(len(decade)),
                0.0,
                "norms nondecreasing in t over the smallest decade",
            )
        )
    return out


def oracle_decomposition(ops) -> list:
    out = []
    op = ops["1d_identity"]
    grid = op.grid
    x = np.arange(64) / 64.0
    d = np.minimum(np.abs(x - 0.4), 1 - np.abs(x - 0.4))
    f = np.where(d < 0.2, np.cos(np.pi * d / 0.4) ** 2, 0.0) + 0j
    f -= f.mean()
    f /= lp_norm(f, grid, 2)
    times = TimeGrid(grid.spacing / 16, 4.0, 64)
    dec = decomposition.molecular_decompose(ScalarField(f, grid), op, M=1, times=times)
    resid = lp_norm(dec.residual.values, grid, 2)
    out.append(
        OracleResult("decomposition.reconstruction.1d_identity", resid <= 1e-3, resid, 1e-3)
    )
    return out


ORACLES = (
    ("semigroup.heat", oracle_heat),
    ("semigroup.resolvent", oracle_resolvent),
    ("semigroup.neg_power", oracle_neg_power),
    ("semigroup.poisson", oracle_poisson),
    ("semigroup.gaffney", oracle_gaffney),
    ("functionals.brute_force", oracle_functionals),
    ("decomposition.calderon", oracle_calderon),
    ("decomposition.reconstruction", oracle_decomposition),
    ("spaces.duality", oracle_duality),
    ("riesz.spectral", oracle_riesz_spectral),
)


def run_suite(name_filter: str | None = None, ops: dict | None = None) -> list:
    """Runs every oracle whose group name contains the filter substring."""
    selected = [
        (name, fn)
        for name, fn in ORACLES
        if name_filter is None or name_filter in name
    ]
    if not selected:
        raise ValueError(f"no oracles match filter {name_filter!r}")
    ops = ops or default_operators()
    results = []
    for _, fn in selected:
        results.extend(fn(ops))
    return results
