"""The acceptance gate: nine end-to-end criteria, one line printed each.

Every criterion prints a single PASS/FAIL line with its measured value so
a full run reads as a scoreboard.
"""

import json
import time

import numpy as np
import pytest

from hardy_lab import (
    Grid,
    ScalarField,
    TimeGrid,
    assemble_operator,
    bmo_norm,
    calderon_constant,
    carleson_functional,
    cli,
    duality_pair,
    identity_coefficients,
    john_nirenberg_compare,
    lp_norm,
    molecular_decompose,
    nontangential_max,
    poisson_apply,
    random_elliptic_coefficients,
    resolvent_apply,
    riesz_h1_experiment,
    square_function,
    validate_molecule,
    vertical_square_function,
)
from hardy_lab import corpus as corpus_mod
from hardy_lab import heat_apply, oracle_suite
from hardy_lab.functionals import ConeSpec
from hardy_lab.grid import set_distance
from hardy_lab.riesz import commutator_slope


@pytest.fixture(scope="module")
def lab():
    g1 = Grid(1, (64,), 1.0 / 64)
    op_id = assemble_operator(g1, identity_coefficients(g1))
    op_rand = assemble_operator(g1, random_elliptic_coefficients(g1, 0.5, 2.0, seed=1))
    times = TimeGrid(g1.spacing / 16.0, 4.0, 64)
    corpus = corpus_mod.generate_corpus(op_id, "standard", 20, 7)
    return {"grid": g1, "op_id": op_id, "op_rand": op_rand, "times": times, "corpus": corpus}


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_suite(capsys):
    start = time.time()
    results = oracle_suite.run_suite()
    elapsed = time.time() - start
    fails = [r.name for r in results if not r.passed]
    ok = not fails and elapsed <= 300.0
    announce(
        capsys,
        1,
        "oracle suite",
        ok,
        f"{len(results)} comparisons, {len(fails)} failures, {elapsed:.1f}s",
    )


def test_criterion_2_conservation(capsys, lab):
    worst_cons = 0.0
    worst_zero = 0.0
    g2 = Grid(2, (16, 16), 1.0 / 16)
    ops = [
        lab["op_id"],
        lab["op_rand"],
        assemble_operator(g2, random_elliptic_coefficients(g2, 0.5, 2.0, seed=1)),
    ]
    for op in ops:
        ones = ScalarField(np.ones(op.n, dtype=complex), op.grid)
        for t in (1e-3, 0.05, 0.5):
            worst_cons = max(
                worst_cons,
                np.abs(heat_apply(op, t, ones).values - 1).max(),
                np.abs(resolvent_apply(op, t, ones).values - 1).max(),
                np.abs(poisson_apply(op, t, ones).values - 1).max(),
            )
        s = square_function(ones, op, ConeSpec(1.0), "heat")
        gh = vertical_square_function(ones, op)
        worst_cons = max(worst_cons, s.values.max(), gh.values.max())
        worst_zero = max(
            worst_zero,
            bmo_norm(ones, op, M=1, variant="heat").norm,
            bmo_norm(ones, op, M=1, variant="resolvent").norm,
            carleson_functional(ones, op, M=1),
        )
    ok = worst_cons <= 1e-8 and worst_zero <= 1e-10
    announce(
        capsys,
        2,
        "conservation",
        ok,
        f"semigroup/functional worst {worst_cons:.2e} (<=1e-8), "
        f"bmo/carleson worst {worst_zero:.2e} (<=1e-10)",
    )


def test_criterion_3_calderon(capsys):
    results = oracle_suite.run_suite("calderon")
    worst = max(r.measured for r in results)
    ok = all(r.passed for r in results) and calderon_constant(1) == pytest.approx(
        27.0, abs=1e-12
    )
    announce(
        capsys,
        3,
        "calderon constant",
        ok,
        f"C_1 = {calderon_constant(1):g}, worst normalization error {worst:.2e} (<=1e-10)",
    )


def test_criterion_4_decomposition(capsys, lab):
    op, g, times = lab["op_id"], lab["grid"], lab["times"]
    worst_resid = 0.0
    ratios = []
    all_valid = True
    for f in lab["corpus"]:
        dec = molecular_decompose(f, op, M=1, eps=1.0, times=times)
        rel = lp_norm(dec.residual.values, g, 2) / lp_norm(f.values, g, 2)
        worst_resid = max(worst_resid, rel)
        ratios.append(dec.weight_sum / lp_norm(dec.s_h.values, g, 1))
        reports = [validate_molecule(term.molecule, op) for term in dec.terms]
        global_const = max(1.0, *(rep.max_ratio for rep in reports))
        for rep in reports:
            all_valid = all_valid and rep.max_ratio <= global_const * (1 + 1e-9)
    c = 25.0
    ok = worst_resid <= 1e-3 and all_valid and max(ratios) <= c and min(ratios) >= 1 / c
    announce(
        capsys,
        4,
        "decomposition fidelity",
        ok,
        f"worst residual {worst_resid:.2e} (<=1e-3), molecules valid {all_valid}, "
        f"weight/S_h ratios in [{min(ratios):.2f}, {max(ratios):.2f}] (c<=25)",
    )


def test_criterion_5_equivalence(capsys, lab):
    op, g, times = lab["op_id"], lab["grid"], lab["times"]
    table = {q: [] for q in ("h1", "s_h", "n_h", "s_p", "n_p")}
    for f in lab["corpus"]:
        l1 = lp_norm(f.values, g, 1)
        dec = molecular_decompose(f, op, M=1, times=times)
        table["h1"].append(dec.weight_sum + l1)
        table["s_h"].append(
            lp_norm(square_function(f, op, ConeSpec(1.0), "heat").values, g, 1) + l1
        )
        table["n_h"].append(
            lp_norm(nontangential_max(f, op, "heat").values, g, 1) + l1
        )
        table["s_p"].append(
            lp_norm(
                square_function(f, op, ConeSpec(1.0), "poisson_tderiv").values, g, 1
            )
            + l1
        )
        table["n_p"].append(
            lp_norm(nontangential_max(f, op, "poisson").values, g, 1) + l1
        )
    worst_spread = 0.0
    for qa in table:
        for qb in table:
            if qa == qb:
                continue
            r = [a / b for a, b in zip(table[qa], table[qb])]
            worst_spread = max(worst_spread, max(r) / min(r))
    # exact homogeneity of the four functional norms under f -> c f
    c = -3.0 + 4.0j
    f = lab["corpus"][0]
    cf = ScalarField(c * f.values, g)
    worst_hom = 0.0
    for kind, fn in (
        ("heat", lambda x: square_function(x, op, ConeSpec(1.0), "heat").values),
        ("n_h", lambda x: nontangential_max(x, op, "heat").values),
        ("s_p", lambda x: square_function(x, op, ConeSpec(1.0), "poisson_tderiv").values),
        ("n_p", lambda x: nontangential_max(x, op, "poisson").values),
    ):
        ratio = lp_norm(fn(cf), g, 1) / lp_norm(fn(f), g, 1)
        worst_hom = max(worst_hom, abs(ratio - abs(c)) / abs(c))
    ok = worst_spread <= 25.0 and worst_hom <= 1e-9
    announce(
        capsys,
        5,
        "equivalence",
        ok,
        f"worst pairwise spread {worst_spread:.2f} (<=25), "
        f"homogeneity error {worst_hom:.2e} (<=1e-9)",
    )


def test_criterion_6_gaffney(capsys):
    results = oracle_suite.run_suite("gaffney")
    beta = next(r.measured for r in results if "beta" in r.name)
    ok = all(r.passed for r in results)
    announce(
        capsys,
        6,
        "gaffney decay",
        ok,
        f"fitted beta {beta:.3f} (in [0.8, 1.2]), monotone families "
        f"{sum('monotone' in r.name and r.passed for r in results)}/5",
    )


def test_criterion_7_bmo(capsys, lab):
    op, g = lab["op_rand"], lab["grid"]
    hr, jn_spreads, cb = [], [], []
    for f in lab["corpus"]:
        heat = bmo_norm(f, op, M=1, variant="heat").norm
        reso = bmo_norm(f, op, M=1, variant="resolvent").norm
        hr.append(heat / reso)
        vals = list(john_nirenberg_compare(f, op, M=1).values())
        jn_spreads.append(max(vals) / min(vals))
        car = carleson_functional(f, op, M=1)
        cb.append(car / heat**2)
    spread_hr = max(hr) / min(hr)
    spread_cb = max(cb) / min(cb)
    rng = np.random.default_rng(17)
    worst_pair = 0.0
    for _ in range(20):
        a = rng.normal(size=(2, g.n_nodes)) + 1j * rng.normal(size=(2, g.n_nodes))
        a -= a.mean(axis=1, keepdims=True)
        f, h = ScalarField(a[0], g), ScalarField(a[1], g)
        direct = complex((f.values * np.conj(h.values)).sum() * g.cell_volume)
        got = duality_pair(f, h, op, M=1)
        worst_pair = max(worst_pair, abs(got - direct) / abs(direct))
    ok = (
        spread_hr <= 25.0
        and max(jn_spreads) <= 25.0
        and spread_cb <= 25.0
        and worst_pair <= 1e-6
    )
    announce(
        capsys,
        7,
        "bmo machinery",
        ok,
        f"heat/resolvent spread {spread_hr:.2f}, p-family spread "
        f"{max(jn_spreads):.2f}, carleson/bmo^2 spread {spread_cb:.2f} "
        f"(all <=25), duality error {worst_pair:.2e} (<=1e-6)",
    )


def test_criterion_8_riesz(capsys, lab):
    op = lab["op_rand"]
    mols = corpus_mod.molecule_corpus(op, 20, 7, M=1)
    rep = riesz_h1_experiment(mols, op)
    E = np.arange(0, 6)
    F = np.arange(28, 36)
    d = set_distance(op.grid, E, F)
    ts = np.geomspace(1e-4 * d * d, 1e-2 * d * d, 6)
    slopes = {}
    slopes_ok = True
    for M in (1, 2):
        for T in ("g_h", "riesz"):
            s = commutator_slope(op, T, M, E, F, ts)
            slopes[(T, M)] = s
            slopes_ok = slopes_ok and s >= M - 0.2
    ok = rep.max_min_ratio <= 10.0 and slopes_ok
    slope_txt = ", ".join(f"{t}/M={m}: {s:.2f}" for (t, m), s in slopes.items())
    announce(
        capsys,
        8,
        "riesz transform",
        ok,
        f"L1 max/min {rep.max_min_ratio:.2f} (<=10), slopes {slope_txt} (>=M-0.2)",
    )


def test_criterion_9_determinism(capsys, tmp_path):
    cfg = {
        "grid": {"sizes": [64]},
        "coefficients": {"kind": "identity"},
        "params": {"M": 1},
        "corpus": {"kind": "standard", "count": 5, "seed": 7},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli.main(["equivalence", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_OK
        outs.append(out)
    names = ("equivalence.csv", "equivalence_ratios.csv")
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    announce(
        capsys,
        9,
        "determinism",
        identical,
        f"{len(names)} CSV bodies byte-identical across repeated runs",
    )
