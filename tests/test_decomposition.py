"""Whitney partitions, tents, molecules and the level-set decomposition."""

import math

import numpy as np
import pytest

from hardy_lab import (
    Cube,
    Grid,
    ScalarField,
    assemble_operator,
    calderon_constant,
    generate_corpus,
    h1_norm_estimate,
    lp_norm,
    make_molecule,
    molecular_decompose,
    molecule_corpus,
    random_elliptic_coefficients,
    validate_molecule,
    whitney_decompose,
)
from hardy_lab import decomposition, semigroup
from hardy_lab.decomposition import (
    WHITNEY_C2,
    DegenerateFieldError,
    SupportError,
    _annular_table,
    dist_to_complement,
    molecule_bound,
    reproduction_times,
)
from hardy_lab.grid import restricted_lp_norm


def bump_field(grid, center=0.5, width=0.2):
    x = grid.coords()[:, 0]
    d = np.abs(x - center)
    d = np.minimum(d, grid.side_lengths[0] - d)
    v = np.where(d < width, np.cos(np.pi * d / (2 * width)) ** 2, 0.0) + 0j
    v -= v.mean()
    return ScalarField(v / lp_norm(v, grid, 2), grid)


def decomposition_times(op, count=64):
    return reproduction_times(op, count=count)


def test_calderon_constant_value():
    assert calderon_constant(1) == pytest.approx(27.0, abs=1e-12)
    # C_M = 2 (M+2)^{M+2} / Gamma(M+2)
    assert calderon_constant(2) == pytest.approx(2 * 4.0**4 / math.gamma(4.0))


def test_whitney_is_a_partition(grid1d):
    open_set = np.arange(10, 40)
    cubes = whitney_decompose(open_set, grid1d)
    covered = np.concatenate([c.node_set() for c in cubes])
    assert sorted(covered) == sorted(open_set)
    assert len(covered) == len(set(covered))


def test_whitney_distance_comparability(grid1d):
    open_set = np.arange(10, 40)
    dist = dist_to_complement(grid1d, open_set)
    for cube in whitney_decompose(open_set, grid1d):
        if cube.nnodes == 1:
            continue
        d = dist[cube.node_set()].min()
        assert cube.sidelength <= WHITNEY_C2 * d + 1e-12


@pytest.mark.parametrize(
    "grid",
    [
        Grid(1, (37,), 1.0 / 37),
        Grid(1, (37,), 1.0 / 37, "dirichlet"),
        Grid(2, (16, 11), 1.0 / 16),
        Grid(2, (16, 11), 1.0 / 16, "dirichlet"),
    ],
    ids=lambda g: f"{g.dim}d-{g.boundary}",
)
def test_dist_to_complement_matches_distance_matrix(grid):
    rng = np.random.default_rng(grid.n_nodes)
    d = grid.distance_matrix()
    for density in (0.1, 0.5, 0.9, 0.99):
        node_set = np.nonzero(rng.random(grid.n_nodes) < density)[0]
        comp = np.setdiff1d(np.arange(grid.n_nodes), node_set)
        expected = d[:, comp].min(axis=1) if comp.size else np.full(grid.n_nodes, np.inf)
        assert np.array_equal(dist_to_complement(grid, node_set), expected)
    assert np.all(dist_to_complement(grid, np.arange(grid.n_nodes)) == np.inf)


def walk_whitney(open_set, grid):
    """Whitney cubes by a stack walk over the dyadic blocks: a block that
    holds a node of the set is kept when it lies in the set and meets the
    comparison, and split otherwise."""
    in_open = np.zeros(grid.n_nodes, dtype=bool)
    in_open[open_set] = True
    dist = dist_to_complement(grid, open_set)
    cubes = []
    stack = [Cube(grid, (0,) * grid.dim, grid.sizes[0])]
    while stack:
        cube = stack.pop()
        nodes = cube.node_set()
        inside = in_open[nodes]
        if not inside.any():
            continue
        if inside.all():
            if cube.nnodes == 1 or cube.sidelength <= WHITNEY_C2 * float(dist[nodes].min()):
                cubes.append(cube)
                continue
        half = cube.nnodes // 2
        for corner in np.ndindex(*(2,) * grid.dim):
            stack.append(Cube(grid, tuple(a + c * half for a, c in zip(cube.anchor, corner)), half))
    cubes.sort(key=lambda c: (-c.nnodes, c.anchor))
    return cubes


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("sizes", [(8,), (32,), (128,), (8, 8), (32, 32), (128, 128)], ids=str)
def test_whitney_matches_the_stack_walk(sizes, boundary):
    grid = Grid(len(sizes), sizes, 1.0 / sizes[0], boundary)
    rng = np.random.default_rng(grid.n_nodes)
    # smoothed noise, so the level sets hold runs and blobs of every size
    noise = rng.random(sizes)
    for a in range(grid.dim):
        noise = sum(np.roll(noise, r, axis=a) for r in range(-2, 3))
    noise = noise.ravel()
    sets = [np.array([], dtype=int), np.arange(grid.n_nodes)]
    sets += [np.flatnonzero(noise < np.quantile(noise, q)) for q in (0.05, 0.3, 0.6, 0.9, 0.99)]
    sets += [np.flatnonzero(rng.random(grid.n_nodes) < 0.7)]
    for open_set in sets:
        cubes = whitney_decompose(open_set, grid)
        assert cubes == walk_whitney(open_set, grid)
        assert sum(c.nnodes**grid.dim for c in cubes) == open_set.size


def test_whitney_full_grid_special_case(grid1d):
    cubes = whitney_decompose(np.arange(64), grid1d)
    assert len(cubes) == 1
    assert cubes[0].nnodes == 64


def test_whitney_empty_set(grid1d):
    assert whitney_decompose(np.array([], dtype=int), grid1d) == []


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("sizes", [(64,), (16, 16)], ids=["64", "16x16"])
def test_tent_labels_match_the_per_cube_masks(sizes, boundary):
    grid = Grid(len(sizes), sizes, 1.0 / sizes[0], boundary)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, 1))
    f = generate_corpus(op, "standard", 1, 0)[0]
    times = decomposition_times(op)
    _, _, s_h, labels, tents = decomposition._tents(f, op, 1, 0.5, times)
    # one (N, T) mask per Whitney cube: the cube column inside the tent over
    # its level's expanded set and outside the next level's tent
    s = s_h.values.real
    levels = range(math.floor(math.log2(s[s > 0].min())), math.ceil(math.log2(s.max())) + 2)
    expanded = {k: decomposition.density_expansion(np.nonzero(s > 2.0**k)[0], 0.5, grid) for k in levels}
    ts = times.samples
    d = {k: dist_to_complement(grid, o)[:, None] for k, o in expanded.items()}
    expected, masks = [], []
    for k in levels[:-1]:
        for j, cube in enumerate(whitney_decompose(expanded[k], grid)):
            in_cube = np.zeros((grid.n_nodes, 1), dtype=bool)
            in_cube[cube.node_set()] = True
            mask = in_cube & (d[k] >= ts) & ~(d[k + 1] >= ts)
            if mask.any():
                expected.append((k, j, calderon_constant(1) * 2.0**k * cube.volume, cube))
                masks.append(mask)
    assert len(tents) > 1 and tents == expected
    # the masks are disjoint because the expanded sets are nested
    assert np.sum(masks, axis=0).max() == 1
    assert labels.shape == (grid.n_nodes, ts.size)
    assert -1 <= labels.min() and labels.max() < len(tents)
    for i, mask in enumerate(masks):
        assert np.array_equal(labels == i, mask)


def test_decompose_reconstructs(op1d, grid1d):
    f = bump_field(grid1d)
    dec = molecular_decompose(f, op1d, M=1, times=decomposition_times(op1d))
    rel = lp_norm(dec.residual.values, grid1d, 2) / lp_norm(f.values, grid1d, 2)
    assert rel <= 1e-3
    assert dec.weight_sum > 0


def test_decompose_weight_formula_exact(op1d, grid1d):
    f = bump_field(grid1d)
    dec = molecular_decompose(f, op1d, M=1, times=decomposition_times(op1d))
    c1 = calderon_constant(1)
    for term in dec.terms:
        expected = c1 * 2.0**term.level * term.molecule.cube.volume
        assert term.weight == pytest.approx(expected, rel=1e-12)


def test_decompose_residual_shrinks_with_quadrature(op1d, grid1d):
    f = bump_field(grid1d)
    residuals = []
    for count in (16, 32, 64):
        dec = molecular_decompose(f, op1d, M=1, times=decomposition_times(op1d, count))
        residuals.append(lp_norm(dec.residual.values, grid1d, 2))
    assert residuals[0] > residuals[1] > residuals[2]


def test_decompose_scaling_quantized(op1d, grid1d):
    f = bump_field(grid1d)
    c = 3.0
    cf = ScalarField(c * f.values, grid1d)
    times = decomposition_times(op1d)
    base = molecular_decompose(f, op1d, M=1, times=times)
    scaled = molecular_decompose(cf, op1d, M=1, times=times)
    ratio = scaled.weight_sum / base.weight_sum
    # weights move by whole powers of two, so scaling is tracked only up to
    # a factor-2 quantization either way
    assert c / 2.0 <= ratio <= 2.0 * c


def test_decompose_rejects_nonzero_mean(op1d, grid1d):
    with pytest.raises(DegenerateFieldError):
        molecular_decompose(
            ScalarField(np.ones(64, dtype=complex), grid1d), op1d, M=1
        )


def test_decompose_validates_molecules(op1d, grid1d):
    f = bump_field(grid1d)
    dec = molecular_decompose(f, op1d, M=1, times=decomposition_times(op1d))
    assert dec.terms
    reports = [validate_molecule(t.molecule, op1d) for t in dec.terms]
    assert all(math.isfinite(rep.max_ratio) and rep.max_ratio > 0 for rep in reports)


def test_make_molecule_validates(op1d, grid1d):
    cube = Cube(grid1d, (12,), 8)
    seed = np.zeros(64, dtype=complex)
    seed[cube.node_set()] = 1.0
    seed *= cube.volume ** (-0.5) / (lp_norm(seed, grid1d, 2) * (1 + 1e-9))
    mol = make_molecule(ScalarField(seed, grid1d), cube, op1d, M=1)
    rep = validate_molecule(mol, op1d)
    assert rep.passes
    assert rep.max_ratio <= 1.0 + 1e-9


def _annulus_by_annulus(values, cube, op, p, eps, M):
    # the decay table one annulus and one power at a time, as max_ratio and passes
    grid = op.grid
    labels = cube.annulus_labels()
    ratios = []
    g = values
    for k in range(M + 1):
        if k > 0:
            g = semigroup.neg_power_apply(op, 1, ScalarField(g, grid)).values / cube.sidelength**2
        for i in range(labels.max() + 1):
            nodes = np.flatnonzero(labels == i)
            if nodes.size:
                measured = restricted_lp_norm(g, grid, nodes, p)
                ratios.append(measured / molecule_bound(i, grid, p, eps, cube))
    return max(ratios), all(r <= 1.0 + 1e-9 for r in ratios)


@pytest.mark.parametrize("p", [2.0, 1.5, math.inf])
@pytest.mark.parametrize(
    "sizes, boundary, anchor, nnodes",
    [
        ((64,), "periodic", (61,), 4),  # wraps the axis
        ((64,), "periodic", (12,), 8),
        ((16, 16), "dirichlet", (2, 10), 4),
        ((16, 16), "periodic", (14, 6), 4),  # wraps the first axis
    ],
)
def test_annular_table_matches_the_annulus_walk(sizes, boundary, anchor, nnodes, p):
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=1))
    cube = Cube(grid, anchor, nnodes)
    seed = np.zeros(grid.n_nodes, dtype=complex)
    seed[cube.node_set()] = np.linspace(1.0, 2.0, cube.node_set().size)
    seed *= cube.volume ** (-0.5) / (lp_norm(seed, grid, 2) * (1 + 1e-9))
    mol = make_molecule(ScalarField(seed, grid), cube, op, M=2, p=p)
    rng = np.random.default_rng(0)
    noise = rng.normal(size=grid.n_nodes) + 0j
    noise -= noise.mean()
    # a molecule passes, noise does not
    for values, passes in ((mol.field.values, True), (noise, False)):
        rep = _annular_table(values, cube, op, p, 1.0, 2)
        want, want_passes = _annulus_by_annulus(values, cube, op, p, 1.0, 2)
        assert abs(rep.max_ratio - want) <= 1e-14 * want
        assert rep.passes == want_passes == passes


def test_corpus_seeds_peak_at_their_cube_center(monkeypatch, op1d):
    # on cubes that wrap the periodic axis too, whose node coordinates do not
    # average to the center
    seeds = []
    monkeypatch.setattr(
        decomposition, "make_molecule", lambda f, cube, *args: seeds.append((f.values.real, cube))
    )
    molecule_corpus(op1d, 20, 7)
    wrapping = 0
    for v, cube in seeds:
        nodes = (cube.anchor[0] + np.arange(cube.nnodes)) % 64
        center = nodes[[cube.nnodes // 2 - 1, cube.nnodes // 2]]
        assert v[center].min() > 2 * v[nodes].min()
        wrapping += cube.anchor[0] + cube.nnodes > 64
    assert wrapping


def test_make_molecule_rejects_outside_support(op1d, grid1d):
    cube = Cube(grid1d, (12,), 8)
    seed = np.ones(64, dtype=complex) * 1e-3
    with pytest.raises(SupportError):
        make_molecule(ScalarField(seed, grid1d), cube, op1d, M=1)


def test_make_molecule_rejects_oversized_seed(op1d, grid1d):
    cube = Cube(grid1d, (12,), 8)
    seed = np.zeros(64, dtype=complex)
    seed[cube.node_set()] = 100.0
    with pytest.raises(ValueError):
        make_molecule(ScalarField(seed, grid1d), cube, op1d, M=1)


def test_h1_estimate_dominates_l1(op1d, grid1d):
    f = bump_field(grid1d)
    est = h1_norm_estimate(f, op1d, times=decomposition_times(op1d))
    assert est.estimate >= est.l1_norm
    assert est.s_h_l1 > 0
    assert est.estimate == pytest.approx(est.weight_sum + est.l1_norm)


def counting(monkeypatch, owner, name):
    """Replaces owner.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def random_op_16x16():
    grid = Grid(2, (16, 16), 1.0 / 16)
    return assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, 1))


@pytest.mark.parametrize("which", ["1d", "16x16-random"])
def test_h1_estimate_reads_only_the_tents(monkeypatch, op1d, grid1d, which):
    if which == "1d":
        op, f = op1d, bump_field(grid1d)
    else:
        op = random_op_16x16()
        f = generate_corpus(op, "standard", 1, 0)[0]
    times = decomposition_times(op)
    dec = molecular_decompose(f, op, M=1, times=times)
    krylov = counting(monkeypatch, semigroup.KrylovCalculus, "heat_poly")
    dense = counting(monkeypatch, semigroup.DenseCalculus, "heat_poly")
    est = h1_norm_estimate(f, op, times=times)
    assert krylov == dense == []
    assert est.weight_sum == dec.weight_sum
    assert est.s_h_l1 == lp_norm(dec.s_h.values, op.grid, 1)


def test_decompose_without_times_uses_the_reproduction_window():
    # default_time_grid's t_min = h/4 left a 1.05e-2 residual here
    op = random_op_16x16()
    f = generate_corpus(op, "standard", 1, 0)[0]
    dec = molecular_decompose(f, op, M=1)
    rel = lp_norm(dec.residual.values, op.grid, 2) / lp_norm(f.values, op.grid, 2)
    assert rel < 1e-3
    assert h1_norm_estimate(f, op).weight_sum == dec.weight_sum
    explicit = molecular_decompose(f, op, M=1, times=decomposition_times(op))
    assert dec.weight_sum == explicit.weight_sum


def test_molecule_corpus_builds_two_annular_tables_per_molecule(monkeypatch, op1d_random):
    calls = counting(monkeypatch, decomposition, "_annular_table")
    mols = molecule_corpus(op1d_random, 3, 7, M=1)
    for mol in mols:
        assert validate_molecule(mol, op1d_random).passes
    assert len(calls) == 2 * len(mols)
