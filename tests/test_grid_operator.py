"""Grids, coefficient fields, cubes and the assembled operator."""

import math

import numpy as np
import pytest

from hardy_lab import (
    CoefficientField,
    Cube,
    Grid,
    GridError,
    check_ellipticity,
    full_grid_cube,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
    assemble_operator,
)
from hardy_lab.grid import NonEllipticError, lattice_distances, offset_lengths
from hardy_lab.semigroup import calculus


def test_grid_rejects_tiny_axes():
    with pytest.raises(GridError):
        Grid(1, (4,), 0.25)


def test_grid_rejects_mismatched_dim():
    with pytest.raises(GridError):
        Grid(2, (16,), 1.0 / 16)


@pytest.mark.parametrize(
    "dim, spacing",
    [(2, 1e-170), (2, 1e200), (1, 0.0), (1, -0.5), (2, math.nan), (1, math.inf)],
    ids=["underflow", "overflow", "zero", "negative", "nan", "inf"],
)
def test_grid_rejects_spacing_without_a_finite_cell_volume(dim, spacing):
    # the cell volume spacing**dim must be a positive finite float
    with pytest.raises(GridError):
        Grid(dim, (16,) * dim, spacing)


def test_grid_accepts_a_small_but_representable_cell_volume():
    assert Grid(2, (16, 16), 1e-150).cell_volume == 1e-150**2
    assert Grid(1, (16,), 1e200).cell_volume == 1e200


def test_distance_matrix_periodic_wrap(grid1d):
    d = grid1d.distance_matrix()
    assert d[0, 63] == pytest.approx(grid1d.spacing)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_distance_matrix_dirichlet_no_wrap():
    g = Grid(1, (16,), 1.0 / 16, "dirichlet")
    d = g.distance_matrix()
    assert d[0, 15] == pytest.approx(15.0 / 16)


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
def test_lattice_distances_match_distance_matrix(grid):
    rng = np.random.default_rng(grid.n_nodes)
    d = grid.distance_matrix()
    for size_a, size_b in ((1, 1), (5, 17), (30, 3)):
        a = rng.choice(grid.n_nodes, size_a, replace=False)
        b = rng.choice(grid.n_nodes, size_b, replace=False)
        assert np.array_equal(lattice_distances(grid, a, b), d[np.ix_(a, b)])


OFFSET_GRIDS = [
    Grid(1, (12,), 0.1),
    Grid(1, (9,), 0.1, "dirichlet"),
    Grid(2, (9, 12), 1.0 / 12),
    Grid(2, (9, 12), 1.0 / 12, "dirichlet"),
    Grid(2, (8, 11), 0.3),
    Grid(2, (8, 11), 0.3, "dirichlet"),
]
OFFSET_IDS = [f"{'x'.join(map(str, g.sizes))}-{g.boundary}" for g in OFFSET_GRIDS]


def signed_offset(k, n, periodic):
    """The offset that index k of an n-node axis holds; None past a Dirichlet edge."""
    if periodic:
        return min(k, n - k)
    return None if k == n else (k if k < n else k - 2 * n)


@pytest.mark.parametrize("grid", OFFSET_GRIDS, ids=OFFSET_IDS)
def test_offset_lengths_match_explicit_offsets(grid):
    periodic = grid.boundary == "periodic"
    lengths = offset_lengths(grid)
    assert lengths.shape == tuple(n if periodic else 2 * n for n in grid.sizes)
    for index in np.ndindex(lengths.shape):
        offset = [signed_offset(k, n, periodic) for k, n in zip(index, grid.sizes)]
        if None in offset:
            assert lengths[index] == math.inf
        else:
            assert lengths[index] == math.sqrt(sum(o * o for o in offset)) * grid.spacing


@pytest.mark.parametrize("grid", OFFSET_GRIDS, ids=OFFSET_IDS)
def test_lattice_distances_match_node_coordinates(grid):
    # per axis |i - j|, wrapped on a torus, then the float root of the squared sum
    idx = [np.arange(n) for n in grid.sizes]
    idx = [m.ravel() for m in np.meshgrid(*idx, indexing="ij")]
    d2 = np.zeros((grid.n_nodes, grid.n_nodes))
    for i, n in zip(idx, grid.sizes):
        diff = np.abs(i[:, None] - i[None, :])
        d2 += (np.minimum(diff, n - diff) if grid.boundary == "periodic" else diff) ** 2
    every = np.arange(grid.n_nodes)
    assert np.array_equal(lattice_distances(grid, every, every), np.sqrt(d2) * grid.spacing)


def test_random_coefficients_are_elliptic(grid1d):
    coeff = random_elliptic_coefficients(grid1d, 0.5, 2.0, seed=1)
    lam, Lam = check_ellipticity(coeff)
    assert lam >= 0.5 - 1e-12
    assert Lam <= 2.0 + 1e-12


def test_non_elliptic_coefficients_rejected(grid1d):
    mats = np.zeros((grid1d.n_nodes, 1, 1), dtype=complex)
    with pytest.raises(NonEllipticError):
        check_ellipticity(CoefficientField(grid1d, mats))


def test_operator_annihilates_constants(op1d_random):
    ones = np.ones(op1d_random.n)
    assert np.abs(op1d_random.matrix @ ones).max() < 1e-12


def test_adjoint_matches_inner_product(op1d_random, grid1d):
    rng = np.random.default_rng(5)
    f = rng.normal(size=64) + 1j * rng.normal(size=64)
    g = rng.normal(size=64) + 1j * rng.normal(size=64)
    calc = calculus(op1d_random)
    lhs = np.vdot(g, calc.heat(0.01, f))  # <e^{-sL} f, g>
    rhs = np.vdot(calc.adjoint().heat(0.01, g), f)  # <f, e^{-sL*} g>
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_identity_operator_is_laplacian(op1d, grid1d):
    # second difference of a plane wave has symbol (2/h sin(pi k h))^2
    k = 3
    x = grid1d.coords()[:, 0]
    wave = np.exp(2j * np.pi * k * x)
    sym = (2.0 / grid1d.spacing * np.sin(np.pi * k * grid1d.spacing)) ** 2
    assert np.allclose(op1d.matrix @ wave, sym * wave, atol=1e-8 * sym)


def test_lp_norm_scaling(grid1d):
    v = np.ones(grid1d.n_nodes)
    assert lp_norm(v, grid1d, 2) == pytest.approx(1.0)
    assert lp_norm(3 * v, grid1d, 1) == pytest.approx(3.0)


def test_cube_node_set_wraps(grid1d):
    c = Cube(grid1d, (62,), 4)
    assert sorted(c.node_set()) == [0, 1, 62, 63]


def test_cube_dilation_and_annuli(grid1d):
    c = Cube(grid1d, (30,), 4)
    labels = c.annulus_labels()
    inner = set(c.node_set())
    first = set(Cube(grid1d, (28,), 8).node_set())  # 2Q: same center, twice the side
    assert inner < first
    assert set(np.flatnonzero(labels == 0)) == inner
    assert set(np.flatnonzero(labels == 1)) == first - inner


def _dilated_node_set(cube, dilation):
    # the node set of 2^dilation Q, as the cube's annuli were built from
    m = cube.nnodes
    count = m * 2**dilation
    per_axis = [
        cube._axis_nodes(a, cube.anchor[a] - (count - m) // 2, count)
        for a in range(cube.grid.dim)
    ]
    if any(ax.size == 0 for ax in per_axis):
        return np.empty(0, dtype=int)
    flat = per_axis[0]
    for nodes, size in zip(per_axis[1:], cube.grid.sizes[1:]):
        flat = (flat[:, None] * size + nodes[None, :]).ravel()
    return np.unique(flat)


def _reference_annuli(cube):
    sets = [_dilated_node_set(cube, 0)]
    cap = 4 * max(cube.grid.sizes)
    while sets[-1].size < cube.grid.n_nodes and 2 ** (len(sets) - 1) <= cap:
        sets.append(_dilated_node_set(cube, len(sets)))
    return sets[:1] + [
        np.setdiff1d(outer, inner, assume_unique=True) for inner, outer in zip(sets, sets[1:])
    ]


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("sizes", [(64,), (37,), (16, 16), (20, 12), (8, 8), (9, 31)])
def test_annulus_labels_match_the_dilated_node_sets(sizes, boundary):
    grid = Grid(len(sizes), sizes, 1.0 / max(sizes), boundary)
    rng = np.random.default_rng(sum(sizes))
    for draw in range(50):
        m = int(rng.integers(1, min(sizes) + 1))
        # anchors from a cube's width before the grid to past its end: cubes
        # that wrap a periodic axis or lose nodes to a Dirichlet edge; then
        # some far off the grid, which leave Dirichlet nodes outside every annulus
        far = 3 if draw >= 40 else 0
        anchor = tuple(int(rng.integers(-m - far * s, s + 2 + far * s)) for s in sizes)
        cube = Cube(grid, anchor, m)
        labels = cube.annulus_labels()
        annuli = _reference_annuli(cube)
        held = np.zeros(grid.n_nodes, dtype=bool)
        for i, nodes in enumerate(annuli):
            assert np.array_equal(np.flatnonzero(labels == i), nodes)
            held[nodes] = True
        assert np.array_equal(labels == len(annuli), ~held)
        if far == 0:
            assert held.all()


def test_full_grid_cube_covers_everything(grid2d):
    c = full_grid_cube(grid2d)
    assert c.node_set().size == grid2d.n_nodes


def test_cube_volume(grid2d):
    c = Cube(grid2d, (0, 0), 4)
    assert c.volume == pytest.approx((4.0 / 16) ** 2)


def test_operator_2d_assembly(op2d, grid2d):
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid2d.n_nodes)
    out = op2d.matrix @ f
    assert out.shape == (grid2d.n_nodes,)
    assert abs(out.mean()) < 1e-12 * np.abs(out).max()


STENCIL_GRIDS = [
    Grid(1, (37,), 1.0 / 37),
    Grid(1, (37,), 1.0 / 38, "dirichlet"),
    Grid(2, (12, 9), 1.0 / 12),
    Grid(2, (12, 9), 1.0 / 13, "dirichlet"),
]


def forward_differences(grid):
    """The forward-difference matrices G_a, one per axis, built by Kronecker
    products of the 1D shift with identities (a zero ghost value past a
    Dirichlet edge)."""
    import scipy.sparse as sp

    mats = []
    for a in range(grid.dim):
        factors = [sp.identity(n, format="csr") for n in grid.sizes]
        n = grid.sizes[a]
        shift = sp.eye(n, k=1, format="lil")
        if grid.boundary == "periodic":
            shift[n - 1, 0] = 1.0
        factors[a] = (shift.tocsr() - sp.identity(n)) / grid.spacing
        m = factors[0]
        for f in factors[1:]:
            m = sp.kron(m, f, format="csr")
        mats.append(m.tocsr())
    return mats


@pytest.mark.parametrize("kind", ["identity", "random"])
@pytest.mark.parametrize("grid", STENCIL_GRIDS, ids=lambda g: f"{g.dim}d-{g.boundary}")
def test_stencil_matches_the_csr_built_from_it(grid, kind):
    import scipy.sparse as sp

    coeff = (
        identity_coefficients(grid)
        if kind == "identity"
        else random_elliptic_coefficients(grid, 0.5, 2.0, seed=4)
    )
    op = assemble_operator(grid, coeff)
    mat = op.matrix
    rng = np.random.default_rng(1)
    v = rng.normal(size=(grid.n_nodes, 24)) + 1j * rng.normal(size=(grid.n_nodes, 24))
    tol = 1e-14 * op.gershgorin_bound * np.abs(v).max()
    for x in (v[:, 0], v[:, :5], v[:, 7:19]):  # a vector, a block, a strided view
        assert np.abs(op.apply(x) - mat @ x).max() <= tol
    adj = op.adjoint()
    assert abs(adj.matrix - mat.conj().T).max() == 0
    assert np.abs(adj.apply(v[:, 3:9]) - mat.conj().T @ v[:, 3:9]).max() <= tol
    assert np.array_equal(op.toarray(), mat.toarray())
    # L = sum_ab G_a^H diag(A_ab) G_b, with the forward differences the
    # gradient and the Gershgorin bound must match
    grads = forward_differences(grid)
    ref = sum(
        grads[a].conj().T @ sp.diags(coeff.matrices[:, a, b]) @ grads[b]
        for a in range(grid.dim)
        for b in range(grid.dim)
    )
    assert abs(mat - ref).max() <= 1e-15 * op.gershgorin_bound
    for x in (v[:, 0], v[:, 2:6]):
        assert np.abs(op.gradient(x) - np.stack([g @ x for g in grads])).max() <= tol
    absolute = abs(mat)
    assert op.gershgorin_bound == pytest.approx(absolute.sum(axis=1).max(), rel=1e-14)
    assert op.norm_1 == pytest.approx(absolute.sum(axis=0).max(), rel=1e-14)
    herm = (mat + mat.conj().T) / 2
    centre = herm.diagonal().real
    mu = (centre - (np.asarray(abs(herm).sum(axis=1)).ravel() - np.abs(centre))).min()
    assert op.hermitian_lower_bound == pytest.approx(mu, abs=1e-14 * op.gershgorin_bound)


@pytest.mark.parametrize("grid", STENCIL_GRIDS, ids=lambda g: f"{g.dim}d-{g.boundary}")
def test_a_column_of_a_stencil_product_has_the_same_bits_in_any_block(grid):
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=4))
    rng = np.random.default_rng(2)
    v = rng.normal(size=(grid.n_nodes, 150)) + 1j * rng.normal(size=(grid.n_nodes, 150))
    whole = op.apply(v)
    for j in range(0, 150, 7):
        assert np.array_equal(op.apply(v[:, j]), whole[:, j])
    for width in (3, 5, 16, 64):
        for lo in range(0, 150 - width, 11):
            cols = slice(lo, lo + width)
            assert np.array_equal(op.apply(v[:, cols]), whole[:, cols])
            assert np.array_equal(op.apply(np.ascontiguousarray(v[:, cols])), whole[:, cols])
    for cols in (slice(1, None, 3), slice(None, None, -1)):  # strided views
        assert np.array_equal(op.apply(v[:, cols]), whole[:, cols])
    assert np.array_equal(op.apply(np.asfortranarray(v)), whole)


@pytest.mark.parametrize("grid", STENCIL_GRIDS, ids=lambda g: f"{g.dim}d-{g.boundary}")
def test_nan_on_one_face_reaches_the_opposite_face_only_on_a_torus(grid):
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=4))
    u = np.zeros(grid.sizes, dtype=complex)
    u[0] = np.nan  # the face where the first index is 0
    # L, L^H and the difference along the first axis all read x -/+ e_0
    outs = [op.apply(u.ravel()), op.adjoint().apply(u.ravel()), op.gradient(u.ravel())[0]]
    for out in outs:
        reached = np.isnan(out.reshape(grid.sizes)[-1]).any()
        assert reached == (grid.boundary == "periodic")


def test_stencil_products_make_no_per_entry_temporary():
    import tracemalloc

    grid = Grid(2, (32, 32), 1.0 / 32)
    op = assemble_operator(grid, random_elliptic_coefficients(grid, 0.5, 2.0, seed=4))
    v = np.ones((grid.n_nodes, 128), dtype=complex)
    op.apply(v[:, :64])  # plan the pieces outside the trace
    block = 16 * grid.n_nodes * 64
    tracemalloc.start()
    try:
        op.apply(v[:, 32:96])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, one scratch block and numpy's ufunc buffers; an (nnz, 64)
    # gather would take 7 blocks
    assert peak <= 3 * block
