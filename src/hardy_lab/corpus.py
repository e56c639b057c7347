"""Deterministic corpora of test fields.

`generate_corpus` returns mean-zero, L^2-normalized scalar fields of one
kind.  The one kind, "standard", is a single smooth raised-cosine bump
with randomized center, width and sign; it is the corpus behind every
field experiment.  `molecule_corpus` builds molecules on dyadic cubes.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridError, ScalarField, lp_norm
from .operator import DiscreteOperator
from . import decomposition

CORPUS_KINDS = ("standard",)


def _periodic_offsets(grid: Grid, center: np.ndarray) -> np.ndarray:
    """Per-node distance to a physical center point, shape (N,)."""
    coords = grid.coords()
    d2 = np.zeros(grid.n_nodes)
    for a in range(grid.dim):
        diff = np.abs(coords[:, a] - center[a])
        if grid.boundary == "periodic":
            side = grid.side_lengths[a]
            diff = np.minimum(diff, side - diff)
        d2 += diff**2
    return np.sqrt(d2)


def _cos_bump(grid: Grid, center: np.ndarray, width: float) -> np.ndarray:
    d = _periodic_offsets(grid, center)
    return np.where(d < width, np.cos(np.pi * d / (2 * width)) ** 2, 0.0)


def _normalize(values: np.ndarray, grid: Grid) -> ScalarField:
    v = np.asarray(values, dtype=complex)
    v = v - v.mean()
    n = lp_norm(v, grid, 2)
    if n == 0:
        raise ValueError("degenerate corpus field")
    return ScalarField(v / n, grid)


def molecule_corpus(
    op: DiscreteOperator,
    count: int,
    seed: int,
    M: int = 1,
    eps: float = 1.0,
    p: float = 2.0,
) -> list:
    """Deterministic molecules seeded by bumps on randomly chosen cubes.

    Seeds are raised-cosine profiles supported in a cube of the dyadic
    family, scaled to the admissible L^2 size, then pushed through the heat
    cancellation factor at the cube's own sidelength.
    """
    if count < 1:
        raise ValueError("empty corpus")
    from .spaces import dyadic_cubes

    grid = op.grid
    rng = np.random.default_rng(seed)
    # moderate scales only: on the largest cubes l(Q)^2 exceeds the inverse
    # spectral gap and the cancellation factor annihilates the seed
    cubes = [
        c
        for c in dyadic_cubes(grid)
        if 4 <= c.nnodes <= min(grid.sizes) // 4
    ]
    if not cubes:
        raise GridError("grid too small for a molecule corpus")
    out = []
    for _ in range(count):
        cube = cubes[int(rng.integers(len(cubes)))]
        nodes = cube.node_set()
        # the cube's own center, which a mean of its node coordinates misses
        # when the cube wraps a periodic axis
        center = (np.array(cube.anchor) + (cube.nnodes - 1) / 2) * grid.spacing
        raw = np.zeros(grid.n_nodes, dtype=complex)
        raw[nodes] = _cos_bump(grid, center, 0.5 * cube.sidelength)[nodes] + 1e-3
        raw *= cube.volume ** (-0.5) / (lp_norm(raw, grid, 2) * (1 + 1e-9))
        out.append(
            decomposition.make_molecule(
                ScalarField(raw, grid), cube, op, M, eps, p
            )
        )
    return out


def generate_corpus(
    op: DiscreteOperator, kind: str, count: int, seed: int
) -> list:
    """Deterministic list of fields for one generator kind."""
    if kind not in CORPUS_KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}")
    if count < 1:
        raise ValueError("empty corpus")
    grid = op.grid
    rng = np.random.default_rng(seed)
    side = max(grid.side_lengths)
    fields = []
    for _ in range(count):
        center = np.array([rng.uniform(0, s) for s in grid.side_lengths])
        width = rng.uniform(0.18, 0.3) * side
        sign = rng.choice([-1.0, 1.0])
        fields.append(_normalize(sign * _cos_bump(grid, center, width), grid))
    return fields
