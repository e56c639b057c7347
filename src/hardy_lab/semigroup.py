"""Operator functions of L: heat and Poisson semigroups, resolvents and
negative powers, and the time windows they are sampled on.

Every operator is served by one functional calculus, built once and cached
by `calculus(op)`.  The rule is: up to AUTO_DENSE_MAX nodes, eigendecompose
L and keep the eigenbasis if a certified bound on its error in
reconstructing a full matrix exponential is below 1e-10 (`DenseCalculus`,
`_reconstruction_error`); above that size, or when the check fails, use
sparse exponential actions and direct sparse solves (`KrylovCalculus`).
The size rule picks the solver with the backend: `KrylovCalculus` solves
resolvents and negative powers by sparse LU, `DenseCalculus` reads them
off the eigenbasis with one step of iterative refinement against L, so a
dense command factorizes nothing.  The calculus reads L only through the
operator: its stencil products in the refinement steps, the heat
polynomials and the reconstruction check, its dense array for `eig`, and
its CSR matrix for the sparse routes alone.  `scipy.linalg` (for `eig`),
`scipy.sparse` (for the CSR L) and `scipy.sparse.linalg` (for LU and
Krylov actions) are imported on first use: a command served by a cached
eigenbasis loads none of them.

A verified eigenbasis is also kept on disk, under
$XDG_CACHE_HOME/hardy-lab (~/.cache/hardy-lab when that is unset), so
later processes on the same L load it instead of calling `eig` again.  An
entry is keyed on the sha256 of the stencil arrays of L, the grid's
sizes and boundary, kernel_dim, the numpy and scipy versions, the BLAS
thread setting and the bytes of this file, so it holds what a fresh
build here would produce.  A loaded basis passes the same reconstruction
check as a built one; an entry that is missing, unreadable or fails the
check is rebuilt and replaced, and an unwritable directory only means
nothing is kept.  The directory is held under CACHE_MAX_BYTES by
deleting the least recently used entries.  `eigenvalues`, the fallback
for a basis that fails its check, neither reads nor writes it.

Functions of sqrt(L) are evaluated on the eigenbasis only.  L^{1/2} and
L^{-1/2} are the principal z^{1/2} and z^{-1/2} on the eigenvalues, the
latter 0 on the kernel.  The Poisson semigroup still goes through the
subordination formula

    e^{-t sqrt(L)} f = (1/sqrt(pi)) * int_0^inf u^{-1/2} e^{-u} e^{-t^2 L/(4u)} f du,

by a trapezoid rule in log u over `heat_batch`, which turns the endpoint
singularity and the exponential tail into doubly exponential decay; the
prefactor makes t = 0 the identity.  The rule stays while `perfbench`
counts its heat columns.  Its heat times reach ~1e16 t^2, out of reach of
a Krylov action, and a Krylov route has no z^{+-1/2}, so `KrylovCalculus`
refuses Poisson, L^{1/2} and L^{-1/2} alike.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import importlib
import math
import os
import platform
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .grid import Grid, GridError, ScalarField, lattice_distances
from .operator import DiscreteOperator

AUTO_DENSE_MAX = 1024
MAX_HEAT_POWER = 8
MAX_NEG_POWER = 8
DEFAULT_QUAD_NODES = 128
# the eigenbasis cache directory is held under this size; an entry at
# AUTO_DENSE_MAX nodes takes 32 MiB
CACHE_MAX_BYTES = 512 * 2**20


class _OnFirstUse:
    """A module imported on its first attribute access.  An attribute set
    on the proxy shadows the module's, so callers can still rebind one."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# only KrylovCalculus needs scipy.sparse (the CSR L) and scipy.sparse.linalg
# (splu, expm_multiply)
sp = _OnFirstUse("scipy.sparse")
spla = _OnFirstUse("scipy.sparse.linalg")


class ConvergenceError(RuntimeError):
    """A solver or quadrature failed to reach its tolerance."""


class KernelComponentError(ValueError):
    """Input has a component in the kernel of L where L is not invertible."""


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Log-uniform samples of t in (0, inf), with trapezoid weights in log t."""

    t_min: float
    t_max: float
    count: int

    def __post_init__(self):
        # the profiles run at the heat times t^2
        if not (0 < self.t_min < self.t_max and math.isfinite(self.t_max * self.t_max)):
            raise ValueError("need 0 < t_min < t_max with t_max^2 finite")
        if self.count < 16:
            raise ValueError("need count >= 16")

    @property
    def samples(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.count)

    @property
    def log_weights(self) -> np.ndarray:
        """Quadrature weights for integrals of the form int g(t) dt/t."""
        dlog = math.log(self.t_max / self.t_min) / (self.count - 1)
        w = np.full(self.count, dlog)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def default_time_grid(grid: Grid) -> TimeGrid:
    """64 times from a quarter mesh width up to four domain sides.

    Below grid scale and above domain scale every functional is resolution
    noise, so the range is clamped there.
    """
    return TimeGrid(grid.spacing / 4.0, 4.0 * max(grid.side_lengths), 64)


def tail_window(
    op: DiscreteOperator, power: int, constant: float, tail: float, t_max: float, count: int
) -> TimeGrid:
    """The window up to t_max for an identity

        constant * int_0^inf (t^2 lambda)^power e^{-b t^2 lambda} dt/t = 1   (b > 0)

    whose part below t_min, at most constant x^power / (2 power) with
    x = t_min^2 rho for Re lambda >= 0, is at most `tail`.  rho =
    `op.gershgorin_bound` bounds every |lambda|.

    `count` nodes serve a spectrum within pi/4 of the positive axis.  In
    log t the integrand is analytic on a strip of half-width
    (pi/2 - |arg lambda|)/2 and the trapezoid error decays like
    exp(-2 pi width / step), so on a wider sector (`op.sector` bounds
    |arg lambda|) the step shrinks in proportion to the strip.
    """
    x = (2 * power * tail / constant) ** (1.0 / power)
    if op.sector > math.pi / 4:
        count = 1 + math.ceil((count - 1) * (math.pi / 4) / (math.pi / 2 - op.sector))
    return TimeGrid(math.sqrt(x / op.gershgorin_bound), t_max, count)


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------


# L, and L bordered by the constants, have a symmetric sparsity pattern, so
# SuperLU orders the columns by minimum degree on A^T + A
_SYMMETRIC_ORDERING = "MMD_AT_PLUS_A"


class KrylovCalculus:
    """Functional calculus of one operator through sparse routes, at any size.

    Heat actions are Krylov exponential actions, a block in one call;
    resolvents and negative powers are sparse LU solves, factorized once
    per shift and kept for the life of the instance; on periodic grids the
    negative powers factorize L bordered by the constants, which keeps the
    pinned matrix sparse; functions of sqrt(L) are refused.  Inputs are a
    vector or, where stated, a block of columns.
    """

    def __init__(self, op: DiscreteOperator):
        # a twin sharing op's stencil, not op itself, so the weakly keyed
        # cache can drop op
        self.op = dataclasses.replace(op)
        self.kernel_dim, self.n = op.kernel_dim, op.n
        self._lu: dict = {}

    def heat(self, s: float, v: np.ndarray) -> np.ndarray:
        """e^{-sL} v for a vector or a block of columns."""
        if s == 0:
            return np.array(v, copy=True)
        try:
            return spla.expm_multiply(-s * self.op.matrix, v)
        except Exception as exc:  # pragma: no cover - scipy internal failure
            raise ConvergenceError(f"expm_multiply failed at t={s}: {exc}") from exc

    def heat_batch(self, times: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Columns e^{-s_j L} v for a vector v; shape (N, len(times))."""
        return np.stack([self.heat(float(s), v) for s in times], axis=1)

    def heat_poly(self, k: int, s: float, v: np.ndarray) -> np.ndarray:
        """(sL)^k e^{-sL} v for a vector or a block of columns."""
        out = self.heat(s, v)
        for _ in range(k):
            out = s * self.op.apply(out)
        return out

    def heat_profile(
        self, ts: np.ndarray, v: np.ndarray, k: int, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Columns (t^2 L)^k e^{-t^2 L} v over the times ts, at the node
        indices `rows` (every node when None): shape (R, len(ts)) for a
        vector v, (R, B, len(ts)) for an (N, B) block, one profile per
        column.  The full profile is computed, then its rows are taken."""
        if v.ndim == 2:
            return np.stack([self.heat_profile(ts, c, k, rows) for c in v.T], axis=1)
        out = self.heat_batch(ts**2, v)
        for _ in range(k):
            out = self.op.apply(out) * (ts**2)[None, :]
        return out if rows is None else out[rows]

    def _refuse(self, what: str):
        # a Krylov action's cost grows with its time, and the Poisson rule's
        # heat times reach ~1e16 t^2; z^{+-1/2} have no heat-type route here
        raise ConvergenceError(f"{what} needs the eigenbasis; n = {self.n} is served by Krylov")

    def poisson(self, t: float, v: np.ndarray) -> np.ndarray:
        """Refuses e^{-t sqrt(L)} v."""
        self._refuse("the Poisson semigroup")

    def sqrt(self, v: np.ndarray) -> np.ndarray:
        """Refuses L^{1/2} v."""
        self._refuse("L^{1/2}")

    def inv_sqrt(self, v: np.ndarray) -> np.ndarray:
        """Refuses L^{-1/2} v."""
        self._refuse("L^{-1/2}")

    def resolvent(self, s: float, v: np.ndarray) -> np.ndarray:
        """(I + sL)^{-1} v by sparse direct solve, residual-checked."""
        if s == 0:
            return np.array(v, copy=True)
        if s not in self._lu:
            mat = sp.identity(self.n, format="csc", dtype=complex) + s * self.op.matrix.tocsc()
            self._lu[s] = spla.splu(mat, permc_spec=_SYMMETRIC_ORDERING)
        return self._checked_resolvent(s, v, self._lu[s].solve(v))

    def _checked_resolvent(self, s: float, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out, unless its residual against (I + sL) out = v exceeds 1e-10."""
        resid = np.linalg.norm(out + s * self.op.apply(out) - v)
        scale = max(np.linalg.norm(v), 1e-300)
        if resid / scale > 1e-10:
            raise ConvergenceError(
                f"resolvent solve residual {resid / scale:.2e} exceeds 1e-10"
            )
        return out

    def neg_power(self, k: int, v: np.ndarray) -> np.ndarray:
        """L^{-k} v by k solves on the complement of the kernel.

        On periodic grids the sparse bordered matrix [[L, 1], [1^T, 0]] is
        factorized instead of L.  Its solution for (v, 0) is the mean-zero
        x with L x = v - mean(v), the multiplier absorbing the mean, so
        every solve lands on the mean-zero fields.  The input should be
        mean-zero (see `mean_zero`).
        """
        if "pinned" not in self._lu:
            mat = self.op.matrix.tocsc().astype(complex)
            if self.kernel_dim:
                ones = np.ones((self.n, 1))
                mat = sp.bmat([[mat, ones], [ones.T, None]], format="csc")
            self._lu["pinned"] = spla.splu(mat, permc_spec=_SYMMETRIC_ORDERING)
        for _ in range(k):
            if self.kernel_dim:
                v = np.append(v, 0.0)
            v = self._lu["pinned"].solve(v)[: self.n]
        return v

    def adjoint(self) -> "KrylovCalculus":
        """The calculus of L* = L^H: the same routes, with a fresh LU cache."""
        adj = copy.copy(self)
        adj.op = self.op.adjoint()
        adj._lu = {}
        return adj


class DenseCalculus(KrylovCalculus):
    """Functional calculus from one eigendecomposition L = V diag(w) V^{-1}.

    The eigenbasis comes from the on-disk cache when an entry for L exists
    and passes the check, and from `scipy.linalg.eig` otherwise, in which
    case it is stored after passing (see the module docstring).  Either
    way construction raises ConvergenceError unless the eigenbasis
    reconstructs e^{-t0 L} to 1e-10 in the relative Frobenius norm, as
    certified by an upper bound on that error from the residuals
    L V - V W and V V^{-1} - I (`_reconstruction_error`), so every
    instance has passed the check in its own process.  `source` says
    where the basis came from ("built" or "cache"), next to
    `reconstruction_error` (that bound) and `cache_key`.  V, V^{-1} and w
    are the only N x N state.  Functions of L are evaluated on the
    eigenvalues, and so are resolvents and negative powers, each followed
    by one refinement step against L that keeps it as accurate
    as an LU solve (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 12).
    """

    # an adjoint holds transposed views of V and V^{-1} and conjugates
    # every input and output (see `adjoint`)
    _conj = False

    def __init__(self, op: DiscreteOperator):
        super().__init__(op)
        self.cache_key = _cache_key(op)
        root = _cache_dir()
        path = None if root is None else root / f"{self.cache_key}.eig"
        basis = _load_eigenbasis(path, op.n)
        err = math.inf if basis is None else _reconstruction_error(op, *basis)
        self.source = "cache"
        if not err < 1e-10:
            basis = None  # release a failed entry before eig allocates
            basis = _build_eigenbasis(op)
            err = _reconstruction_error(op, *basis)
            if not err < 1e-10:
                raise ConvergenceError(f"eigenbasis reconstruction error {err:.2e} exceeds 1e-10")
            self.source = "built"
            _store_eigenbasis(path, basis)
        self.reconstruction_error = err
        w, self.v, self.vinv = basis
        self.w, self.kernel_mask = _pin_kernel(w, op.kernel_dim)

    def _apply_vals(
        self, vals: np.ndarray, f: np.ndarray, rows: np.ndarray | slice = slice(None)
    ) -> np.ndarray:
        """V[rows] (vals * V^{-1} f): vals of shape (N,) with a vector or a
        block f, or of shape (N, T) with a vector f; every row by default."""
        c = self.vinv @ (f.conj() if self._conj else f)
        if vals.ndim < c.ndim:
            vals = vals[:, None]
        elif c.ndim < vals.ndim:
            c = c[:, None]
        out = self.v[rows] @ ((vals.conj() if self._conj else vals) * c)
        return out.conj() if self._conj else out

    def heat(self, s: float, v: np.ndarray) -> np.ndarray:
        if s == 0:
            return np.array(v, copy=True)
        return self._apply_vals(np.exp(-s * self.w), v)

    def heat_batch(self, times: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._apply_vals(np.exp(-np.outer(self.w, times)), v)

    def heat_poly(self, k: int, s: float, v: np.ndarray) -> np.ndarray:
        return self._apply_vals((s * self.w) ** k * np.exp(-s * self.w), v)

    def heat_profile(
        self, ts: np.ndarray, v: np.ndarray, k: int, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """As `KrylovCalculus.heat_profile`.  Given rows, the symbol
        (t^2 w)^k e^{-t^2 w} is tabulated once, shape (N, len(ts)), and
        only V[rows] multiplies it, one input column at a time, so no
        (N, B, len(ts)) product is formed.  The full profile keeps
        `heat_batch` and stencil powers: `perfbench` counts its heat
        columns until ROADMAP item 1b moves the counts into the package."""
        if rows is None:
            return super().heat_profile(ts, v, k)
        x = np.outer(self.w, ts * ts)
        symbol = np.negative(x)
        np.exp(symbol, out=symbol)
        for _ in range(k):
            symbol *= x
        del x  # one (N, T) table lives through the column products
        if v.ndim == 1:
            return self._apply_vals(symbol, v, rows)
        return np.stack([self._apply_vals(symbol, c, rows) for c in v.T], axis=1)

    def resolvent(self, s: float, v: np.ndarray) -> np.ndarray:
        """(I + sL)^{-1} v: the symbol 1/(1 + s w), one refinement step,
        residual-checked."""
        if s == 0:
            return np.array(v, copy=True)
        symbol = 1.0 / (1.0 + s * self.w)
        out = self._apply_vals(symbol, v)
        out += self._apply_vals(symbol, v - out - s * self.op.apply(out))
        return self._checked_resolvent(s, v, out)

    def neg_power(self, k: int, v: np.ndarray) -> np.ndarray:
        """L^{-k} v by k applications of the symbol 1/w, 0 on the pinned
        kernel, each refined once against L.

        On periodic grids every application lands on the mean-zero fields,
        and the roundoff mean of its residual is removed before the
        refinement step.  The input should be mean-zero (see `mean_zero`).
        """
        symbol = self._inverse_off_kernel(self.w)
        for _ in range(k):
            out = self._apply_vals(symbol, v)
            resid = v - self.op.apply(out)
            if self.kernel_dim:
                resid -= resid.mean(axis=0)
            v = out + self._apply_vals(symbol, resid)
        return v

    def poisson(self, t: float, v: np.ndarray) -> np.ndarray:
        """e^{-t sqrt(L)} v by the subordination rule over heat_batch."""
        nodes, coeffs = _subordination_rule(DEFAULT_QUAD_NODES)
        return self.heat_batch((t * t) / (4.0 * nodes), v) @ coeffs

    def sqrt(self, v: np.ndarray) -> np.ndarray:
        """L^{1/2} v via the principal branch on the (accretive) spectrum."""
        return self._apply_vals(np.sqrt(self.w.astype(complex)), v)

    def inv_sqrt(self, v: np.ndarray) -> np.ndarray:
        """L^{-1/2} v for a mean-zero v: the principal branch of `sqrt`,
        inverted off the kernel and 0 on it."""
        return self._apply_vals(self._inverse_off_kernel(np.sqrt(self.w.astype(complex))), v)

    def _inverse_off_kernel(self, vals: np.ndarray) -> np.ndarray:
        """1 / vals off the kernel, 0 on it."""
        return np.where(self.kernel_mask, 0.0, 1.0 / np.where(self.kernel_mask, 1.0, vals))

    def adjoint(self) -> "DenseCalculus":
        """The calculus of L* = V^{-H} diag(conj w) V^H, from this eigenbasis.

        No copy of it either: with P = V^{-T} and Q = V^T, transposed views,
        g(L*) f = conj(P conj(g(conj w)) Q conj(f)) for every symbol g, so
        the adjoint holds P, Q and conj w and conjugates on the way in and
        out.  No eigendecomposition and no reconstruction check: conjugate
        transposition leaves the reconstruction error unchanged.
        """
        adj = super().adjoint()
        adj.w, adj.v, adj.vinv = self.w.conj(), self.vinv.T, self.v.T
        adj._conj = not self._conj
        return adj


def _build_eigenbasis(op: DiscreteOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, V, V^{-1}) of L by dense `eig` and `inv`, unchecked."""
    import scipy.linalg  # a cache hit never needs it

    a = op.toarray()
    w, v = scipy.linalg.eig(a)
    del a
    return w, v, scipy.linalg.inv(v)


# ---------------------------------------------------------------------------
# the on-disk eigenbasis cache
# ---------------------------------------------------------------------------

# environment variables that set how many threads the BLAS under `eig`
# uses: its roundoff, and so the basis, depends on that number
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cache_dir() -> Path | None:
    """$XDG_CACHE_HOME/hardy-lab, or ~/.cache/hardy-lab when that variable
    is unset or not absolute; None if no absolute directory results."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "hardy-lab" if os.path.isabs(base) else None


def _cache_key(op: DiscreteOperator) -> str:
    """sha256 of everything a fresh eigenbasis of op depends on here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    h = hashlib.sha256()
    for offset, part in op.stencil.items():
        h.update(repr(offset).encode())
        h.update(part.dtype.str.encode())
        h.update(np.ascontiguousarray(part))
    setting = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    h.update(
        repr(
            (op.grid.sizes, op.grid.boundary, op.kernel_dim, np.__version__, scipy.__version__,
             platform.machine(), cpus, sorted(setting.items()))
        ).encode()
    )
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()


def _load_eigenbasis(path: Path | None, n: int) -> tuple | None:
    """The unchecked (w, V, V^{-1}) stored at path, or None if the entry is
    missing, unreadable, truncated, or has the wrong shapes or dtypes."""
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            w, v, vinv = (np.lib.format.read_array(fh) for _ in range(3))
    except (OSError, ValueError):
        return None
    with contextlib.suppress(OSError):
        os.utime(path)  # recently used: evicted last
    # assembled operators are complex, and so is every array eig returns
    if (w.shape, v.shape, vinv.shape) != ((n,), (n, n), (n, n)) or any(
        a.dtype != np.complex128 for a in (w, v, vinv)
    ):
        return None
    return w, v, vinv


def _store_eigenbasis(path: Path | None, basis: tuple) -> None:
    """Writes w, V and V^{-1} to path as three .npy arrays in sequence.

    The arrays go to a temporary file that replaces the entry only when
    complete, so readers see the old entry or the new one.  Any OSError
    leaves the cache as it was, apart from a lost temporary file.
    """
    if path is None:
        return
    import tempfile  # only a miss writes; start-up of every command skips it

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            for arr in basis:
                np.save(fh, arr)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return
    _evict(path.parent)


def _evict(root: Path) -> None:
    """Deletes files of root, least recently modified first, until the rest
    fit in CACHE_MAX_BYTES."""
    files = []
    with contextlib.suppress(OSError), os.scandir(root) as it:
        for entry in it:
            with contextlib.suppress(OSError):
                if entry.is_file(follow_symlinks=False):
                    st = entry.stat(follow_symlinks=False)
                    files.append((st.st_mtime_ns, st.st_size, entry.path))
    kept = 0
    for _, size, name in sorted(files, reverse=True):
        kept += size
        if kept > CACHE_MAX_BYTES:
            with contextlib.suppress(OSError):
                os.unlink(name)


# columns per block of the reconstruction check: its working arrays are
# N x _CHECK_BLOCK, not N x N
_CHECK_BLOCK = 64


def _reconstruction_error(
    op: DiscreteOperator, w: np.ndarray, v: np.ndarray, vinv: np.ndarray
) -> float:
    """An upper bound on ||X - R||_F / ||R||_F, where X = V e^{-t0 W} V^{-1},
    R = e^{-t0 L}, W = diag(w) and t0 = 1/(max|w| + 1).

    The bound is certified by the residuals E1 = L V - V W and
    E2 = V V^{-1} - I.  Duhamel's formula (Higham, Functions of Matrices,
    SIAM 2008, sec. 10.1)

        V e^{-t0 W} - R V = int_0^t0 e^{-(t0 - s) L} E1 e^{-s W} ds

    and X - R = (V e^{-t0 W} - R V) V^{-1} + R E2 give

        ||X - R||_F <= t0 a b ||E1||_F ||V^{-1}||_F + a ||E2||_F,
        ||R||_F >= sqrt(N) e^{-t0 ||L||_2},  ||L||_2 <= sqrt(||L||_1 ||L||_inf),

    with a = e^{t0 max(0, -mu)} >= sup_{s <= t0} ||e^{-s L}||_2, since
    ||e^{-s L}||_2 <= e^{-s mu} for mu a lower bound on the spectrum of the
    Hermitian part (L + L^H)/2, here by Gershgorin, and
    b = e^{t0 max(0, -min Re w)}.  So the bound is never below the error it
    bounds.  The residuals are summed over all N columns, _CHECK_BLOCK at a
    time: one stencil product and one N x N x _CHECK_BLOCK product a block.
    """
    t0 = 1.0 / (float(np.abs(w).max()) + 1.0)
    norm2 = math.sqrt(op.norm_1 * op.gershgorin_bound)
    mu = op.hermitian_lower_bound
    # log of a / e^{-t0 ||L||_2}; t0 |w| < 1 keeps b below e
    growth = t0 * (max(0.0, -mu) + norm2)
    b = math.exp(t0 * max(0.0, -float(w.real.min())))
    e1 = e2 = 0.0
    for lo in range(0, w.size, _CHECK_BLOCK):
        hi = min(lo + _CHECK_BLOCK, w.size)
        block = v[:, lo:hi]
        e1 += float(np.linalg.norm(op.apply(block) - block * w[lo:hi])) ** 2
        prod = v @ vinv[:, lo:hi]
        prod[np.arange(lo, hi), np.arange(hi - lo)] -= 1.0
        e2 += float(np.linalg.norm(prod)) ** 2
    err = t0 * b * math.sqrt(e1 * np.vdot(vinv, vinv).real) + math.sqrt(e2)
    # past e^700 the factor overflows, and no roundoff-level residual passes
    return math.inf if growth > 700 else err * math.exp(growth) / math.sqrt(w.size)


def _pin_kernel(w: np.ndarray, kernel_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues with |w| <= 1e-10 max(|w|max, 1) set to exactly zero
    where L has a kernel, and that mask.

    Roundoff-level kernel eigenvalues blow up under the huge times of the
    subordination rule, and `heat_batch` exponentiates -t w unclamped; on
    Dirichlet grids w is returned as is.
    """
    mask = np.abs(w) <= 1e-10 * max(float(np.abs(w).max()), 1.0)
    return (np.where(mask, 0.0, w) if kernel_dim else w), mask


def eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """The eigenvalues of L, kernel pinned as in DenseCalculus, with no
    eigenvectors, inverse or reconstruction check: the spectrum where the
    eigenbasis failed its check and `calculus` fell back to Krylov."""
    import scipy.linalg

    return _pin_kernel(scipy.linalg.eigvals(op.toarray()), op.kernel_dim)[0]


_CALCULI: "weakref.WeakKeyDictionary[DiscreteOperator, KrylovCalculus]" = (
    weakref.WeakKeyDictionary()
)


def calculus(op: DiscreteOperator) -> KrylovCalculus:
    """The functional calculus serving op, built on first use and cached."""
    calc = _CALCULI.get(op)
    if calc is None:
        calc = _choose_calculus(op)
        _CALCULI[op] = calc
    return calc


def calculus_summary(op: DiscreteOperator) -> dict | None:
    """The backend serving op and, for the eigenbasis, its source, check
    error and cache key; None if no calculus was built for op."""
    calc = _CALCULI.get(op)
    if calc is None:
        return None
    if not isinstance(calc, DenseCalculus):
        return {"backend": "krylov"}
    return {
        "backend": "dense",
        "eigenbasis": calc.source,
        "reconstruction_error": calc.reconstruction_error,
        "cache_key": calc.cache_key,
    }


def _choose_calculus(op: DiscreteOperator) -> KrylovCalculus:
    if op.n <= AUTO_DENSE_MAX:
        try:
            return DenseCalculus(op)
        except ConvergenceError:
            pass
    return KrylovCalculus(op)


def _check_field(op: DiscreteOperator, f: ScalarField) -> np.ndarray:
    if f.grid != op.grid:
        raise GridError("field grid does not match operator grid")
    return f.values


# ---------------------------------------------------------------------------
# public operator applications
# ---------------------------------------------------------------------------


def heat_apply(op: DiscreteOperator, t: float, f: ScalarField) -> ScalarField:
    """e^{-tL} f."""
    if t < 0:
        raise ValueError("negative time")
    return ScalarField(calculus(op).heat(t, _check_field(op, f)), op.grid)


def heat_power_apply(
    op: DiscreteOperator, t: float, K: int, f: ScalarField
) -> ScalarField:
    """(t^2 L)^K e^{-t^2 L} f for K >= 1."""
    if not 1 <= K <= MAX_HEAT_POWER:
        raise ValueError(f"need 1 <= K <= {MAX_HEAT_POWER}")
    if t <= 0:
        raise ValueError("need t > 0")
    return ScalarField(calculus(op).heat_poly(K, t * t, _check_field(op, f)), op.grid)


def resolvent_apply(op: DiscreteOperator, t: float, f: ScalarField) -> ScalarField:
    """(I + t^2 L)^{-1} f, residual-checked."""
    return ScalarField(calculus(op).resolvent(t * t, _check_field(op, f)), op.grid)


def mean_zero(op: DiscreteOperator, v: np.ndarray) -> np.ndarray:
    """v with its kernel component removed, where L has one.

    On periodic grids the constants span the kernel of L, so inverse
    powers and the duality pairing exist only on mean-zero fields: a mean
    below 1e-10 max|v| is roundoff and is projected away, anything larger
    raises KernelComponentError.  On Dirichlet grids v is returned as is.
    """
    if not op.kernel_dim:
        return v
    mean = v.mean()
    if abs(mean) > 1e-10 * max(float(np.abs(v).max()), 1e-300):
        raise KernelComponentError(
            "kernel component: field is not mean-zero on a periodic grid"
        )
    return v - mean


def neg_power_apply(op: DiscreteOperator, k: int, f: ScalarField) -> ScalarField:
    """L^{-k} f by k successive solves on the complement of the kernel.

    The input passes through `mean_zero` first.
    """
    if not 1 <= k <= MAX_NEG_POWER:
        raise ValueError(f"need 1 <= k <= {MAX_NEG_POWER}")
    v = mean_zero(op, _check_field(op, f))
    return ScalarField(calculus(op).neg_power(k, v), op.grid)


def _subordination_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_i and coefficients c_i so that for every lambda >= 0

        e^{-t sqrt(lambda)} ~ sum_i c_i e^{-(t^2 lambda) / (4 u_i)}

    by log-substituted trapezoid on (1/sqrt(pi)) u^{-1/2} e^{-u} du.  The
    integrand decays doubly exponentially at both endpoints after the
    substitution, uniformly in t^2 lambda, so the rule converges
    geometrically where a Laguerre rule stalls for stiff spectra.
    """
    rule = TimeGrid(math.exp(-38.0), math.exp(4.0), count)
    nodes = rule.samples
    return nodes, rule.log_weights * np.sqrt(nodes) * np.exp(-nodes) / math.sqrt(math.pi)


def poisson_apply(op: DiscreteOperator, t: float, f: ScalarField) -> ScalarField:
    """e^{-t sqrt(L)} f; a KrylovCalculus raises ConvergenceError."""
    if t < 0:
        raise ValueError("negative time")
    return ScalarField(calculus(op).poisson(t, _check_field(op, f)), op.grid)


def sqrt_apply(op: DiscreteOperator, f: ScalarField) -> ScalarField:
    """L^{1/2} f."""
    return ScalarField(calculus(op).sqrt(_check_field(op, f)), op.grid)


# ---------------------------------------------------------------------------
# space-time profiles (substrate for the square/maximal functionals)
# ---------------------------------------------------------------------------


def heat_profile(
    op: DiscreteOperator, f: ScalarField, times: TimeGrid, K: int = 0
) -> np.ndarray:
    """Columns (t^2 L)^K e^{-t^2 L} f over the time grid; shape (N, T)."""
    return calculus(op).heat_profile(times.samples, _check_field(op, f), K)


def poisson_profile(op: DiscreteOperator, f: ScalarField, times: TimeGrid) -> np.ndarray:
    """Columns e^{-t sqrt(L)} f over the time grid; shape (N, T)."""
    cols = [poisson_apply(op, float(t), f).values for t in times.samples]
    return np.stack(cols, axis=1)


def set_distance(grid: Grid, E: np.ndarray, F: np.ndarray) -> float:
    """The lattice distance between two node sets."""
    return float(lattice_distances(grid, E, F).min())
