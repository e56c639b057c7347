"""Operator functions of L: heat and Poisson semigroups, resolvents,
negative powers, and measured off-diagonal decay profiles.

Every operator is served by one functional calculus, built once and cached
by `calculus(op)`.  The rule is: up to AUTO_DENSE_MAX nodes, eigendecompose
L and keep the eigenbasis if it reconstructs a full matrix exponential to
1e-10 (`DenseCalculus`); above that size, or when the check fails, use
sparse exponential actions and direct sparse solves (`KrylovCalculus`).
Both backends share the sparse LU routes for resolvents and negative
powers.

Functions of sqrt(L) are evaluated on the eigenbasis only.  The Poisson
semigroup goes through the subordination formula

    e^{-t sqrt(L)} f = (1/sqrt(pi)) * int_0^inf u^{-1/2} e^{-u} e^{-t^2 L/(4u)} f du,

and L^{-1/2}, on the complement of the kernel, through

    L^{-1/2} f = (1/sqrt(pi)) * int_0^inf e^{-sL} f ds/sqrt(s),

each by a trapezoid rule in log u (log s), which turns the endpoint
singularities and the exponential tails into doubly exponential decay;
the prefactors make t = 0 the identity and L^{-1/2} L^{1/2} = I exact on
eigenmodes.  Their heat times reach ~1e16 t^2 and 50 / lambda_min, out of
reach of a Krylov action, so `KrylovCalculus` refuses Poisson, L^{1/2}
and L^{-1/2} alike.
"""

from __future__ import annotations

import copy
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, GridError, ScalarField, lattice_distances, lp_norm, restricted_lp_norm
from .operator import DiscreteOperator

AUTO_DENSE_MAX = 1024
MAX_HEAT_POWER = 8
MAX_NEG_POWER = 8
DEFAULT_QUAD_NODES = 128


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
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
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


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------


class KrylovCalculus:
    """Functional calculus of one operator through sparse routes, at any size.

    Heat actions are Krylov exponential actions, one column at a time;
    resolvents and negative powers are sparse LU solves, factorized once
    per shift and kept for the life of the instance; on periodic grids the
    negative powers factorize L bordered by the constants, which keeps the
    pinned matrix sparse; functions of sqrt(L) are refused.  Inputs are a
    vector or, where stated, a block of columns.
    """

    def __init__(self, op: DiscreteOperator):
        # no reference to op itself, so the weakly keyed cache can drop it
        self.matrix, self.kernel_dim = op.matrix, op.kernel_dim
        self.n = op.n
        self._lu: dict = {}

    def heat(self, s: float, v: np.ndarray) -> np.ndarray:
        """e^{-sL} v for a vector or a block of columns."""
        if s == 0:
            return np.array(v, copy=True)
        if v.ndim == 2:
            return np.stack([self.heat(s, col) for col in v.T], axis=1)
        try:
            return spla.expm_multiply(-s * self.matrix, v)
        except Exception as exc:  # pragma: no cover - scipy internal failure
            raise ConvergenceError(f"expm_multiply failed at t={s}: {exc}") from exc

    def heat_batch(self, times: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Columns e^{-s_j L} v for a vector v; shape (N, len(times))."""
        return np.stack([self.heat(float(s), v) for s in times], axis=1)

    def heat_poly(self, k: int, s: float, v: np.ndarray) -> np.ndarray:
        """(sL)^k e^{-sL} v for a vector or a block of columns."""
        out = self.heat(s, v)
        for _ in range(k):
            out = s * (self.matrix @ out)
        return out

    def heat_profile(self, ts: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
        """Columns (t^2 L)^k e^{-t^2 L} v for a vector v; shape (N, len(ts))."""
        out = self.heat_batch(ts**2, v)
        for _ in range(k):
            out = (self.matrix @ out) * (ts**2)[None, :]
        return out

    def _refuse(self, what: str):
        # a Krylov action's cost grows with its time, and these rules' heat
        # times reach ~1e16 t^2 (Poisson) or 50 / lambda_min (L^{-1/2})
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
            mat = sp.identity(self.n, format="csc", dtype=complex) + s * self.matrix.tocsc()
            self._lu[s] = spla.splu(mat)
        out = self._lu[s].solve(v)
        resid = np.linalg.norm(out + s * (self.matrix @ out) - v)
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
            mat = self.matrix.tocsc().astype(complex)
            if self.kernel_dim:
                ones = np.ones((self.n, 1))
                mat = sp.bmat([[mat, ones], [ones.T, None]], format="csc")
            self._lu["pinned"] = spla.splu(mat)
        for _ in range(k):
            if self.kernel_dim:
                v = np.append(v, 0.0)
            v = self._lu["pinned"].solve(v)[: self.n]
        return v

    def adjoint(self) -> "KrylovCalculus":
        """The calculus of L* = L^H: the same routes, with a fresh LU cache."""
        adj = copy.copy(self)
        adj.matrix = self.matrix.conj().T.tocsr()
        adj._lu = {}
        return adj


class DenseCalculus(KrylovCalculus):
    """Functional calculus from one eigendecomposition L = V diag(w) V^{-1}.

    Construction raises ConvergenceError unless the eigenbasis reconstructs
    e^{-t0 L} to 1e-10 in the Frobenius norm, against a Taylor series of
    the sparse L (`_reconstruction_error`).  V, V^{-1} and w are the only
    N x N state.  Functions of L are evaluated on the eigenvalues;
    resolvents and negative powers keep the sparse LU routes.
    """

    # an adjoint holds transposed views of V and V^{-1} and conjugates
    # every input and output (see `adjoint`)
    _conj = False

    def __init__(self, op: DiscreteOperator):
        super().__init__(op)
        a = op.matrix.toarray()
        w, v = scipy.linalg.eig(a)
        del a
        vinv = scipy.linalg.inv(v)
        err = _reconstruction_error(op.matrix, w, v, vinv)
        if not err < 1e-10:
            raise ConvergenceError(f"eigenbasis reconstruction error {err:.2e} exceeds 1e-10")
        w, self.kernel_mask = _pin_kernel(w, op.kernel_dim)
        self.w, self.v, self.vinv = w, v, vinv

    def _apply_vals(self, vals: np.ndarray, f: np.ndarray) -> np.ndarray:
        """V (vals * V^{-1} f): vals of shape (N,) with a vector or a block
        f, or of shape (N, T) with a vector f."""
        c = self.vinv @ (f.conj() if self._conj else f)
        if vals.ndim < c.ndim:
            vals = vals[:, None]
        elif c.ndim < vals.ndim:
            c = c[:, None]
        out = self.v @ ((vals.conj() if self._conj else vals) * c)
        return out.conj() if self._conj else out

    def heat(self, s: float, v: np.ndarray) -> np.ndarray:
        if s == 0:
            return np.array(v, copy=True)
        return self._apply_vals(np.exp(-s * self.w), v)

    def heat_batch(self, times: np.ndarray, v: np.ndarray) -> np.ndarray:
        ex = -np.outer(self.w, times)
        # roundoff can push a kernel eigenvalue slightly negative; the
        # true spectrum is accretive, so clamp the growth direction
        ex.real = np.minimum(ex.real, 0.0)
        return self._apply_vals(np.exp(ex), v)

    def heat_poly(self, k: int, s: float, v: np.ndarray) -> np.ndarray:
        return self._apply_vals((s * self.w) ** k * np.exp(-s * self.w), v)

    def poisson(self, t: float, v: np.ndarray) -> np.ndarray:
        """e^{-t sqrt(L)} v by the subordination rule over heat_batch."""
        nodes, coeffs = _subordination_rule(DEFAULT_QUAD_NODES)
        return self.heat_batch((t * t) / (4.0 * nodes), v) @ coeffs

    def sqrt(self, v: np.ndarray) -> np.ndarray:
        """L^{1/2} v via the principal branch on the (accretive) spectrum."""
        return self._apply_vals(np.sqrt(self.w.astype(complex)), v)

    def inv_sqrt(self, v: np.ndarray) -> np.ndarray:
        """L^{-1/2} v for a mean-zero v, by 96 nodes in log s over heat_batch.

        The s-window comes from the eigenvalues: the integrand is ~sqrt(s)
        below 1/lambda_max and ~e^{-s lambda_min} above 1/lambda_min, and
        both tails are pushed below 1e-8.
        """
        w = np.abs(self.w)
        lam_min = float(w[~self.kernel_mask].min())
        s, weights = _log_trapezoid(math.log(1e-16 / w.max()), math.log(50.0 / lam_min), 96)
        return self.heat_batch(s, v) @ (weights * np.sqrt(s)) / math.sqrt(math.pi)

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


# columns per block of the reconstruction check: its working arrays are
# N x _CHECK_BLOCK, not N x N
_CHECK_BLOCK = 64


def _reconstruction_error(
    matrix: sp.spmatrix, w: np.ndarray, v: np.ndarray, vinv: np.ndarray
) -> float:
    """||V e^{-t0 w} V^{-1} - e^{-t0 L}||_F / ||e^{-t0 L}||_F, t0 = 1/(max|w| + 1).

    All N columns are compared, _CHECK_BLOCK at a time, and the squared
    norms summed.  The reference columns e^{-t0 L} e_j are a Taylor series
    of the sparse L in s = ceil(||t0 L||_1) steps of 1-norm eta <= 1, each
    summed over its first m terms, m the least with remainder bound
    e^eta eta^m / m! <= 1e-16 (after Al-Mohy & Higham, SIAM J. Sci. Comput.
    33, 2011).
    """
    n = w.size
    t0 = 1.0 / (float(np.abs(w).max()) + 1.0)
    norm1 = t0 * float(abs(matrix).sum(axis=0).max())
    steps = max(1, math.ceil(norm1))
    eta = norm1 / steps
    m, bound = 0, math.exp(eta)
    while bound > 1e-16:
        m += 1
        bound *= eta / m
    step = (-t0 / steps) * matrix
    decay = np.exp(-t0 * w)[:, None]
    diff2 = ref2 = 0.0
    for lo in range(0, n, _CHECK_BLOCK):
        hi = min(lo + _CHECK_BLOCK, n)
        ref = np.zeros((n, hi - lo), dtype=complex)
        ref[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        for _ in range(steps):
            term = ref
            for k in range(1, m):
                term = (step @ term) / k
                ref += term
        rec = v @ (decay * vinv[:, lo:hi])
        diff2 += float(np.linalg.norm(rec - ref)) ** 2
        ref2 += float(np.linalg.norm(ref)) ** 2
    return math.sqrt(diff2 / max(ref2, 1e-300))


def _pin_kernel(w: np.ndarray, kernel_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues with |w| <= 1e-10 max(|w|max, 1) set to exactly zero
    where L has a kernel, and that mask.

    Roundoff-level kernel eigenvalues blow up under the huge times of the
    subordination rules; on Dirichlet grids w is returned as is.
    """
    mask = np.abs(w) <= 1e-10 * max(float(np.abs(w).max()), 1.0)
    return (np.where(mask, 0.0, w) if kernel_dim else w), mask


def eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """The eigenvalues of L, kernel pinned as in DenseCalculus, with no
    eigenvectors, inverse or reconstruction check."""
    return _pin_kernel(scipy.linalg.eigvals(op.matrix.toarray()), op.kernel_dim)[0]


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
    """(I + t^2 L)^{-1} f by sparse direct solve, residual-checked."""
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


def _log_trapezoid(u_lo: float, u_hi: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes e^{u_i} and trapezoid weights in u for count points of
    [u_lo, u_hi]: int g(s) ds/s ~ sum_i w_i g(e^{u_i})."""
    u = np.linspace(u_lo, u_hi, count)
    weights = np.full(count, u[1] - u[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return np.exp(u), weights


def _subordination_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_i and coefficients c_i so that for every lambda >= 0

        e^{-t sqrt(lambda)} ~ sum_i c_i e^{-(t^2 lambda) / (4 u_i)}

    by log-substituted trapezoid on (1/sqrt(pi)) u^{-1/2} e^{-u} du.  The
    integrand decays doubly exponentially at both endpoints after the
    substitution, uniformly in t^2 lambda, so the rule converges
    geometrically where a Laguerre rule stalls for stiff spectra.
    """
    nodes, weights = _log_trapezoid(-38.0, 4.0, count)
    return nodes, weights * np.sqrt(nodes) * np.exp(-nodes) / math.sqrt(math.pi)


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


# ---------------------------------------------------------------------------
# Gaffney off-diagonal profiles
# ---------------------------------------------------------------------------

GAFFNEY_FAMILIES = ("heat", "t_heat_deriv", "grad_heat", "resolvent", "grad_resolvent")


@dataclass(frozen=True, eq=False)
class GaffneyProfile:
    """Measured L^2(E) -> L^2(F) decay of an operator family over time."""

    t_values: np.ndarray
    measured_norms: np.ndarray
    fitted_beta: float


def set_distance(grid: Grid, E: np.ndarray, F: np.ndarray) -> float:
    return float(lattice_distances(grid, E, F).min())


def _indicator(grid: Grid, E: np.ndarray) -> ScalarField:
    v = np.zeros(grid.n_nodes, dtype=complex)
    v[np.asarray(E, dtype=int)] = 1.0
    v /= lp_norm(v, grid, 2)
    return ScalarField(v, grid)


def _family_apply(op: DiscreteOperator, family: str, t: float, f: ScalarField) -> np.ndarray:
    """Magnitudes of the family member at time t (gradient families fold
    the components into a pointwise Euclidean magnitude)."""
    if family == "heat":
        return np.abs(heat_apply(op, t, f).values)
    if family == "t_heat_deriv":
        return np.abs(calculus(op).heat_poly(1, t, _check_field(op, f)))
    if family == "grad_heat":
        u = heat_apply(op, t, f).values
        return math.sqrt(t) * np.sqrt((np.abs(op.gradient(u)) ** 2).sum(axis=0))
    if family == "resolvent":
        return np.abs(resolvent_apply(op, math.sqrt(t), f).values)
    if family == "grad_resolvent":
        u = resolvent_apply(op, math.sqrt(t), f).values
        return math.sqrt(t) * np.sqrt((np.abs(op.gradient(u)) ** 2).sum(axis=0))
    raise ValueError(f"unknown family {family!r}")


def _fit_decay(dist: float, ts: np.ndarray, norms: np.ndarray) -> float:
    """beta of the least-squares fit log(norm) = log C - (dist^2/(c t))^beta."""
    # imported here: only the Gaffney fits need scipy.optimize, and its
    # import is a large share of every other command's start-up
    from scipy.optimize import curve_fit

    mask = np.isfinite(norms) & (norms > 1e-13)
    if mask.sum() < 5:
        return math.nan
    t, y = ts[mask], np.log(norms[mask])

    def model(tt, logc, c, beta):
        return logc - (dist * dist / (c * tt)) ** beta

    try:
        popt, _ = curve_fit(
            model,
            t,
            y,
            p0=(float(y.max()), 1.0, 1.0),
            bounds=([-50.0, 1e-3, 0.1], [50.0, 1e3, 4.0]),
            maxfev=20000,
        )
    except RuntimeError:
        return math.nan
    return float(popt[2])


def gaffney_profile(
    op: DiscreteOperator,
    family: str,
    E: np.ndarray,
    F: np.ndarray,
    times: TimeGrid,
) -> GaffneyProfile:
    """Off-diagonal decay of one operator family, with a fitted beta."""
    E = np.asarray(E, dtype=int)
    F = np.asarray(F, dtype=int)
    if np.intersect1d(E, F).size:
        raise ValueError("E and F must be disjoint")
    dist = set_distance(op.grid, E, F)
    if dist <= 0:
        raise ValueError("E and F must have positive distance")
    f = _indicator(op.grid, E)
    ts = times.samples
    norms = np.empty(ts.size)
    for j, t in enumerate(ts):
        mag = _family_apply(op, family, float(t), f)
        norms[j] = restricted_lp_norm(mag, op.grid, F, 2)
    return GaffneyProfile(ts, norms, _fit_decay(dist, ts, norms))
