"""Linear (radial, exact) and nonlinear (periodic box) two-fluid evolution.

The linearized system is diagonal over wavenumber magnitude, so the linear
path evolves a radial spectral profile exactly with the matrix semigroup --
no time-stepping error.  The nonlinear path is a pseudo-spectral solver on a
periodic box: the stiff linear part (sound waves, viscosity, capillarity) is
absorbed by an exact integrating factor per wave vector, and only the
nonlinear increments are advanced with classical RK4.

The time loop keeps the state in Fourier space, on the band of the
real-FFT half grid that the 2/3 rule (Orszag 1971) retains: it enters once
per run and leaves once per diagnostics row (8 transforms each).  Each RK4
stage transforms to real space only what its products need, forms every
product there and every derivative as one spectral multiply: 52 real 3-D
transforms per stage, 34 pruned to the band, 208 per step (see _GridOps).
The full-step propagator is applied as two half steps: 4 half-step
propagations of one real (float64) band propagator, built once per step.

The stages run in one workspace that the run's _GridOps owns and builds on
the first nonlinear stage: every transform writes through ``out=`` into
persistent scratch and every real-space product runs in place, so a stage
allocates only its band-sized output and arithmetic and the fraction map's
solve.  The diagnostics rows read the same buffers.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .model import (AdmissibilityError, EquilibriumState, solve_fraction_map)
from .spectral import semigroup_batch

__all__ = [
    "LinearRadialState", "SimState", "Diagnostics",
    "default_linear_state", "linear_evolve", "l2_norms", "fit_decay_slope",
    "decay_slope_table",
    "make_sim_state",
    "diagnostics", "shell_profile", "dump_state", "load_state",
    "run_simulation",
]


# ---------------------------------------------------------------------------
# exact linear evolution on a radial wavenumber grid

@dataclass(frozen=True)
class LinearRadialState:
    """Radial spectral profile of the linearized solution.

    U_hat rows are (n+, phi+, n-, phi-) per wavenumber, where phi is the
    longitudinal momentum amplitude; phi_inc columns are the transverse
    (incompressible) momentum amplitudes of the two phases.
    """

    k_grid: np.ndarray          # (nk,) radial wavenumbers, 0 < k <= K
    U_hat: np.ndarray           # (nk, 4) complex
    phi_inc: np.ndarray         # (nk, 2) complex
    t: float
    eq: EquilibriumState


def default_linear_state(eq: EquilibriumState, nk: int = 800,
                         k_min: float = 1e-4, k_max: float = 10.0,
                         width: float = 1.0) -> LinearRadialState:
    """Momentum-only smooth data: m0 Gaussian with a nonzero mean, n0 = 0.

    The momentum goes into one phase only; equal data in both phases would
    cancel the slow diffusive mode entirely for symmetric backgrounds.
    """
    ks = np.logspace(math.log10(k_min), math.log10(k_max), nk)
    U = np.zeros((nk, 4), dtype=complex)
    U[:, 1] = np.exp(-0.5 * (width * ks) ** 2)
    inc = np.zeros((nk, 2), dtype=complex)
    return LinearRadialState(ks, U, inc, 0.0, eq)


def linear_evolve(state: LinearRadialState, t: float) -> LinearRadialState:
    """Advance by duration t with the exact per-mode semigroup."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return state
    eq = state.eq
    G = semigroup_batch(state.k_grid, t, eq)
    U = np.einsum("nij,nj->ni", G, state.U_hat)
    heat = np.exp(np.outer(-state.k_grid ** 2 * t,
                           [eq.nu1_plus, eq.nu1_minus]))
    return replace(state, U_hat=U, phi_inc=state.phi_inc * heat,
                   t=state.t + t)


def l2_norms(state: LinearRadialState) -> dict[str, float]:
    """L2 norms via Plancherel with the radial weight 4 pi k^2."""
    eq = state.eq
    ks = state.k_grid
    w = 4.0 * math.pi * ks ** 2

    def norm(amp2: np.ndarray) -> float:
        return math.sqrt(np.trapezoid(w * amp2, ks))

    U = state.U_hat
    out = {
        "n_p": norm(np.abs(U[:, 0]) ** 2),
        "n_m": norm(np.abs(U[:, 2]) ** 2),
        "m_p": norm(np.abs(U[:, 1]) ** 2 + np.abs(state.phi_inc[:, 0]) ** 2),
        "m_m": norm(np.abs(U[:, 3]) ** 2 + np.abs(state.phi_inc[:, 1]) ** 2),
    }
    combo = eq.rho_bar_minus * U[:, 0] + eq.rho_bar_plus * U[:, 2]
    out["combo"] = norm(np.abs(combo) ** 2)
    return out


def fit_decay_slope(times, norms) -> tuple[float, float]:
    """Least-squares slope of log(norm) against log(1+t), with std error."""
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.size < 8 or times.max() / max(times.min(), 1e-300) < 100.0:
        raise ValueError("need >= 8 samples spanning >= 2 decades")
    if np.any(norms <= 0.0):
        raise ValueError("norms must be positive for a log-log fit")
    x = np.log1p(times)
    y = np.log(norms)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope), float(math.sqrt(cov[0, 0]))


def decay_slope_table(eq: EquilibriumState, t_lo: float = 1e2,
                      t_hi: float = 1e4, n_t: int = 12) -> dict[str, float]:
    """Measured L2 decay slopes of the linear evolution from momentum data."""
    ts = np.logspace(math.log10(t_lo), math.log10(t_hi), n_t)
    state0 = default_linear_state(eq)
    series: dict[str, list[float]] = {k: [] for k in
                                      ("n_p", "n_m", "m_p", "m_m", "combo")}
    for t in ts:
        norms = l2_norms(linear_evolve(state0, t))
        for key, val in norms.items():
            series[key].append(val)
    return {key: fit_decay_slope(ts, vals)[0] for key, vals in series.items()}


# ---------------------------------------------------------------------------
# periodic-box state and grid machinery

@dataclass
class SimState:
    """Real-space perturbation fields on a periodic box [-L, L)^3."""

    eq: EquilibriumState
    L: float
    n: int
    n_p: np.ndarray             # (n, n, n)
    m_p: np.ndarray             # (3, n, n, n)
    n_m: np.ndarray
    m_m: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class Diagnostics:
    mass_p: float
    mass_m: float
    momentum: np.ndarray        # (3,) total momentum integral
    l2: dict[str, float]
    ring_r: float
    t: float

    @property
    def momentum_norm(self) -> float:
        return float(np.linalg.norm(self.momentum))


class _GridOps:
    """Spectral machinery and workspace of one (n, L, eq) grid;
    run_simulation owns one per run.

    Real fields transform onto the half grid (n, n, n//2+1).  The 2/3
    rule's test |xi_d| <= (2/3) pi/dx keeps a box of it, the band: rows
    ``rows`` (0..lo-1, n-nb..n-1) of the full axes and columns 0..h-1 of
    the half axis, (33, 33, 17) at n = 48, indexed by ``band``.  The state,
    ``xi``, ``k2``, ``khat``, the unique-|k| index ``inv`` and the
    propagators are band-shaped; the band holds no Nyquist mode.
    forward_band and inverse_band are rfftn and irfftn pruned to the band
    (Markel 1971): each 1-D pass they keep sees exactly its input inside
    rfftn or irfftn, so their results are bitwise equal.  forward and
    inverse run rfftn and irfftn pass by pass.

    One RHS stage costs 52 transforms: 8 inverse for n and m of both
    phases, then per phase 19 -- 3 forward for w = n u, 6 inverse for the
    symmetric gradients of u (pairs d <= e), 4 inverse for grad n and
    Lap n, and 6 forward for the symmetric flux T -- and 6 forward for the
    pressure terms.  u needs no transform of its own: m = R u = u + w
    pointwise, so u_hat = m_hat - w_hat, and the viscous terms in S[w] and
    S[m] have constant coefficients once rewritten through S[u] (see
    _phase_rhs), so they stay in Fourier space.  w = n u has full
    support, so the 18 transforms of w and S[u] take the whole half grid
    and the derivative vectors ``xf`` (three 1-D wavenumber vectors that
    broadcast over it, zero at Nyquist: odd derivatives of real fields stay
    real); the other 34 are pruned to the band.

    The grid owns every buffer its transforms and stages write, and every
    transform writes through ``out=``.  Sizes scale with n^3:
    - transform scratch, built here: two half-grid arrays and four
      band-row and band-column arrays, about 2.2 n^3 complex numbers
      (3.8 MiB at n = 48).  The two zero-padded inputs of the inverse band
      passes are zeroed once, here; only their band rows and columns are
      ever written;
    - ``real``, the 8 real fields of a band state (n+, m+, n-, m-), 64 n^3
      bytes (6.8 MiB at n = 48), built on the first to_real; each stage
      and each diagnostics row of run_simulation overwrite it;
    - the stage workspace (_StageWork), 19 real fields and 5 half-grid
      arrays, about 190 n^3 bytes (20.7 MiB at n = 48), built on the first
      nonlinear stage, so linear runs never allocate it.
    Once a nonlinear stage has run, the grid holds 31 MiB at n = 48 and
    248 MiB at n = 96.
    """

    def __init__(self, n: int, L: float, eq: EquilibriumState):
        self.n, self.L, self.eq = n, L, eq
        self.dx = 2.0 * L / n
        self.shape = (n, n, n)
        full = np.fft.fftfreq(n, d=1.0 / n).astype(int)   # integer modes
        half = np.arange(n // 2 + 1)
        scale = math.pi / L
        cut = (2.0 / 3.0) * (math.pi / self.dx)
        self.rows = np.flatnonzero(np.abs(scale * full) <= cut)
        self.h = int(np.count_nonzero(np.abs(scale * half) <= cut))
        self.xf = tuple(
            np.where(2 * np.abs(v) == n, 0.0, scale * v).reshape(s)
            for v, s in ((full, (n, 1, 1)), (full, (1, n, 1)),
                         (half, (1, 1, half.size))))
        self.band = (...,) + np.ix_(self.rows, self.rows, np.arange(self.h))
        idx = np.stack(np.meshgrid(full[self.rows], full[self.rows],
                                   half[:self.h], indexing="ij"))
        self.xi = scale * idx.astype(float)
        self.band_shape = self.xi.shape[1:]
        int2 = np.sum(idx * idx, axis=0)
        self.uniq_int2, self.inv = np.unique(int2, return_inverse=True)
        self.k_uniq = (math.pi / L) * np.sqrt(self.uniq_int2.astype(float))
        self.k2 = np.sum(self.xi ** 2, axis=0)
        k = np.sqrt(self.k2)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.khat = np.where(k > 0.0, self.xi / np.maximum(k, 1e-300), 0.0)
        nb = self.rows.size
        self._half = np.empty((2, n, n, half.size), dtype=complex)
        self._cols = np.empty((n, n, self.h), dtype=complex)
        self._rows = np.empty((n, nb, self.h), dtype=complex)
        self._pad_rows = np.zeros((n, nb, self.h), dtype=complex)
        self._pad_cols = np.zeros((n, n, self.h), dtype=complex)
        self.real = None
        self._work = None

    def propagator(self, t: float):
        """(G_gathered, heat factors) on the band for duration t.

        e^{tA} of the real symbol is real, so G_gathered is float64; an
        imaginary part above 1e-12 of the largest entry raises RuntimeError.
        """
        G = semigroup_batch(self.k_uniq, t, self.eq)         # (nu, 4, 4)
        residue = np.abs(G.imag).max()
        if residue > 1e-12 * np.abs(G).max():
            raise RuntimeError(f"propagator imaginary residue {residue:.3g} "
                               "too large for a real propagator")
        Gg = G.real[self.inv.reshape(self.k2.shape)]         # band-shaped
        heat_p = np.exp(-self.eq.nu1_plus * self.k2 * t)
        heat_m = np.exp(-self.eq.nu1_minus * self.k2 * t)
        return Gg, heat_p, heat_m

    # transforms between real fields and half-grid or band coefficients ----
    def forward(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rfftn(f): rfft along axis 2, then fft along axes 1 and 0."""
        a, b = self._half
        np.fft.rfft(f, axis=2, out=a)
        np.fft.fft(a, axis=1, out=b)
        return np.fft.fft(b, axis=0, out=out)

    def inverse(self, f_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """irfftn(f_hat): ifft along axes 0 and 1, then irfft along axis 2."""
        a, b = self._half
        np.fft.ifft(f_hat, axis=0, out=a)
        np.fft.ifft(a, axis=1, out=b)
        return np.fft.irfft(b, n=self.n, axis=2, out=out)

    def forward_band(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rfftn(f) on the band: rfft along axis 2, then fft along axes 1
        and 0, each pass run only on the lines the band keeps."""
        nb = self.rows.size
        np.fft.rfft(f, axis=2, out=self._half[0])
        np.fft.fft(self._half[0, :, :, :self.h], axis=1, out=self._cols)
        np.take(self._cols, self.rows, axis=1, out=self._rows, mode="clip")
        np.fft.fft(self._rows, axis=0, out=self._cols[:, :nb])
        return np.take(self._cols[:, :nb], self.rows, axis=0, out=out,
                       mode="clip")

    def inverse_band(self, f_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """irfftn of the half grid zero-filled from the band: ifft along
        axes 0 and 1, then irfft along axis 2, each on nonzero lines only."""
        self._pad_rows[self.rows] = f_hat
        np.fft.ifft(self._pad_rows, axis=0, out=self._rows)
        self._pad_cols[:, self.rows] = self._rows
        np.fft.ifft(self._pad_cols, axis=1, out=self._cols)
        return np.fft.irfft(self._cols, n=self.n, axis=2, out=out)

    def to_real(self, Y: np.ndarray) -> np.ndarray:
        """The 8 real fields of band state Y, in the grid's ``real``
        buffer: valid until the next to_real or RHS stage."""
        if self.real is None:
            self.real = np.empty((8,) + self.shape)
        for i in range(8):
            self.inverse_band(Y[i], out=self.real[i])
        return self.real

    def work(self) -> "_StageWork":
        """The stage workspace, built on the first call."""
        if self._work is None:
            self._work = _StageWork(self)
        return self._work

    def apply_semigroup(self, Y: np.ndarray, prop) -> np.ndarray:
        """Advance stacked band transforms (8, *band shape) by the exact
        linear flow of a propagator(t)."""
        Gg, heat_p, heat_m = prop
        out = np.empty_like(Y)
        mL_p = np.sum(self.khat * Y[1:4], axis=0)
        mL_m = np.sum(self.khat * Y[5:8], axis=0)
        out[1:4] = heat_p * (Y[1:4] - self.khat * mL_p)
        out[5:8] = heat_m * (Y[5:8] - self.khat * mL_m)
        Y_long = np.stack([Y[0], 1j * mL_p, Y[4], 1j * mL_m])
        U = np.einsum("xyzij,jxyz->ixyz", Gg, Y_long)
        out[0], out[4] = U[0], U[2]
        out[1:4] += self.khat * (-1j * U[1])
        out[5:8] += self.khat * (-1j * U[3])
        return out


class _StageWork:
    """Real-space and half-grid buffers of the nonlinear RHS stages.

    Both phases use them in turn, except R = n + 1 and grad n, which the
    pressure terms need for both phases; the pressure terms then reuse the
    per-phase buffers for their coefficient fields.
    """

    def __init__(self, ops: _GridOps):
        shape = ops.shape
        self.R = np.empty((2,) + shape)         # n + 1 of both phases
        self.grad = np.empty((2, 3) + shape)    # grad n of both phases
        self.u = np.empty((3,) + shape)
        self.sym = np.empty((3,) + shape)       # c S[u]_dd, d = 0, 1, 2
        self.c = np.empty(shape)
        self.tmp = np.empty((4,) + shape)
        self.w_hat = np.empty((3,) + ops._half.shape[1:], dtype=complex)
        self.spec = np.empty_like(ops._half)
        self.T_hat = np.empty(ops.band_shape, dtype=complex)


def _fields_state(ops: _GridOps, f: np.ndarray, t: float) -> SimState:
    """SimState whose fields are views of the (8, n, n, n) array f."""
    return SimState(ops.eq, ops.L, ops.n, f[0], f[1:4], f[4], f[5:8], t)


def _stack_hat(ops: _GridOps, state: SimState) -> np.ndarray:
    # the band holds no Nyquist mode, where the direction field khat could
    # not respect conjugate symmetry
    fields = [state.n_p, *state.m_p, state.n_m, *state.m_m]
    Y = np.empty((8,) + ops.band_shape, dtype=complex)
    for i, f in enumerate(fields):
        ops.forward_band(f, out=Y[i])
    return Y


def make_sim_state(eq: EquilibriumState, n: int = 48, L: float = 64.0,
                   eps: float = 1e-3) -> SimState:
    """Compactly supported initial perturbation on the box: a radial
    momentum pulse of radius 8 in both phases, which launches a Huygens
    ring."""
    x1 = -L + (2.0 * L / n) * np.arange(n)
    X, Yc, Z = np.meshgrid(x1, x1, x1, indexing="ij")
    zeros = np.zeros((n, n, n))
    state = SimState(eq, L, n, zeros.copy(), np.zeros((3, n, n, n)),
                     zeros.copy(), np.zeros((3, n, n, n)))
    r = np.sqrt(X ** 2 + Yc ** 2 + Z ** 2)
    r0 = 8.0
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(r < r0, np.exp(1.0 - 1.0 /
                                       np.maximum(1.0 - (r / r0) ** 2,
                                                  1e-300)), 0.0)
    rad = bump / np.maximum(r, 1e-12)
    for d, coord in enumerate((X, Yc, Z)):
        state.m_p[d] = eps * rad * coord
        state.m_m[d] = eps * rad * coord
    return state


# ---------------------------------------------------------------------------
# nonlinear right-hand side

_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _phase_rhs(ops: _GridOps, n, m, n_hat, m_hat, R, rho, rho_bar, mu, lam,
               sigma, grad_n, F):
    """Divergence-form momentum increments of one phase (without Q).

    Takes the phase's real fields, R = n + 1 and their band transforms;
    writes the band-transformed increments into F (3, *band shape), zero on
    entry, and grad n into grad_n (3, n, n, n), which the pressure terms
    reuse.  Every real-space product runs in place in the stage workspace.
    """
    W = ops.work()
    u, sym, c = W.u, W.sym, W.c
    t0, t1, t2, t3 = W.tmp
    np.divide(m, R, out=u)
    # the viscous tensor visc = (n/rho) J[u] - J[w]/rho + drop J[m], with
    # J[f]_{d,e} = d_e f_d, w = n u and drop = 1/rho - 1/rho_bar, enters
    # only as visc + visc^T and tr visc, i.e. through the symmetric
    # gradients S[f]_{de} = d_e f_d + d_d f_e.  Since m = u + w and S is
    # linear, visc + visc^T = c S[u] - S[w]/rho_bar with
    # c = R/rho - 1/rho_bar; both terms are O(eps^2), and the
    # constant-coefficient one never leaves Fourier space
    np.divide(R, rho, out=c)
    c -= 1.0 / rho_bar
    w_hat = W.w_hat
    for d in range(3):
        ops.forward(np.multiply(n, u[d], out=t0), out=w_hat[d])
    w_band = w_hat[ops.band]
    u_hat = np.negative(w_hat, out=w_hat)
    u_hat[ops.band] += m_hat
    xf = ops.xf
    s, s2 = W.spec

    def sym_grad(d, e, out):
        np.multiply(xf[e], u_hat[d], out=s)
        np.add(s, np.multiply(xf[d], u_hat[e], out=s2), out=s)
        np.multiply(s, 1j, out=s)
        return np.multiply(c, ops.inverse(s, out=out), out=out)

    for d in range(3):
        sym_grad(d, d, sym[d])
    tr = np.add(sym[0], sym[1], out=t0)
    tr += sym[2]
    tr *= 0.5
    xi = ops.xi
    for d in range(3):
        ops.inverse_band(1j * xi[d] * n_hat, out=grad_n[d])
    lap_n_hat = -ops.k2 * n_hat
    lap_n = ops.inverse_band(lap_n_hat, out=t1)
    # Korteweg form of R grad(Lap R) minus its linear part
    diag = np.multiply(grad_n[0], grad_n[0], out=t2)
    for g in grad_n[1:]:
        diag += np.multiply(g, g, out=t3)
    diag *= 0.5
    diag += np.multiply(R, lap_n, out=t3)
    diag *= sigma
    diag += np.multiply(lam, tr, out=t3)
    # F_d = d_e T_{d e}, summed as the pairs' transforms arrive
    T, sym_de, T_hat = t0, t1, W.T_hat
    for d, e in _PAIRS:
        np.negative(np.multiply(m[d], u[e], out=T), out=T)
        T += np.multiply(mu, sym[d] if d == e else sym_grad(d, e, sym_de),
                         out=t3)
        T -= np.multiply(sigma, np.multiply(grad_n[d], grad_n[e], out=t3),
                         out=t3)
        if d == e:
            T += diag
        ops.forward_band(T, out=T_hat)
        F[d] += xi[e] * T_hat
        if d != e:
            F[e] += xi[d] * T_hat
    # then F_d -= sigma d_d (Lap n); the w part of T,
    # -(mu/rho_bar) S[w] - delta (lam/rho_bar) div w, differentiates to
    # (mu/rho_bar)(|xi|^2 w_d + xi_d xi.w) + (lam/rho_bar) xi_d xi.w
    div_w_hat = np.sum(xi * w_band, axis=0)
    for d in range(3):
        F[d] *= 1j
        F[d] -= sigma * 1j * xi[d] * lap_n_hat
        F[d] += (mu / rho_bar) * ops.k2 * w_band[d]
        F[d] += ((mu + lam) / rho_bar) * xi[d] * div_w_hat


def _check_fields(n_p, m_p, n_m, m_m) -> None:
    if np.min(n_p) <= -0.9 or np.min(n_m) <= -0.9:
        raise AdmissibilityError("fraction density too close to vacuum")
    if not all(np.isfinite(f).all() for f in (n_p, m_p, n_m, m_m)):
        raise RuntimeError("non-finite fields: instability detected")


def _rhs_hat(ops: _GridOps, Y: np.ndarray) -> np.ndarray:
    """Stacked band RHS: zero continuity rows, dealiased momentum.

    The real fields go to the grid's ``real`` buffer and every other
    real-space or half-grid intermediate to its stage workspace; what the
    stage allocates is its output, band-sized arithmetic and the fraction
    map's solve.
    """
    real = ops.to_real(Y)
    n_p, m_p, n_m, m_m = real[0], real[1:4], real[4], real[5:8]
    _check_fields(n_p, m_p, n_m, m_m)
    eq = ops.eq
    p = eq.params
    W = ops.work()
    R_p, R_m = W.R
    np.add(n_p, 1.0, out=R_p)
    np.add(n_m, 1.0, out=R_m)
    rho_p, rho_m, _, C2c = solve_fraction_map(R_p, R_m, p, eq=eq)

    out = np.zeros_like(Y)
    gnp, gnm = W.grad
    _phase_rhs(ops, n_p, m_p, Y[0], Y[1:4], R_p, rho_p, eq.rho_bar_plus,
               p.mu_plus, p.lambda_plus, p.sigma_plus, gnp, out[1:4])
    _phase_rhs(ops, n_m, m_m, Y[4], Y[5:8], R_m, rho_m, eq.rho_bar_minus,
               p.mu_minus, p.lambda_minus, p.sigma_minus, gnm, out[5:8])
    # the pressure terms, one component at a time:
    # Q1 = C2c n+ ((rho-/rho+) grad n+ + grad n-)
    #      + (C2c rho-/rho+ - beta1) grad n+ + (C2c - C2) grad n-,
    # Q2 the same with the phases swapped and beta4
    shift = np.subtract(C2c, eq.C2, out=W.c)
    amp, ratio, lin = W.u
    q, t = W.tmp[:2]
    for (nf, rho_a, rho_b, beta, ga, gb, F) in (
            (n_p, rho_p, rho_m, eq.beta1, gnp, gnm, out[1:4]),
            (n_m, rho_m, rho_p, eq.beta4, gnm, gnp, out[5:8])):
        np.multiply(C2c, nf, out=amp)
        np.divide(rho_b, rho_a, out=ratio)
        np.multiply(C2c, rho_b, out=lin)
        lin /= rho_a
        lin -= beta
        for d in range(3):
            np.multiply(ratio, ga[d], out=q)
            q += gb[d]
            q *= amp
            q += np.multiply(lin, ga[d], out=t)
            q += np.multiply(shift, gb[d], out=t)
            F[d] -= ops.forward_band(q, out=W.T_hat)
    return out


def default_dt(state: SimState) -> float:
    """Half the smallest retained wavelength over the sound speed."""
    lam_min = 3.0 * 2.0 * state.L / state.n
    return 0.5 * lam_min / state.eq.c


def step(ops: _GridOps, Y: np.ndarray, dt: float,
         nonlinear: bool = True) -> np.ndarray:
    """One integrating-factor RK4 step of length dt of the band state Y.

    Each stage transforms to real space only what its products need (see
    _GridOps): 208 transforms per step, 136 pruned to the band.  The flow
    is linear and E(dt) = E(dt/2) E(dt/2), so the stage-4 input
    E Y + dt E(dt/2) k3 is E(dt/2)(E(dt/2) Y + dt k3) and the update is
    folded the same way: 4 half-step propagations with one band-sized
    float64 propagator, (33, 33, 17, 4, 4) at n = 48, built once per step.

    The folded update is summed as its terms arrive, and k1, E(dt/2) k1
    and k2 are released as soon as it has used them: while a stage runs,
    the step holds E(dt/2) Y, the update and the stage input besides Y,
    each a band state of about 1.3 n^3 complex numbers (2.3 MiB at
    n = 48).  The stages write everything else into the grid's buffers.
    """
    if not nonlinear:
        return ops.apply_semigroup(Y, ops.propagator(dt))
    half = ops.propagator(0.5 * dt)
    Eh = lambda Z: ops.apply_semigroup(Z, half)
    k1 = _rhs_hat(ops, Y)
    EhY, Ehk1 = Eh(Y), Eh(k1)
    del k1
    Z = EhY + 0.5 * dt * Ehk1
    acc = EhY + dt / 6.0 * Ehk1
    del Ehk1
    k2 = _rhs_hat(ops, Z)
    np.add(EhY, np.multiply(0.5 * dt, k2, out=Z), out=Z)
    acc += dt / 3.0 * k2
    del k2
    k3 = _rhs_hat(ops, Z)
    acc += dt / 3.0 * k3
    Z = Eh(np.add(EhY, np.multiply(dt, k3, out=k3), out=Z))
    del EhY, k3
    k4 = _rhs_hat(ops, Z)
    del Z
    Yn = Eh(acc)
    del acc
    Yn += dt / 6.0 * k4
    if not np.all(np.isfinite(Yn)):
        raise RuntimeError("non-finite update: instability detected")
    return Yn


# ---------------------------------------------------------------------------
# diagnostics

def shell_profile(state: SimState):
    """Shell-averaged |m+ + m-| and bin-center radii."""
    n, L = state.n, state.L
    dx = 2.0 * L / n
    x1 = -L + dx * np.arange(n)
    X, Yc, Z = np.meshgrid(x1, x1, x1, indexing="ij")
    r = np.sqrt(X ** 2 + Yc ** 2 + Z ** 2)
    amp = np.sqrt(np.sum((state.m_p + state.m_m) ** 2, axis=0))
    nbins = n // 2
    edges = np.linspace(0.0, L, nbins + 1)
    which = np.clip(np.digitize(r.ravel(), edges) - 1, 0, nbins - 1)
    sums = np.bincount(which, weights=amp.ravel(), minlength=nbins)
    counts = np.maximum(np.bincount(which, minlength=nbins), 1)
    return 0.5 * (edges[:-1] + edges[1:]), sums / counts


def diagnostics(state: SimState) -> Diagnostics:
    dV = (2.0 * state.L / state.n) ** 3
    eq = state.eq
    mass_p = float(np.sum(state.n_p) * dV)
    mass_m = float(np.sum(state.n_m) * dV)
    momentum = np.sum(state.m_p + state.m_m, axis=(1, 2, 3)) * dV

    def l2(f) -> float:
        return float(math.sqrt(np.sum(f ** 2) * dV))

    combo = eq.rho_bar_minus * state.n_p + eq.rho_bar_plus * state.n_m
    norms = {
        "n_p": l2(state.n_p), "n_m": l2(state.n_m),
        "m_p": l2(state.m_p), "m_m": l2(state.m_m),
        "combo": l2(combo),
    }
    radii, prof = shell_profile(state)
    ring_r = float(radii[int(np.argmax(prof))])
    return Diagnostics(mass_p, mass_m, momentum, norms, ring_r, state.t)


# ---------------------------------------------------------------------------
# binary state dump

_MAGIC = b"TFSIM001"


def dump_state(state: SimState, path: str) -> None:
    """Little-endian float64 dump: header (n, L, t), then the fields in
    declaration order n+, m+ (3 components), n-, m- (3 components)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<3d", float(state.n), state.L, state.t))
        for f in (state.n_p, *state.m_p, state.n_m, *state.m_m):
            fh.write(np.ascontiguousarray(f, dtype="<f8").tobytes())


def load_state(path: str, eq: EquilibriumState) -> SimState:
    """Read a dump_state file; ValueError if its header or length is off."""
    with open(path, "rb") as fh:
        head = fh.read(32)
        if len(head) < 32 or head[:8] != _MAGIC:
            raise ValueError("not a simulator state dump")
        n_f, L, t = struct.unpack("<3d", head[8:])
        if not (math.isfinite(n_f) and n_f >= 1 and n_f == int(n_f)):
            raise ValueError(f"state dump grid size {n_f} is not a positive "
                             "integer")
        if not (math.isfinite(L) and math.isfinite(t)):
            raise ValueError("state dump box size or time is not finite")
        n = int(n_f)
        size = os.fstat(fh.fileno()).st_size
        if size != 32 + 64 * n ** 3:
            raise ValueError(f"state dump holds {size} bytes; n = {n} needs "
                             f"{32 + 64 * n ** 3}")
        f = np.frombuffer(fh.read(), dtype="<f8").reshape(8, n, n, n).copy()
    return SimState(eq, L, n, f[0], f[1:4], f[4], f[5:8], t)


def run_simulation(eq: EquilibriumState, mode: str = "nonlinear",
                   n: int = 48, L: float = 64.0, eps: float = 1e-3,
                   t_final: float | None = None):
    """Time loop with per-step diagnostics; returns (rows, final_state).

    The state enters the band once and stays there.  Each step's
    diagnostics row reads the 8 real fields that the run's _GridOps
    writes into its ``real`` buffer; no state outlives its row, and only
    the returned final state is copied out of the buffer.  The run's
    memory is the grid's buffers (31 MiB at n = 48, 248 MiB at n = 96;
    see _GridOps) and a few band states (see step).

    The box only represents free space until the fastest front wraps;
    t_final beyond the pre-wrap horizon (L - r_support) / c is rejected,
    and so are n < 4, a box size L that is not finite and positive, a
    non-finite eps and a t_final that is not finite and positive.
    """
    if n < 4:
        raise ValueError(f"grid size {n} must be at least 4")
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"box size {L} must be finite and positive")
    if not math.isfinite(eps):
        raise ValueError(f"amplitude eps {eps} must be finite")
    if t_final is None:
        t_final = L / (2.0 * eq.c)
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final {t_final} must be finite and positive")
    state = make_sim_state(eq, n=n, L=L, eps=eps)
    horizon = (L - 8.0) / eq.c
    if t_final > horizon + 1e-9:
        raise ValueError(f"t_final {t_final} beyond pre-wrap horizon "
                         f"{horizon:.3g}")
    rows = [diagnostics(state)]
    n_steps = max(1, int(round(t_final / default_dt(state))))
    dt = t_final / n_steps
    ops = _GridOps(n, L, eq)
    Y = _stack_hat(ops, state)
    t = state.t
    del state
    for _ in range(n_steps):
        Y = step(ops, Y, dt, nonlinear=(mode == "nonlinear"))
        t += dt
        rows.append(diagnostics(_fields_state(ops, ops.to_real(Y), t)))
    return rows, _fields_state(ops, ops.real.copy(), t)
