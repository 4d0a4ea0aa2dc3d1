"""Linear (radial, exact) and nonlinear (periodic box) two-fluid evolution.

The linearized system is diagonal over wavenumber magnitude, so the linear
path evolves a radial spectral profile exactly with the matrix semigroup --
no time-stepping error.  The nonlinear path is a pseudo-spectral solver on a
periodic box: the stiff linear part (sound waves, viscosity, capillarity) is
absorbed by an exact integrating factor per wave vector, and only the
nonlinear increments are advanced with classical RK4.

The RK4 stage state stays in Fourier space on the band of the real-FFT
half grid that the 2/3 rule (Orszag 1971) retains.  Each stage transforms
to real space only what its products need, forms every product there and
every derivative as one spectral multiply: 52 real 3-D transforms per
stage, 34 pruned to the band, 224 per step with the 8 + 8 that enter and
leave Fourier space (see _GridOps).  The full-step propagator is applied
as two half steps: 4 half-step propagations, one cached band propagator.
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
    "make_sim_state", "step",
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
    """Cached spectral machinery for one (n, L, eq) combination.

    Real fields transform onto the half grid (n, n, n//2+1).  The 2/3
    rule's test |xi_d| <= (2/3) pi/dx keeps a box of it, the band: rows
    ``rows`` (0..lo-1, n-nb..n-1) of the full axes and columns 0..h-1 of
    the half axis, (33, 33, 17) at n = 48, indexed by ``band``.  The state,
    ``xi``, ``k2``, ``khat``, the unique-|k| index ``inv`` and the
    propagators are band-shaped; the band holds no Nyquist mode.
    forward_band and inverse_band are rfftn and irfftn pruned to the band
    (Markel 1971): each 1-D pass they keep sees exactly its input inside
    rfftn or irfftn, so their results are bitwise equal.

    One RHS stage costs 52 transforms: 8 inverse for n and m of both
    phases, then per phase 19 -- 3 forward for w = n u, 6 inverse for the
    symmetric gradients of u (pairs d <= e), 4 inverse for grad n and
    Lap n, and 6 forward for the symmetric flux T -- and 6 forward for the
    pressure terms.  u needs no transform of its own: m = R u = u + w
    pointwise, so u_hat = m_hat - w_hat, and the viscous terms in S[w] and
    S[m] have constant coefficients once rewritten through S[u] (see
    _phase_rhs), so they stay in Fourier space.  w = n u has full
    support, so the 18 transforms of w and S[u] take the whole half grid
    and ``xi_full`` (zero at Nyquist: odd derivatives of real fields stay
    real); the other 34 are pruned to the band.
    """

    _cache: dict[tuple, "_GridOps"] = {}    # oldest first
    _cache_size = 4

    def __init__(self, n: int, L: float, eq: EquilibriumState):
        self.n, self.L, self.eq = n, L, eq
        self.dx = 2.0 * L / n
        self.shape = (n, n, n)
        full = np.fft.fftfreq(n, d=1.0 / n).astype(int)   # integer modes
        half = np.arange(n // 2 + 1)
        idx = np.stack(np.meshgrid(full, full, half, indexing="ij"))
        xi = (math.pi / L) * idx.astype(float)
        self.xi_full = np.where(2 * np.abs(idx) == n, 0.0, xi)
        cut = (2.0 / 3.0) * (math.pi / self.dx)
        self.rows = np.flatnonzero(np.abs(xi[0, :, 0, 0]) <= cut)
        self.h = int(np.count_nonzero(np.abs(xi[2, 0, 0]) <= cut))
        self.band = (...,) + np.ix_(self.rows, self.rows, np.arange(self.h))
        idx, self.xi = idx[self.band], xi[self.band]
        int2 = np.sum(idx * idx, axis=0)
        self.uniq_int2, self.inv = np.unique(int2, return_inverse=True)
        self.k_uniq = (math.pi / L) * np.sqrt(self.uniq_int2.astype(float))
        self.k2 = np.sum(self.xi ** 2, axis=0)
        k = np.sqrt(self.k2)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.khat = np.where(k > 0.0, self.xi / np.maximum(k, 1e-300), 0.0)
        self._props: dict[float, tuple] = {}

    @classmethod
    def get(cls, state: SimState) -> "_GridOps":
        key = (state.n, state.L, state.eq)
        ops = cls._cache.get(key)
        if ops is None:
            if len(cls._cache) >= cls._cache_size:
                del cls._cache[next(iter(cls._cache))]
            ops = cls._cache[key] = cls(state.n, state.L, state.eq)
        return ops

    def propagator(self, t: float):
        """(G_gathered, heat factors) on the band for duration t, cached."""
        if t not in self._props:
            G = semigroup_batch(self.k_uniq, t, self.eq)     # (nu, 4, 4)
            Gg = G[self.inv.reshape(self.k2.shape)]          # band-shaped
            heat_p = np.exp(-self.eq.nu1_plus * self.k2 * t)
            heat_m = np.exp(-self.eq.nu1_minus * self.k2 * t)
            if len(self._props) > 16:
                self._props.clear()
            self._props[t] = (Gg, heat_p, heat_m)
        return self._props[t]

    # transforms between real fields and half-grid or band coefficients ----
    def forward(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(f, axes=(0, 1, 2))

    def inverse(self, f_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(f_hat, s=self.shape, axes=(0, 1, 2))

    def forward_band(self, f: np.ndarray) -> np.ndarray:
        """rfftn(f) on the band: rfft along axis 2, then fft along axes 1
        and 0, each pass run only on the lines the band keeps."""
        a = np.fft.rfft(f, axis=2)[:, :, :self.h]
        a = np.fft.fft(a, axis=1)[:, self.rows]
        return np.fft.fft(a, axis=0)[self.rows]

    def inverse_band(self, f_hat: np.ndarray) -> np.ndarray:
        """irfftn of the half grid zero-filled from the band: ifft along
        axes 0 and 1, then irfft along axis 2, each on nonzero lines only."""
        a = np.zeros((self.n,) + f_hat.shape[1:], dtype=complex)
        a[self.rows] = f_hat
        b = np.zeros((self.n, self.n, self.h), dtype=complex)
        b[:, self.rows] = np.fft.ifft(a, axis=0)
        return np.fft.irfft(np.fft.ifft(b, axis=1), n=self.n, axis=2)

    def apply_semigroup(self, Y: np.ndarray, t: float) -> np.ndarray:
        """Advance stacked band transforms (8, *band shape) by the exact
        linear flow."""
        Gg, heat_p, heat_m = self.propagator(t)
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


def _stack_hat(state: SimState) -> np.ndarray:
    # the band holds no Nyquist mode, where the direction field khat could
    # not respect conjugate symmetry
    ops = _GridOps.get(state)
    fields = [state.n_p, *state.m_p, state.n_m, *state.m_m]
    return np.stack([ops.forward_band(f) for f in fields])


def _unstack(state: SimState, Y: np.ndarray, t: float) -> SimState:
    ops = _GridOps.get(state)
    real = [ops.inverse_band(Y[i]) for i in range(8)]
    return replace(state, n_p=real[0], m_p=np.stack(real[1:4]),
                   n_m=real[4], m_m=np.stack(real[5:8]), t=t)


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


def _phase_rhs(ops: _GridOps, n, m, n_hat, m_hat, rho, rho_bar, mu, lam,
               sigma):
    """Divergence-form momentum increments of one phase (without Q).

    Takes the phase's real fields and their band transforms; returns the
    band-transformed increments F_hat (3, *band shape) and grad n, which
    the pressure terms reuse.
    """
    R = n + 1.0
    u = m / R
    w = n * u
    # the viscous tensor visc = (n/rho) J[u] - J[w]/rho + drop J[m], with
    # J[f]_{d,e} = d_e f_d and drop = 1/rho - 1/rho_bar, enters only as
    # visc + visc^T and tr visc, i.e. through the symmetric gradients
    # S[f]_{de} = d_e f_d + d_d f_e.  Since m = u + w and S is linear,
    # visc + visc^T = c S[u] - S[w]/rho_bar with c = R/rho - 1/rho_bar;
    # both terms are O(eps^2), and the constant-coefficient one never
    # leaves Fourier space
    c = R / rho - 1.0 / rho_bar
    w_hat = np.stack([ops.forward(w[d]) for d in range(3)])
    u_hat = -w_hat
    u_hat[ops.band] += m_hat
    xf = ops.xi_full
    sym = {(d, e): c * ops.inverse(1j * (xf[e] * u_hat[d] + xf[d] * u_hat[e]))
           for d, e in _PAIRS}
    tr = 0.5 * (sym[0, 0] + sym[1, 1] + sym[2, 2])
    w_hat = w_hat[ops.band]
    xi = ops.xi
    grad_n = np.stack([ops.inverse_band(1j * x * n_hat) for x in xi])
    lap_n_hat = -ops.k2 * n_hat
    lap_n = ops.inverse_band(lap_n_hat)
    # Korteweg form of R grad(Lap R) minus its linear part
    diag = sigma * (R * lap_n + 0.5 * np.sum(grad_n ** 2, axis=0)) + lam * tr
    T_hat = {}
    for d, e in _PAIRS:
        T = -(m[d] * u[e]) + mu * sym[d, e] - sigma * (grad_n[d] * grad_n[e])
        if d == e:
            T += diag
        T_hat[d, e] = T_hat[e, d] = ops.forward_band(T)
    # F_d = d_e T_{d e} - sigma * d_d (Lap n); the w part of T,
    # -(mu/rho_bar) S[w] - delta (lam/rho_bar) div w, differentiates to
    # (mu/rho_bar)(|xi|^2 w_d + xi_d xi.w) + (lam/rho_bar) xi_d xi.w
    div_w_hat = np.sum(xi * w_hat, axis=0)
    F_hat = np.stack([
        1j * sum(xi[e] * T_hat[d, e] for e in range(3))
        - sigma * 1j * xi[d] * lap_n_hat
        + (mu / rho_bar) * ops.k2 * w_hat[d]
        + ((mu + lam) / rho_bar) * xi[d] * div_w_hat
        for d in range(3)])
    return F_hat, grad_n


def _check_fields(n_p, m_p, n_m, m_m) -> None:
    if np.min(n_p) <= -0.9 or np.min(n_m) <= -0.9:
        raise AdmissibilityError("fraction density too close to vacuum")
    if not all(np.isfinite(f).all() for f in (n_p, m_p, n_m, m_m)):
        raise RuntimeError("non-finite fields: instability detected")


def _rhs_hat(ops: _GridOps, Y: np.ndarray) -> np.ndarray:
    """Stacked band RHS: zero continuity rows, dealiased momentum."""
    real = [ops.inverse_band(Y[i]) for i in range(8)]
    n_p, m_p, n_m, m_m = (real[0], np.stack(real[1:4]), real[4],
                          np.stack(real[5:8]))
    _check_fields(n_p, m_p, n_m, m_m)
    eq = ops.eq
    p = eq.params
    rho_p, rho_m, _, C2c = solve_fraction_map(n_p + 1.0, n_m + 1.0, p, eq=eq)

    F1, gnp = _phase_rhs(ops, n_p, m_p, Y[0], Y[1:4], rho_p,
                         eq.rho_bar_plus, p.mu_plus, p.lambda_plus,
                         p.sigma_plus)
    F2, gnm = _phase_rhs(ops, n_m, m_m, Y[4], Y[5:8], rho_m,
                         eq.rho_bar_minus, p.mu_minus, p.lambda_minus,
                         p.sigma_minus)
    Q1 = (C2c * n_p * ((rho_m / rho_p) * gnp + gnm)
          + (C2c * rho_m / rho_p - eq.beta1) * gnp
          + (C2c - eq.C2) * gnm)
    Q2 = (C2c * n_m * ((rho_p / rho_m) * gnm + gnp)
          + (C2c * rho_p / rho_m - eq.beta4) * gnm
          + (C2c - eq.C2) * gnp)
    out = np.zeros_like(Y)
    out[1:4] = F1 - np.stack([ops.forward_band(Q1[d]) for d in range(3)])
    out[5:8] = F2 - np.stack([ops.forward_band(Q2[d]) for d in range(3)])
    return out


def default_dt(state: SimState) -> float:
    """Half the smallest retained wavelength over the sound speed."""
    lam_min = 3.0 * 2.0 * state.L / state.n
    return 0.5 * lam_min / state.eq.c


def step(state: SimState, dt: float, nonlinear: bool = True) -> SimState:
    """One integrating-factor RK4 step of length dt.

    The stage state stays in Fourier space on the band; each stage
    transforms to real space only what its products need (see _GridOps):
    224 transforms per step, 152 pruned to the band.  The flow is linear
    and E(dt) = E(dt/2) E(dt/2), so the stage-4 input E Y + dt E(dt/2) k3
    is E(dt/2)(E(dt/2) Y + dt k3) and the update is folded the same way: 4
    half-step propagations of the band, with one cached band-sized
    propagator, (33, 33, 17, 4, 4) at n = 48, and no full-step one.
    """
    ops = _GridOps.get(state)
    Y = _stack_hat(state)
    if not nonlinear:
        return _unstack(state, ops.apply_semigroup(Y, dt), state.t + dt)
    Eh = lambda Z: ops.apply_semigroup(Z, 0.5 * dt)
    k1 = _rhs_hat(ops, Y)
    EhY, Ehk1 = Eh(Y), Eh(k1)
    k2 = _rhs_hat(ops, EhY + 0.5 * dt * Ehk1)
    k3 = _rhs_hat(ops, EhY + 0.5 * dt * k2)
    k4 = _rhs_hat(ops, Eh(EhY + dt * k3))
    Yn = (Eh(EhY + dt / 6.0 * Ehk1 + dt / 3.0 * (k2 + k3))
          + dt / 6.0 * k4)
    if not np.all(np.isfinite(Yn)):
        raise RuntimeError("non-finite update: instability detected")
    return _unstack(state, Yn, state.t + dt)


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
    for _ in range(n_steps):
        state = step(state, dt, nonlinear=(mode == "nonlinear"))
        rows.append(diagnostics(state))
    return rows, state
