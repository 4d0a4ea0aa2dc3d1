"""Linear (radial, exact) and nonlinear (periodic box) two-fluid evolution.

The linearized system is diagonal over wavenumber magnitude, so the linear
path evolves a radial spectral profile exactly with the matrix semigroup --
no time-stepping error.  The nonlinear path is a pseudo-spectral solver on a
periodic box: the stiff linear part (sound waves, viscosity, capillarity) is
absorbed by an exact integrating factor per wave vector, and only the
nonlinear increments are advanced with classical RK4.

The RK4 stage state stays in Fourier space on the real-FFT half grid
(n, n, n//2+1).  Each stage transforms to real space only what its
products need, forms every product there and every derivative as one
spectral multiply: 82 real 3-D transforms per stage, 344 per step with the
8 + 8 that enter and leave Fourier space (see _GridOps for the count).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .model import (AdmissibilityError, EquilibriumState, solve_fraction_map)
from .spectral import semigroup_batch

__all__ = [
    "LinearRadialState", "SimState", "Diagnostics",
    "default_linear_state", "linear_evolve", "l2_norms", "fit_decay_slope",
    "decay_slope_table",
    "make_sim_state", "nonlinear_rhs", "apply_linear", "step",
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

    Every array lives on the real-FFT half grid (n, n, n//2+1): the fields
    are real, so the other half of each transform is its conjugate mirror.
    ``xi`` is the derivative wavenumber with the Nyquist entries set to
    zero, which makes an odd derivative of a real field real, as taking
    the real part of a full complex transform did; ``k2`` keeps them.

    One RHS stage costs 82 transforms: 8 inverse for n and m of both
    phases, then per phase 6 forward for u and w, 18 inverse for the
    symmetric gradients of u, w and m (6 pairs d <= e each), 4 inverse
    for grad n and Lap n, and 6 forward for the symmetric flux T; 6 forward
    for the pressure terms.  Fewer would need a different discretisation,
    e.g. J[n u] by the product rule n J[u] + u (x) grad n: at 3 cells per
    bump radius its aliasing error differs from the present one by far
    more than round-off.
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
        int2 = np.sum(idx * idx, axis=0)
        self.uniq_int2, self.inv = np.unique(int2, return_inverse=True)
        self.k_uniq = (math.pi / L) * np.sqrt(self.uniq_int2.astype(float))
        self.k2 = np.sum(xi ** 2, axis=0)
        k = np.sqrt(self.k2)
        self.xi = np.where(2 * np.abs(idx) == n, 0.0, xi)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.khat = np.where(k > 0.0, self.xi / np.maximum(k, 1e-300), 0.0)
        cut = (2.0 / 3.0) * (math.pi / self.dx)
        self.dealias = (np.abs(xi) <= cut).all(axis=0)
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
        """(G_gathered, heat factors) for duration t, cached."""
        if t not in self._props:
            G = semigroup_batch(self.k_uniq, t, self.eq)     # (nu, 4, 4)
            Gg = G[self.inv.reshape(self.k2.shape)]          # grid-shaped
            heat_p = np.exp(-self.eq.nu1_plus * self.k2 * t)
            heat_m = np.exp(-self.eq.nu1_minus * self.k2 * t)
            if len(self._props) > 16:
                self._props.clear()
            self._props[t] = (Gg, heat_p, heat_m)
        return self._props[t]

    # transforms between real fields and half-grid coefficients ------------
    def forward(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(f, axes=(0, 1, 2))

    def inverse(self, f_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(f_hat, s=self.shape, axes=(0, 1, 2))

    def apply_semigroup(self, Y: np.ndarray, t: float) -> np.ndarray:
        """Advance stacked half-grid transforms (8, n, n, n//2+1) by the
        exact linear flow."""
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
    # the retained-band projection keeps the state free of Nyquist content,
    # where the direction field khat cannot respect conjugate symmetry
    ops = _GridOps.get(state)
    fields = [state.n_p, *state.m_p, state.n_m, *state.m_m]
    return np.stack([ops.forward(f) for f in fields]) * ops.dealias


def _unstack(state: SimState, Y: np.ndarray, t: float) -> SimState:
    ops = _GridOps.get(state)
    real = [ops.inverse(Y[i]) for i in range(8)]
    return replace(state, n_p=real[0], m_p=np.stack(real[1:4]),
                   n_m=real[4], m_m=np.stack(real[5:8]), t=t)


def make_sim_state(eq: EquilibriumState, n: int = 48, L: float = 64.0,
                   eps: float = 1e-3, kind: str = "ring") -> SimState:
    """Compactly supported initial perturbation on the box.

    "ring": radial momentum pulse in both phases (launches a Huygens ring);
    "mode": single-mode density perturbation n+ = eps cos(pi x / L).
    """
    x1 = -L + (2.0 * L / n) * np.arange(n)
    X, Yc, Z = np.meshgrid(x1, x1, x1, indexing="ij")
    zeros = np.zeros((n, n, n))
    state = SimState(eq, L, n, zeros.copy(), np.zeros((3, n, n, n)),
                     zeros.copy(), np.zeros((3, n, n, n)))
    if kind == "mode":
        state.n_p = eps * np.cos(math.pi * X / L)
        return state
    if kind != "ring":
        raise ValueError(f"unknown initial condition {kind!r}")
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

    Takes the phase's real fields and their half-grid transforms; returns
    the transformed increments F_hat (3, n, n, n//2+1) and grad n, which
    the pressure terms reuse.
    """
    R = n + 1.0
    u = m / R
    w = n * u
    inv_rho = 1.0 / rho
    # the viscous tensor visc = (n/rho) J[u] - J[w]/rho + drop J[m], with
    # J[f]_{d,e} = d_e f_d, enters only as visc + visc^T and tr visc, so
    # only the symmetric gradients S[f]_{de} = d_e f_d + d_d f_e are formed
    coef = (n * inv_rho, -inv_rho, inv_rho - 1.0 / rho_bar)
    hats = (np.stack([ops.forward(u[d]) for d in range(3)]),
            np.stack([ops.forward(w[d]) for d in range(3)]), m_hat)
    xi = ops.xi
    sym = {}
    for d, e in _PAIRS:
        sym[d, e] = sum(c * ops.inverse(1j * (xi[e] * fh[d] + xi[d] * fh[e]))
                        for c, fh in zip(coef, hats))
    tr = 0.5 * (sym[0, 0] + sym[1, 1] + sym[2, 2])
    grad_n = np.stack([ops.inverse(1j * xi[d] * n_hat) for d in range(3)])
    lap_n_hat = -ops.k2 * n_hat
    lap_n = ops.inverse(lap_n_hat)
    # Korteweg form of R grad(Lap R) minus its linear part
    diag = sigma * (R * lap_n + 0.5 * np.sum(grad_n ** 2, axis=0)) + lam * tr
    T_hat = {}
    for d, e in _PAIRS:
        T = -(m[d] * u[e]) + mu * sym[d, e] - sigma * (grad_n[d] * grad_n[e])
        if d == e:
            T += diag
        T_hat[d, e] = T_hat[e, d] = ops.forward(T)
    # F_d = d_e T_{d e} - sigma * d_d (Lap n)
    F_hat = np.stack([
        1j * sum(xi[e] * T_hat[d, e] for e in range(3))
        - sigma * 1j * xi[d] * lap_n_hat
        for d in range(3)])
    return F_hat, grad_n


def _rhs_core(ops: _GridOps, fields, hats):
    """Dealiased transformed momentum increments (F1_hat, F2_hat).

    fields = (n+, m+, n-, m-) in real space, hats = their half-grid
    transforms.  The guards see the real fields exactly as given.
    """
    n_p, m_p, n_m, m_m = fields
    eq = ops.eq
    if np.min(n_p) <= -0.9 or np.min(n_m) <= -0.9:
        raise AdmissibilityError("fraction density too close to vacuum")
    if not all(np.isfinite(f).all() for f in fields):
        raise RuntimeError("non-finite fields: instability detected")
    p = eq.params
    rho_p, rho_m, _, C2c = solve_fraction_map(n_p + 1.0, n_m + 1.0, p, eq=eq)

    F1, gnp = _phase_rhs(ops, n_p, m_p, hats[0], hats[1], rho_p,
                         eq.rho_bar_plus, p.mu_plus, p.lambda_plus,
                         p.sigma_plus)
    F2, gnm = _phase_rhs(ops, n_m, m_m, hats[2], hats[3], rho_m,
                         eq.rho_bar_minus, p.mu_minus, p.lambda_minus,
                         p.sigma_minus)
    Q1 = (C2c * n_p * ((rho_m / rho_p) * gnp + gnm)
          + (C2c * rho_m / rho_p - eq.beta1) * gnp
          + (C2c - eq.C2) * gnm)
    Q2 = (C2c * n_m * ((rho_p / rho_m) * gnm + gnp)
          + (C2c * rho_p / rho_m - eq.beta4) * gnm
          + (C2c - eq.C2) * gnp)
    F1 -= np.stack([ops.forward(Q1[d]) for d in range(3)])
    F2 -= np.stack([ops.forward(Q2[d]) for d in range(3)])
    F1 *= ops.dealias
    F2 *= ops.dealias
    return F1, F2


def nonlinear_rhs(state: SimState):
    """Momentum increments (F1, F2) of the full system, dealiased.

    The continuity equations have no nonlinear part.  The pressure
    contributions are evaluated in the factored form: products of the
    perturbations with the exact per-cell density map, which vanish
    identically at equilibrium.
    """
    ops = _GridOps.get(state)
    fields = (state.n_p, state.m_p, state.n_m, state.m_m)
    hats = (ops.forward(state.n_p),
            np.stack([ops.forward(f) for f in state.m_p]),
            ops.forward(state.n_m),
            np.stack([ops.forward(f) for f in state.m_m]))
    F1, F2 = _rhs_core(ops, fields, hats)
    return (np.stack([ops.inverse(F1[d]) for d in range(3)]),
            np.stack([ops.inverse(F2[d]) for d in range(3)]))


def _rhs_hat(ops: _GridOps, Y: np.ndarray) -> np.ndarray:
    """Stacked-transform RHS: zero continuity rows, dealiased momentum."""
    real = [ops.inverse(Y[i]) for i in range(8)]
    fields = (real[0], np.stack(real[1:4]), real[4], np.stack(real[5:8]))
    hats = (Y[0], Y[1:4], Y[4], Y[5:8])
    out = np.zeros_like(Y)
    out[1:4], out[5:8] = _rhs_core(ops, fields, hats)
    return out


def default_dt(state: SimState) -> float:
    """Half the smallest retained wavelength over the sound speed."""
    lam_min = 3.0 * 2.0 * state.L / state.n
    return 0.5 * lam_min / state.eq.c


def apply_linear(state: SimState, t: float) -> SimState:
    """Exact linear flow on the grid (no nonlinear increments)."""
    ops = _GridOps.get(state)
    Y = ops.apply_semigroup(_stack_hat(state), t)
    return _unstack(state, Y, state.t + t)


def step(state: SimState, dt: float, nonlinear: bool = True) -> SimState:
    """One integrating-factor RK4 step of length dt.

    The stage state stays in Fourier space; each stage transforms to real
    space only what its products need (see _GridOps).
    """
    ops = _GridOps.get(state)
    Y = _stack_hat(state)
    if not nonlinear:
        return _unstack(state, ops.apply_semigroup(Y, dt), state.t + dt)
    E = lambda Z: ops.apply_semigroup(Z, dt)
    Eh = lambda Z: ops.apply_semigroup(Z, 0.5 * dt)
    k1 = _rhs_hat(ops, Y)
    EhY = Eh(Y)
    k2 = _rhs_hat(ops, EhY + 0.5 * dt * Eh(k1))
    k3 = _rhs_hat(ops, EhY + 0.5 * dt * k2)
    EY, Ehk3 = E(Y), Eh(k3)
    k4 = _rhs_hat(ops, EY + dt * Ehk3)
    Yn = EY + dt / 6.0 * (E(k1) + 2.0 * Eh(k2) + 2.0 * Ehk3 + k4)
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
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a simulator state dump")
        n_f, L, t = struct.unpack("<3d", fh.read(24))
        n = int(n_f)
        fields = [np.frombuffer(fh.read(8 * n ** 3), dtype="<f8")
                  .reshape(n, n, n).copy() for _ in range(8)]
    return SimState(eq, L, n, fields[0], np.stack(fields[1:4]),
                    fields[4], np.stack(fields[5:8]), t)


def run_simulation(eq: EquilibriumState, mode: str = "nonlinear",
                   n: int = 48, L: float = 64.0, eps: float = 1e-3,
                   t_final: float | None = None, dt: float | None = None,
                   kind: str = "ring"):
    """Time loop with per-step diagnostics; returns (rows, final_state).

    The box only represents free space until the fastest front wraps;
    t_final beyond the pre-wrap horizon (L - r_support) / c is rejected.
    """
    state = make_sim_state(eq, n=n, L=L, eps=eps, kind=kind)
    if t_final is None:
        t_final = L / (2.0 * eq.c)
    horizon = (L - 8.0) / eq.c
    if t_final > horizon + 1e-9:
        raise ValueError(f"t_final {t_final} beyond pre-wrap horizon "
                         f"{horizon:.3g}")
    if dt is None:
        dt = default_dt(state)
    rows = [diagnostics(state)]
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    for _ in range(n_steps):
        state = step(state, dt, nonlinear=(mode == "nonlinear"))
        rows.append(diagnostics(state))
    return rows, state
