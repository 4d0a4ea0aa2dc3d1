"""Linear decay slopes (radial, exact) and nonlinear (periodic box)
two-fluid evolution.

The linearized system is diagonal over wavenumber magnitude, so the decay
slopes read a radial spectral profile evolved exactly by the matrix
semigroup -- no time-stepping error.  The nonlinear path is a
pseudo-spectral solver on a periodic box: the stiff linear part (sound
waves, viscosity, capillarity) is absorbed by an exact integrating factor
per wave vector, and only the nonlinear increments are advanced with
classical RK4.

A real state is one (8, n, n, n) array, rows n+, m+ (3), n-, m- (3).  The
time loop keeps it in Fourier space, on the band of the real-FFT half grid
that the 2/3 rule (Orszag 1971) retains: it enters once per run and leaves
once per diagnostics row (8 transforms each).  Each RK4 stage transforms
to real space only what its products need and forms every derivative as
one spectral multiply: 52 real 3-D transforms per stage, 208 per step.
The full-step propagator is applied as two half steps of one real
propagator on the unique |k|, built once per run.  The run's _GridOps owns
the box grid and every buffer that the transforms, the stages and the
diagnostics rows write (see _GridOps).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .model import (AdmissibilityError, EquilibriumState, solve_fraction_map)
from .spectral import decompose_symbol

__all__ = [
    "fit_decay_slope", "decay_slope_table", "make_sim_state",
    "diagnostics", "shell_profile", "dump_state", "load_state",
    "run_simulation",
]


# ---------------------------------------------------------------------------
# large-time decay slopes of the exact linear evolution

def _plancherel_norm(ks: np.ndarray, f_hat: np.ndarray) -> float:
    """L2 norm of a radial field from its profile f_hat(|k|) on ks, by
    Plancherel with the radial weight 4 pi k^2 and the trapezoid rule."""
    return math.sqrt(np.trapezoid(4.0 * math.pi * ks ** 2
                                  * np.abs(f_hat) ** 2, ks))


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


def decay_slope_table(eq: EquilibriumState) -> dict[str, float]:
    """Measured L2 decay slopes of the linear evolution from momentum data,
    fitted over 12 log-spaced times in [1e2, 1e4].

    The data is smooth plus-phase momentum, m0_hat = e^{-k^2/2} and n0 = 0,
    on 800 log-spaced k in [1e-4, 10]; equal data in both phases would
    cancel the slow diffusive mode entirely for symmetric backgrounds.  The
    solution U(t) = e^{tA(k)} (0, m0_hat, 0, 0), rows (n+, m+, n-, m-) with
    m the longitudinal momentum, is m0_hat times column 1 of e^{tA(k)},
    from one decomposition of the grid for all times.
    """
    ts = np.logspace(2.0, 4.0, 12)
    ks = np.logspace(-4.0, 1.0, 800)
    m0 = np.exp(-0.5 * ks ** 2)
    dec = decompose_symbol(ks, eq)
    series: dict[str, list[float]] = {k: [] for k in
                                      ("n_p", "n_m", "m_p", "m_m", "combo")}
    for t in ts:
        U = dec.semigroup(t)[:, :, 1] * m0[:, None]
        combo = eq.rho_bar_minus * U[:, 0] + eq.rho_bar_plus * U[:, 2]
        for key, f_hat in zip(series, (U[:, 0], U[:, 2], U[:, 1], U[:, 3],
                                       combo)):
            series[key].append(_plancherel_norm(ks, f_hat))
    return {key: fit_decay_slope(ts, vals)[0] for key, vals in series.items()}


# ---------------------------------------------------------------------------
# periodic-box state and grid machinery

class _GridOps:
    """Box grid, spectral machinery and workspace of one (n, L, eq) grid;
    run_simulation owns one per run.  The box points are -L + i dx on each
    axis (coords), and ``shell`` holds each point's radius bin for the
    ring diagnostic: n//2 equal bins on [0, L], built once per grid.

    Real fields transform onto the half grid (n, n, n//2+1).  The 2/3
    rule |xi_d| <= (2/3) pi/dx, with xi_d = pi v / L, is decided on the
    integer mode v as 3 |v| <= n, so no round-off in L moves the edge
    mode.  It keeps a box of the half grid, the band: rows ``rows``
    (0..lo-1, n-nb..n-1) of the full axes and columns 0..h-1 of the half
    axis, (33, 33, 17) at n = 48, indexed by ``band``.  The state,
    ``xi``, ``k2``, ``khat`` and the unique-|k| index ``inv`` are
    band-shaped; the band holds no Nyquist mode.
    Every transform runs the rfftn or irfftn passes on the whole half
    grid, so its result is bitwise rfftn or irfftn; forward_band gathers
    the band from it and inverse_band scatters the band into a zeroed
    half grid, both through one flat index built here.

    One RHS stage costs 52 transforms: 8 inverse for n and m of both
    phases, then per phase 19 -- 3 forward for w = n u, 6 inverse for the
    symmetric gradients of u (pairs d <= e), 4 inverse for grad n and
    Lap n, and 6 forward for the symmetric flux T -- and 6 forward for the
    pressure terms.  u needs no transform of its own: m = R u = u + w
    pointwise, so u_hat = m_hat - w_hat, and the viscous terms in S[w] and
    S[m] have constant coefficients once rewritten through S[u] (see
    _phase_rhs), so they stay in Fourier space.  w = n u has full
    support, so the 18 transforms of w and S[u] keep the whole half grid
    and the derivative vectors ``xf`` (three 1-D wavenumber vectors that
    broadcast over it, zero at Nyquist: odd derivatives of real fields stay
    real); the other 34 are band transforms.

    The grid owns every buffer its transforms and stages write, and every
    transform writes through ``out=``.  Sizes scale with n^3:
    - transform scratch, built here: one half-grid array, in which the
      band transforms and the inverse passes run, and the band's flat
      index, about 0.6 n^3 complex numbers (1.0 MiB at n = 48); forward
      runs its passes in place in its output;
    - ``real``, the real state (8, n, n, n) of a band state, 64 n^3
      bytes (6.8 MiB at n = 48), built on the first to_real; each stage
      and each diagnostics row of run_simulation overwrite it;
    - the stage workspace (_StageWork), 19 real fields and 5 half-grid
      arrays, about 190 n^3 bytes (20.7 MiB at n = 48), built on the first
      nonlinear stage, so linear runs never allocate it.
    Once a nonlinear stage has run, these buffers and the shell index
    (8 n^3 bytes) hold 29.4 MiB at n = 48 and 234 MiB at n = 96.
    """

    def __init__(self, n: int, L: float, eq: EquilibriumState):
        self.n, self.L, self.eq = n, L, eq
        self.dx = 2.0 * L / n
        self.shape = (n, n, n)
        full = np.fft.fftfreq(n, d=1.0 / n).astype(int)   # integer modes
        half = np.arange(n // 2 + 1)
        scale = math.pi / L
        self.rows = np.flatnonzero(3 * np.abs(full) <= n)
        self.h = int(np.count_nonzero(3 * half <= n))
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
        self.uniq_int2, inv = np.unique(int2, return_inverse=True)
        self.inv = inv.reshape(int2.shape)
        self.k_uniq = (math.pi / L) * np.sqrt(self.uniq_int2.astype(float))
        self.k2 = np.sum(self.xi ** 2, axis=0)
        k = np.sqrt(self.k2)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.khat = np.where(k > 0.0, self.xi / np.maximum(k, 1e-300), 0.0)
        self._half = np.empty((n, n, half.size), dtype=complex)
        self._flat = np.ravel_multi_index(self.band[1:], self._half.shape)
        nbins = n // 2
        edges = np.linspace(0.0, L, nbins + 1)
        self.shell = np.clip(np.digitize(self.radius().ravel(), edges) - 1,
                             0, nbins - 1)
        self.shell_count = np.maximum(np.bincount(self.shell,
                                                  minlength=nbins), 1)
        self.shell_r = 0.5 * (edges[:-1] + edges[1:])
        self.real = None
        self._work = None

    def coords(self):
        """The box coordinates, one per axis, broadcasting to (n, n, n)."""
        x1 = -self.L + self.dx * np.arange(self.n)
        return x1[:, None, None], x1[None, :, None], x1[None, None, :]

    def radius(self) -> np.ndarray:
        """|x| at the box points, built on each call."""
        X, Y, Z = self.coords()
        return np.sqrt(X ** 2 + Y ** 2 + Z ** 2)

    def propagator(self, t: float):
        """(G, heat factors) for duration t: G is e^{tA} on the unique |k|,
        (nu, 4, 4), and the heat factors are band-shaped.

        e^{tA} of the real symbol is real, so G is float64; an imaginary
        part above 1e-12 of the largest entry raises RuntimeError.
        """
        G = decompose_symbol(self.k_uniq, self.eq).semigroup(t)
        residue = np.abs(G.imag).max()
        if residue > 1e-12 * np.abs(G).max():
            raise RuntimeError(f"propagator imaginary residue {residue:.3g} "
                               "too large for a real propagator")
        heat_p = np.exp(-self.eq.nu1_plus * self.k2 * t)
        heat_m = np.exp(-self.eq.nu1_minus * self.k2 * t)
        return G.real, heat_p, heat_m

    # transforms between real fields and half-grid or band coefficients ----
    def _rfftn(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rfftn(f), pass by pass in place in the half-grid array out."""
        np.fft.rfft(f, axis=2, out=out)
        np.fft.fft(out, axis=1, out=out)
        return np.fft.fft(out, axis=0, out=out)

    def _irfftn(self, f_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """irfftn(f_hat) into out, the complex passes in the scratch."""
        np.fft.ifft(f_hat, axis=0, out=self._half)
        np.fft.ifft(self._half, axis=1, out=self._half)
        return np.fft.irfft(self._half, n=self.n, axis=2, out=out)

    # the band transforms call the passes by their private names, so that
    # counting the calls of forward and inverse counts full transforms only
    forward, inverse = _rfftn, _irfftn

    def forward_band(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rfftn(f) on the band: the half grid, then one gather (mode="clip"
        keeps np.take from buffering out)."""
        self._rfftn(f, self._half)
        return np.take(self._half, self._flat, out=out, mode="clip")

    def inverse_band(self, f_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """irfftn of the half grid zero-filled from the band f_hat."""
        self._half.fill(0.0)
        np.put(self._half, self._flat, f_hat)
        return self._irfftn(self._half, out)

    def to_band(self, f: np.ndarray) -> np.ndarray:
        """The band state of real state f (the band holds no Nyquist mode,
        where khat could not respect conjugate symmetry)."""
        Y = np.empty((8,) + self.band_shape, dtype=complex)
        for i in range(8):
            self.forward_band(f[i], out=Y[i])
        return Y

    def to_real(self, Y: np.ndarray) -> np.ndarray:
        """The real state of band state Y, in the grid's ``real`` buffer:
        valid until the next to_real or RHS stage."""
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
        linear flow of a propagator(t).  G reaches the band one entry at a
        time, so no band-sized (..., 4, 4) array is formed."""
        G, heat_p, heat_m = prop
        out = np.empty_like(Y)
        mL_p = np.sum(self.khat * Y[1:4], axis=0)
        mL_m = np.sum(self.khat * Y[5:8], axis=0)
        out[1:4] = heat_p * (Y[1:4] - self.khat * mL_p)
        out[5:8] = heat_m * (Y[5:8] - self.khat * mL_m)
        Y_long = (Y[0], 1j * mL_p, Y[4], 1j * mL_m)
        U = [sum(G[self.inv, i, j] * Y_long[j] for j in range(4))
             for i in range(4)]
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
        self.w_hat = np.empty((3,) + ops._half.shape, dtype=complex)
        self.spec = np.empty((2,) + ops._half.shape, dtype=complex)
        self.T_hat = np.empty(ops.band_shape, dtype=complex)


# the initial pulse's radius, which the box must exceed, and the largest
# box size and amplitude a run takes: up to 1e6 its squares, cell volumes
# and transform sums stay far inside float64 (at 1e300 they overflowed)
R_PULSE, L_MAX, EPS_MAX = 8.0, 1e6, 1e6
# the largest grid a run takes: a nonlinear run's peak is near 33 MiB plus
# 470 bytes per point (83 MiB at n = 48, 146 MiB at n = 64), 3.1 GiB at
# n = 192, and a linear run's is lower
N_MAX = 192


def make_sim_state(ops: _GridOps, eps: float = 1e-3) -> np.ndarray:
    """Compactly supported initial perturbation on the box of ops, as a
    real state (8, n, n, n): a radial momentum pulse of radius R_PULSE in
    both phases, which launches a Huygens ring."""
    r = ops.radius()
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(r < R_PULSE, np.exp(
            1.0 - 1.0 / np.maximum(1.0 - (r / R_PULSE) ** 2, 1e-300)), 0.0)
    rad = bump / np.maximum(r, 1e-12)
    f = np.zeros((8,) + ops.shape)
    for d, coord in enumerate(ops.coords()):
        f[1 + d] = f[5 + d] = eps * rad * coord
    return f


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


def _check_fields(f: np.ndarray) -> None:
    """Refuse a real state near vacuum or with a non-finite value."""
    if np.min(f[0]) <= -0.9 or np.min(f[4]) <= -0.9:
        raise AdmissibilityError("fraction density too close to vacuum")
    if not np.isfinite(f).all():
        raise RuntimeError("non-finite fields: instability detected")


def _rhs_hat(ops: _GridOps, Y: np.ndarray) -> np.ndarray:
    """Stacked band RHS: zero continuity rows, dealiased momentum.

    The real fields go to the grid's ``real`` buffer and every other
    real-space or half-grid intermediate to its stage workspace; what the
    stage allocates is its output, band-sized arithmetic and the fraction
    map's solve.
    """
    real = ops.to_real(Y)
    _check_fields(real)
    n_p, m_p, n_m, m_m = real[0], real[1:4], real[4], real[5:8]
    eq = ops.eq
    p = eq.params
    W = ops.work()
    R_p, R_m = W.R
    np.add(n_p, 1.0, out=R_p)
    np.add(n_m, 1.0, out=R_m)
    rho_p, rho_m, _, C2c = solve_fraction_map(R_p, R_m, eq)

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


def step(ops: _GridOps, Y: np.ndarray, dt: float, prop,
         nonlinear: bool = True) -> np.ndarray:
    """One integrating-factor RK4 step of length dt of the band state Y.

    prop is ops.propagator(dt / 2), or ops.propagator(dt) for a linear
    step.  Each stage transforms to real space only what its products
    need (see _GridOps): 208 transforms per step, 136 of them band
    transforms.  The flow is linear and E(dt) = E(dt/2) E(dt/2), so the
    stage-4 input E Y + dt E(dt/2) k3 is E(dt/2)(E(dt/2) Y + dt k3) and
    the update is folded the same way: 4 half-step propagations with one
    float64 propagator on the unique |k|.

    The folded update is summed as its terms arrive, and k1, E(dt/2) k1
    and k2 are released as soon as it has used them: while a stage runs,
    the step holds E(dt/2) Y, the update and the stage input besides Y,
    each a band state of about 1.3 n^3 complex numbers (2.3 MiB at
    n = 48).  The stages write everything else into the grid's buffers.
    """
    if not nonlinear:
        return ops.apply_semigroup(Y, prop)
    Eh = lambda Z: ops.apply_semigroup(Z, prop)
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

def shell_profile(ops: _GridOps, f: np.ndarray):
    """Bin-center radii and shell averages of |m+ + m-| of real state f."""
    amp = np.sqrt(np.sum((f[1:4] + f[5:8]) ** 2, axis=0))
    sums = np.bincount(ops.shell, weights=amp.ravel(),
                       minlength=ops.shell_r.size)
    return ops.shell_r, sums / ops.shell_count


def diagnostics(ops: _GridOps, f: np.ndarray, t: float) -> dict:
    """The diagnostics.csv row of real state f at time t, a dict from column
    name to value: masses, the total momentum's norm, L2 norms, ring
    radius, then the total momentum's components."""
    dV = ops.dx ** 3
    n_p, m_p, n_m, m_m = f[0], f[1:4], f[4], f[5:8]
    momentum = np.sum(m_p + m_m, axis=(1, 2, 3)) * dV
    l2 = lambda g: float(math.sqrt(np.sum(g ** 2) * dV))
    combo = ops.eq.rho_bar_minus * n_p + ops.eq.rho_bar_plus * n_m
    radii, prof = shell_profile(ops, f)
    return {"t": t, "mass_p": float(np.sum(n_p) * dV),
            "mass_m": float(np.sum(n_m) * dV),
            "momentum": float(np.linalg.norm(momentum)),
            "l2_np": l2(n_p), "l2_nm": l2(n_m), "l2_mp": l2(m_p),
            "l2_mm": l2(m_m), "l2_combo": l2(combo),
            "ring_r": float(radii[int(np.argmax(prof))]),
            **{f"momentum_{x}": float(v) for x, v in zip("xyz", momentum)}}


# ---------------------------------------------------------------------------
# binary state dump

_MAGIC = b"TFSIM001"


def dump_state(f: np.ndarray, L: float, t: float, path: str) -> None:
    """Little-endian float64 dump: header (n, L, t), then the real state f,
    rows n+, m+ (3 components), n-, m- (3 components)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<3d", float(f.shape[-1]), L, t))
        fh.write(np.ascontiguousarray(f, dtype="<f8").data)


def load_state(path: str):
    """(f, L, t) of a dump_state file; ValueError on a bad header or size."""
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
        f = np.fromfile(fh, dtype="<f8").reshape(8, n, n, n)
    return f, L, t


def run_simulation(eq: EquilibriumState, mode: str = "nonlinear",
                   n: int = 48, L: float = 64.0, eps: float = 1e-3,
                   t_final: float | None = None):
    """Time loop with per-step diagnostics; returns (table, f).  table is
    the diagnostics.csv table, a dict from column name to a 1-D column
    with one row at t = 0 and one per step (see diagnostics), and f is the
    final real state, at time table["t"][-1].

    The state enters the band once and stays there.  Every diagnostics
    row, the first too, reads the real state that the run's _GridOps
    writes into its ``real`` buffer from the band state, and f is that
    buffer itself.  The run's memory is the grid's buffers (29.4 MiB at
    n = 48, 234 MiB at n = 96; see _GridOps) and a few band states (see
    step).

    The box only represents free space until the fastest front wraps;
    t_final beyond the pre-wrap horizon (L - R_PULSE) / c is a ValueError,
    and so are a mode not linear or nonlinear, n outside [4, N_MAX], L
    outside (R_PULSE, L_MAX], eps outside [-EPS_MAX, EPS_MAX] and a
    t_final that is not finite and positive, all before any array is built.
    """
    if mode not in ("linear", "nonlinear"):
        raise ValueError(f"mode {mode!r} is neither 'linear' nor 'nonlinear'")
    if not 4 <= n <= N_MAX:
        raise ValueError(f"grid size {n} must be at least 4 and at most "
                         f"{N_MAX}")
    if not R_PULSE < L <= L_MAX:
        raise ValueError(f"box size {L} must exceed the pulse radius "
                         f"{R_PULSE:g} and be at most {L_MAX:g}")
    if not abs(eps) <= EPS_MAX:
        raise ValueError(f"amplitude eps {eps} must be finite with "
                         f"|eps| <= {EPS_MAX:g}")
    if t_final is None:
        t_final = L / (2.0 * eq.c)
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final {t_final} must be finite and positive")
    horizon = (L - R_PULSE) / eq.c
    if t_final > horizon + 1e-9:
        raise ValueError(f"t_final {t_final} beyond pre-wrap horizon "
                         f"{horizon:.3g}")
    # dt at most half the smallest retained wavelength, 3 dx, over c
    n_steps = max(1, int(round(t_final / (0.5 * (3.0 * 2.0 * L / n)
                                          / eq.c))))
    dt = t_final / n_steps
    ops = _GridOps(n, L, eq)
    Y = ops.to_band(make_sim_state(ops, eps))
    rows = [diagnostics(ops, ops.to_real(Y), 0.0)]
    nonlinear = mode == "nonlinear"
    prop = ops.propagator(0.5 * dt if nonlinear else dt)   # dt is constant
    t = 0.0
    for _ in range(n_steps):
        Y = step(ops, Y, dt, prop, nonlinear)
        t += dt
        rows.append(diagnostics(ops, ops.to_real(Y), t))
    table = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return table, ops.real
