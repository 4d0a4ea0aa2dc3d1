"""Tests for the exact linear path and the nonlinear box simulator."""

from __future__ import annotations

import math
import struct
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from twofluid.model import (AdmissibilityError, EquilibriumState,
                            ModelParams, solve_equilibrium,
                            solve_fraction_map)
from twofluid.spectral import (SymbolDecomposition, branches,
                               decompose_symbol, projectors)
from twofluid import sim

EQ = solve_equilibrium(ModelParams())


# ---------------------------------------------------------------------------
# reference oracle: the complex-FFT, physical-space-stage stepper the
# half-grid spectral-resident one replaced, kept verbatim.  The two share
# every discrete operator, so they agree to round-off.

class _RefGridOps:
    """Full complex grid (n, n, n) machinery of the reference stepper."""

    def __init__(self, n: int, L: float, eq):
        self.n, self.L, self.eq = n, L, eq
        self.dx = 2.0 * L / n
        idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)    # integer modes
        ii, jj, kk = np.meshgrid(idx, idx, idx, indexing="ij")
        self.xi = (math.pi / L) * np.stack([ii, jj, kk]).astype(float)
        int2 = ii * ii + jj * jj + kk * kk
        self.uniq_int2, self.inv = np.unique(int2, return_inverse=True)
        self.k_uniq = (math.pi / L) * np.sqrt(self.uniq_int2.astype(float))
        k2 = np.sum(self.xi ** 2, axis=0)
        k = np.sqrt(k2)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.khat = np.where(k > 0.0, self.xi / np.maximum(k, 1e-300), 0.0)
        self.k2 = k2
        cut = (2.0 / 3.0) * (math.pi / self.dx)
        self.dealias = (np.abs(self.xi) <= cut).all(axis=0)

    def apply_semigroup(self, Y: np.ndarray, t: float) -> np.ndarray:
        G = decompose_symbol(self.k_uniq, self.eq).semigroup(t)
        Gg = G[self.inv.reshape(self.k2.shape)]
        heat_p = np.exp(-self.eq.nu1_plus * self.k2 * t)
        heat_m = np.exp(-self.eq.nu1_minus * self.k2 * t)
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


def _ref_phase_rhs(ops, n, m, rho, rho_bar, mu, lam, sigma):
    fft, ifft = np.fft.fftn, np.fft.ifftn
    n_hat = fft(n)
    R = n + 1.0
    u = m / R
    w = n * u
    # Jacobians J[f]_{d,e} = d_e f_d for u, w, m
    J = {}
    for name, field in (("u", u), ("w", w), ("m", m)):
        fh = [fft(field[d]) for d in range(3)]
        J[name] = np.stack([[ifft(1j * ops.xi[e] * fh[d]).real
                             for e in range(3)] for d in range(3)])
    inv_rho = 1.0 / rho
    drop = inv_rho - 1.0 / rho_bar
    visc = (n * inv_rho) * J["u"] - inv_rho * J["w"] + drop * J["m"]
    grad_n = np.stack([ifft(1j * ops.xi[d] * n_hat).real for d in range(3)])
    lap_n = ifft(-ops.k2 * n_hat).real
    # Korteweg form of R grad(Lap R) minus its linear part
    T = -(m[:, None] * u[None, :])                      # convection
    T += mu * (visc + np.transpose(visc, (1, 0, 2, 3, 4)))
    kort = R * lap_n + 0.5 * np.sum(grad_n ** 2, axis=0)
    tr = visc[0, 0] + visc[1, 1] + visc[2, 2]
    for d in range(3):
        T[d, d] += sigma * kort + lam * tr
    T -= sigma * (grad_n[:, None] * grad_n[None, :])
    # F_d = d_e T_{d e} - sigma * d_d (Lap n)
    lap_n_hat = -ops.k2 * n_hat
    F_hat = np.stack([
        1j * np.sum(ops.xi * np.stack([fft(T[d, e]) for e in range(3)]),
                    axis=0)
        - sigma * 1j * ops.xi[d] * lap_n_hat
        for d in range(3)])
    return F_hat


def _ref_nonlinear_rhs(eq, L, f):
    """(F1, F2) of the real state f on the box [-L, L)^3."""
    ops = _RefGridOps(f.shape[-1], L, eq)
    n_p, m_p, n_m, m_m = f[0], f[1:4], f[4], f[5:8]
    p = eq.params
    rho_p, rho_m, _, C2c = solve_fraction_map(n_p + 1.0, n_m + 1.0, eq)

    F1 = _ref_phase_rhs(ops, n_p, m_p, rho_p, eq.rho_bar_plus,
                        p.mu_plus, p.lambda_plus, p.sigma_plus)
    F2 = _ref_phase_rhs(ops, n_m, m_m, rho_m, eq.rho_bar_minus,
                        p.mu_minus, p.lambda_minus, p.sigma_minus)

    fft, ifft = np.fft.fftn, np.fft.ifftn
    gnp = np.stack([ifft(1j * ops.xi[d] * fft(n_p)).real for d in range(3)])
    gnm = np.stack([ifft(1j * ops.xi[d] * fft(n_m)).real for d in range(3)])
    Q1 = (C2c * n_p * ((rho_m / rho_p) * gnp + gnm)
          + (C2c * rho_m / rho_p - eq.beta1) * gnp
          + (C2c - eq.C2) * gnm)
    Q2 = (C2c * n_m * ((rho_p / rho_m) * gnm + gnp)
          + (C2c * rho_p / rho_m - eq.beta4) * gnm
          + (C2c - eq.C2) * gnp)
    F1 -= np.stack([fft(Q1[d]) for d in range(3)])
    F2 -= np.stack([fft(Q2[d]) for d in range(3)])
    F1 *= ops.dealias
    F2 *= ops.dealias
    return (np.stack([ifft(F1[d]).real for d in range(3)]),
            np.stack([ifft(F2[d]).real for d in range(3)]))


def _ref_step(eq, L, f, dt):
    """The real state f advanced by one step of length dt."""
    ops = _RefGridOps(f.shape[-1], L, eq)
    Y = np.stack([np.fft.fftn(g) for g in f]) * ops.dealias

    def unstack(Z):
        return np.stack([np.fft.ifftn(Z[i]).real for i in range(8)])

    def rhs_hat(Z):
        F1, F2 = _ref_nonlinear_rhs(eq, L, unstack(Z))
        out = np.zeros_like(Z)
        for d in range(3):
            out[1 + d] = np.fft.fftn(F1[d])
            out[5 + d] = np.fft.fftn(F2[d])
        return out

    E = lambda Z: ops.apply_semigroup(Z, dt)
    Eh = lambda Z: ops.apply_semigroup(Z, 0.5 * dt)
    k1 = rhs_hat(Y)
    EhY = Eh(Y)
    k2 = rhs_hat(EhY + 0.5 * dt * Eh(k1))
    k3 = rhs_hat(EhY + 0.5 * dt * k2)
    k4 = rhs_hat(E(Y) + dt * Eh(k3))
    Yn = E(Y) + dt / 6.0 * (E(k1) + 2.0 * Eh(k2) + 2.0 * Eh(k3) + k4)
    return unstack(Yn)


# the rows of each field in a real state (8, n, n, n)
FIELDS = {"n_p": 0, "m_p": slice(1, 4), "n_m": 4, "m_m": slice(5, 8)}


def _pulse_state(eq, n=16, L=16.0, eps=1e-2):
    """(ops, f): a grid and the initial momentum pulse on it."""
    ops = sim._GridOps(n, L, eq)
    return ops, sim.make_sim_state(ops, eps)


def _mode_state(eq, n=16, L=16.0, eps=1e-2):
    """Single-mode density perturbation n+ = eps cos(pi x / L), at rest."""
    ops, f = _pulse_state(eq, n, L, 0.0)
    f[0] = eps * np.cos(math.pi * ops.coords()[0] / L)
    return ops, f


def _advance(ops, f, dt, T):
    """The real state f advanced by round(T / dt) RK4 steps of the band
    state, as a nonlinear run_simulation does."""
    Y = ops.to_band(f)
    prop = ops.propagator(0.5 * dt)
    for _ in range(int(round(T / dt))):
        Y = sim.step(ops, Y, ops.to_real(Y), dt, prop)
    return ops.to_real(Y).copy()


def _rhs(ops, f):
    """Momentum increments (F1, F2) of the band projection of f, in real
    space: the stage RHS of the stepper."""
    Y = ops.to_band(f)
    F = sim._rhs_hat(ops, Y, ops.to_real(Y))
    real = np.empty((8,) + ops.shape)
    for i in range(8):
        ops.inverse_band(F[i], out=real[i])
    return real[1:4], real[5:8]


# bulk viscosity and unequal phases, which the defaults leave out
EQ_ASYM = solve_equilibrium(ModelParams(
    mu_minus=2.0, lambda_plus=0.5, lambda_minus=1.5, sigma_plus=0.02,
    A_minus=2.0, gamma_minus=1.6))


def _oracle_states():
    """(ops, f) pairs."""
    for n, L in ((16, 16.0), (24, 32.0)):
        yield _pulse_state(EQ, n=n, L=L)
        yield _mode_state(EQ, n=n, L=L)
    # momentum and density together, so the viscous tensor is nonzero
    ops, f = _pulse_state(EQ_ASYM)
    f[0] = _mode_state(EQ_ASYM)[1][0]
    yield ops, f
    # broadband data reaches the Nyquist modes, which the smooth states
    # above leave empty
    ops, f = _pulse_state(EQ)
    rng = np.random.default_rng(3)
    f[0] += 1e-3 * rng.standard_normal(ops.shape)
    f[5:8] += 1e-3 * rng.standard_normal((3,) + ops.shape)
    yield ops, f


class TestReferenceOracle:
    @pytest.mark.parametrize("idx", range(6))
    def test_rhs_matches_reference(self, idx):
        ops, f = list(_oracle_states())[idx]
        F1, F2 = _rhs(ops, f)
        # _rhs evaluates the band projection of the state, as the stepper
        # does; the reference sees the same projected fields
        R1, R2 = _ref_nonlinear_rhs(ops.eq, ops.L,
                                    ops.to_real(ops.to_band(f)).copy())
        scale = max(np.abs(R1).max(), np.abs(R2).max())
        assert scale > 0.0
        assert np.abs(F1 - R1).max() <= 1e-12 * scale
        assert np.abs(F2 - R2).max() <= 1e-12 * scale

    @pytest.mark.parametrize("make, eq", [(_pulse_state, EQ),
                                          (_mode_state, EQ),
                                          (_pulse_state, EQ_ASYM)],
                             ids=["sym-ring", "sym-mode", "asym-ring"])
    def test_step_matches_reference(self, make, eq):
        ops, f = make(eq, n=16, L=16.0, eps=1e-2)
        a = _advance(ops, f, 0.3, 0.3)
        b = _ref_step(eq, 16.0, f, 0.3)
        for rows in FIELDS.values():
            x, y = a[rows], b[rows]
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


class TestLinearPath:
    def test_semigroup_composition(self):
        dec = decompose_symbol(np.logspace(-4, 1, 60), EQ)
        half = dec.semigroup(1.5)
        assert np.abs(dec.semigroup(3.0) - half @ half).max() < 1e-10

    def test_projector_filtering(self):
        # data in a single spectral branch evolves by a scalar exponential
        k = 0.05
        lam = branches(k, EQ)[0]
        v = projectors(k, lam[None], EQ)[0, 2] \
            @ np.array([1.0, 0.3, -0.2, 0.5], dtype=complex)
        out = decompose_symbol(np.array([k]), EQ).semigroup(7.0)[0] @ v
        expected = np.exp(lam[2] * 7.0) * v
        assert np.abs(out - expected).max() < 1e-10


class TestL2Norms:
    KS = np.logspace(-4, 1.3, 2000)

    def _norm(self, amp: float = 1.0) -> float:
        return sim._plancherel_norm(self.KS, amp * np.exp(-self.KS ** 2 / 2))

    def test_gaussian_oracle(self):
        # ||f||^2 = 4 pi int k^2 e^{-k^2} dk = pi^{3/2}
        assert self._norm() ** 2 == pytest.approx(math.pi ** 1.5, rel=1e-4)

    def test_zero_state(self):
        assert self._norm(0.0) == 0.0

    def test_homogeneity(self):
        assert self._norm(2.0) == pytest.approx(2.0 * self._norm(1.0),
                                                rel=1e-12)


class TestFitDecaySlope:
    def test_synthetic_power_law(self):
        ts = np.logspace(0, 3, 20)
        slope, err = sim.fit_decay_slope(ts, (1.0 + ts) ** -0.25)
        assert slope == pytest.approx(-0.25, abs=1e-6)
        assert err < 1e-6

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ValueError):
            sim.fit_decay_slope([1.0, 2.0, 3.0], [1.0, 0.9, 0.8])
        with pytest.raises(ValueError):
            sim.fit_decay_slope(np.linspace(10, 90, 10),
                                np.linspace(1, 0.5, 10))


# reference oracle: the radial-state path decay_slope_table used to take,
# kept verbatim.  Its state carries all four longitudinal columns and the
# transverse momentum, which the momentum-only data leaves at exact zeros.

@dataclass(frozen=True)
class _LinearRadialState:
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


def _default_linear_state(eq: EquilibriumState, nk: int = 800,
                          k_min: float = 1e-4, k_max: float = 10.0,
                          width: float = 1.0) -> _LinearRadialState:
    """Momentum-only smooth data: m0 Gaussian with a nonzero mean, n0 = 0.

    The momentum goes into one phase only; equal data in both phases would
    cancel the slow diffusive mode entirely for symmetric backgrounds.
    """
    ks = np.logspace(math.log10(k_min), math.log10(k_max), nk)
    U = np.zeros((nk, 4), dtype=complex)
    U[:, 1] = np.exp(-0.5 * (width * ks) ** 2)
    inc = np.zeros((nk, 2), dtype=complex)
    return _LinearRadialState(ks, U, inc, 0.0, eq)


def _linear_evolve(state: _LinearRadialState, t: float,
                   dec: SymbolDecomposition | None = None
                   ) -> _LinearRadialState:
    """Advance by duration t with the exact per-mode semigroup of dec,
    decompose_symbol(state.k_grid, state.eq), built here if not given."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return state
    eq = state.eq
    dec = dec or decompose_symbol(state.k_grid, eq)
    G = dec.semigroup(t)
    U = np.einsum("nij,nj->ni", G, state.U_hat)
    heat = np.exp(np.outer(-state.k_grid ** 2 * t,
                           [eq.nu1_plus, eq.nu1_minus]))
    return replace(state, U_hat=U, phi_inc=state.phi_inc * heat,
                   t=state.t + t)


def _l2_norms(state: _LinearRadialState) -> dict[str, float]:
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


def _ref_decay_slope_table(eq: EquilibriumState, t_lo: float = 1e2,
                           t_hi: float = 1e4,
                           n_t: int = 12) -> dict[str, float]:
    ts = np.logspace(math.log10(t_lo), math.log10(t_hi), n_t)
    state0 = _default_linear_state(eq)
    dec = decompose_symbol(state0.k_grid, eq)
    series: dict[str, list[float]] = {k: [] for k in
                                      ("n_p", "n_m", "m_p", "m_m", "combo")}
    for t in ts:
        norms = _l2_norms(_linear_evolve(state0, t, dec))
        for key, val in norms.items():
            series[key].append(val)
    return {key: sim.fit_decay_slope(ts, vals)[0]
            for key, vals in series.items()}


class TestDecaySlopes:
    @pytest.mark.parametrize("kw", [
        {}, {"A_minus": 2.0, "mu_minus": 0.7, "sigma_plus": 0.02},
        {"sigma_plus": 1.0, "sigma_minus": 1.0}],
        ids=["default", "asym", "complex-pair"])
    def test_matches_radial_state_oracle(self, kw):
        # bitwise: the oracle's other columns multiply exact zeros
        eq = solve_equilibrium(ModelParams(**kw))
        assert sim.decay_slope_table(eq) == _ref_decay_slope_table(eq)

    def test_linear_decay_table(self):
        slopes = sim.decay_slope_table(EQ)
        assert slopes["n_p"] == pytest.approx(-0.25, abs=0.05)
        assert slopes["n_m"] == pytest.approx(-0.25, abs=0.05)
        assert slopes["m_p"] == pytest.approx(-0.75, abs=0.05)
        assert slopes["m_m"] == pytest.approx(-0.75, abs=0.05)
        assert slopes["combo"] == pytest.approx(-0.75, abs=0.05)


class TestNonlinearRhs:
    def test_equilibrium_fixed_point(self):
        F1, F2 = _rhs(*_pulse_state(EQ, eps=0.0))
        assert np.abs(F1).max() == 0.0
        assert np.abs(F2).max() == 0.0

    def test_pressure_term_quadratic_order(self):
        vals = []
        for eps in (4e-3, 2e-3, 1e-3):
            F1, _ = _rhs(*_mode_state(EQ, eps=eps))
            vals.append(np.abs(F1).max())
        orders = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1)

    def test_total_force_zero_mean(self):
        # Q1 + Q2 is a pure gradient; everything else is a divergence
        F1, F2 = _rhs(*_pulse_state(EQ))
        tot = (F1 + F2).mean(axis=(1, 2, 3))
        assert np.abs(tot).max() < 1e-14

    def test_vacuum_guard(self):
        # one smooth mode, which the band keeps: min n = -0.97 at x = -L,
        # in either phase; the fraction map's box test refuses it
        ops, mode = _mode_state(EQ, n=8, L=8.0, eps=0.97)
        for row in (0, 4):
            f = np.zeros_like(mode)
            f[row] = mode[0]
            Y = ops.to_band(f)
            assert ops.to_real(Y)[row].min() <= -0.95
            with pytest.raises(AdmissibilityError,
                               match=r"\|R - 1\| > 0\.5"):
                sim._rhs_hat(ops, Y, ops.to_real(Y))

    @pytest.mark.parametrize("field", list(FIELDS))
    def test_nonfinite_guard(self, field):
        _, f = _pulse_state(EQ, n=8, L=8.0, eps=1e-3)
        f[FIELDS[field]].flat[5] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            sim._check_fields(f)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_guard_reaches_the_last_row(self, value):
        # the check runs row by row; the last cell of row 7 is checked too
        _, f = _pulse_state(EQ, n=8, L=8.0, eps=1e-3)
        sim._check_fields(f)
        f[7].flat[-1] = value
        with pytest.raises(RuntimeError,
                           match="non-finite fields: instability detected"):
            sim._check_fields(f)


# unequal exponents, so that each cell's Newton solve takes its own number
# of steps; at the defaults the fraction map's start is its root
EQ_GAMMA = solve_equilibrium(ModelParams(gamma_plus=1.4, gamma_minus=2.2))


class TestFractionMapSlabs:
    """A stage solves the fraction map on slabs of whole axis-0 planes, of
    width max(1, _SLAB_CELLS // n^2); the solve works cell by cell, so the
    split is exact."""

    def test_slabs_equal_the_whole_field(self):
        n = 40
        rng = np.random.default_rng(40)
        Rp, Rm = 1.0 + rng.uniform(-0.3, 0.3, (2, n, n, n))
        whole = solve_fraction_map(Rp, Rm, EQ_GAMMA)
        module = max(1, sim._SLAB_CELLS // n ** 2)
        # 7 leaves a partial last slab
        for width in sorted({1, 5, 7, module}):
            parts = [solve_fraction_map(Rp[i:i + width], Rm[i:i + width],
                                        EQ_GAMMA)
                     for i in range(0, n, width)]
            for k, field in enumerate(whole):
                joined = np.concatenate([part[k] for part in parts])
                assert joined.tobytes() == field.tobytes()

    @pytest.mark.parametrize("eq", [EQ_GAMMA, EQ_ASYM], ids=["gamma", "asym"])
    def test_stage_is_bitwise_at_any_slab_width(self, eq, monkeypatch):
        ops, f = _pulse_state(eq)
        f[0] = f[4] = _mode_state(eq, eps=0.2)[1][0]
        Y = ops.to_band(f)
        calls = []
        solve = sim.solve_fraction_map
        monkeypatch.setattr(sim, "solve_fraction_map",
                            lambda *args: calls.append(args) or solve(*args))
        out, slabs = [], []
        for cells in (sim._SLAB_CELLS, ops.n ** 3):
            monkeypatch.setattr(sim, "_SLAB_CELLS", cells)
            calls.clear()
            out.append(sim._rhs_hat(ops, Y.copy(), ops.to_real(Y)).tobytes())
            slabs.append(len(calls))
        # the module's width splits the grid; width n solves it whole
        assert slabs[0] > 1 and slabs[1] == 1
        assert out[0] == out[1]

    def test_stage_keeps_all_but_the_m_plus_rows(self):
        ops, f = _pulse_state(EQ_ASYM)
        f[0] = f[4] = _mode_state(EQ_ASYM)[1][0]
        Y = ops.to_band(f)
        real = ops.to_real(Y)
        kept = real.copy()
        sim._rhs_hat(ops, Y, real)
        for row in (0, 4, 5, 6, 7):
            assert real[row].tobytes() == kept[row].tobytes()


class _Counter:
    """Counts the calls of one bound method it wraps, and keeps their
    positional arguments."""

    def __init__(self, fn):
        self.fn, self.args = fn, []

    @property
    def calls(self):
        return len(self.args)

    def __call__(self, *args, **kwargs):
        self.args.append(args)
        return self.fn(*args, **kwargs)


class TestStepCost:
    """The work of one RHS stage, one step and one run, pinned exactly."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """(Y, its real state, ops, counters), the real state built before
        the counting starts."""
        ops, f = _pulse_state(EQ_ASYM)
        Y = ops.to_band(f)
        real = ops.to_real(Y)
        counters = {}
        for name in ("forward", "inverse", "forward_band", "inverse_band",
                     "apply_semigroup", "propagator"):
            counters[name] = _Counter(getattr(ops, name))
            monkeypatch.setattr(ops, name, counters[name])
        return Y, real, ops, counters

    @staticmethod
    def transforms(counters):
        """(band, full) transform counts."""
        return (counters["forward_band"].calls
                + counters["inverse_band"].calls,
                counters["forward"].calls + counters["inverse"].calls)

    def test_transforms_per_stage(self, counted):
        # the stage's own real state counted: 8 inverse band transforms
        Y, _, ops, counters = counted
        sim._rhs_hat(ops, Y, ops.to_real(Y))
        assert self.transforms(counters) == (34, 18)

    def test_transforms_and_propagations_per_step(self, counted):
        # the first stage reads the real state it is handed
        Y, real, ops, counters = counted
        sim.step(ops, Y, real, 0.3, ops.propagator(0.15))
        assert self.transforms(counters) == (128, 72)
        assert counters["apply_semigroup"].calls == 4
        # one half-step propagator, on the unique |k|, and the step builds
        # no other
        assert counters["propagator"].args == [(0.15,)]
        band = (ops.rows.size, ops.rows.size, ops.h)
        assert band == (11, 11, 6)
        G, heat_p, heat_m = ops.propagator(0.15)
        assert G.shape == ops.k_uniq.shape + (4, 4)
        assert ops.inv.shape == heat_p.shape == heat_m.shape == band

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_band_transforms_outside_step(self, monkeypatch, mode):
        # the state enters the band once per run and leaves it once per
        # diagnostics row, the initial one too
        calls = {"forward_band": 0, "inverse_band": 0}
        inside = dict(calls)

        def counting(name):
            fn = getattr(sim._GridOps, name)

            def wrapper(self, f, **kwargs):
                calls[name] += 1
                return fn(self, f, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sim._GridOps, name, counting(name))
        step = sim.step

        def counted_step(*args, **kwargs):
            before = dict(calls)
            out = step(*args, **kwargs)
            for name in calls:
                inside[name] += calls[name] - before[name]
            return out

        monkeypatch.setattr(sim, "step", counted_step)
        # and the run builds one propagator: dt is constant
        built = []
        propagator = sim._GridOps.propagator

        def counted_propagator(self, t):
            built.append(t)
            return propagator(self, t)

        monkeypatch.setattr(sim._GridOps, "propagator", counted_propagator)
        table, _ = sim.run_simulation(EQ, mode=mode, n=16, L=16.0,
                                      t_final=3.0)
        assert len(table["t"]) == 3
        assert built == [1.5 if mode == "linear" else 0.75]
        assert calls["forward_band"] - inside["forward_band"] == 8
        assert calls["inverse_band"] - inside["inverse_band"] == 8 * 3


class TestStageMemory:
    """A stage writes its real-space and half-grid intermediates into the
    grid's workspace, built on the first nonlinear stage."""

    @staticmethod
    def peak(fn, *args):
        """(result of fn(*args), the peak bytes it allocated)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return out, peak

    def stage_peak(self, eq, n, L):
        """(Y, the peak bytes one stage allocates), the workspace built."""
        ops, f = _pulse_state(eq, n=n, L=L)
        Y = ops.to_band(f)
        sim._rhs_hat(ops, Y.copy(), ops.to_real(Y))   # builds the workspace
        out, peak = self.peak(sim._rhs_hat, ops, Y, ops.to_real(Y))
        # the RHS takes its input's storage
        assert out is Y
        return Y, peak

    @pytest.mark.parametrize("eq", [EQ, EQ_ASYM], ids=["sym", "asym"])
    def test_stage_allocates_few_band_states(self, eq):
        # the stage allocates band arithmetic and the fraction map's solve
        # on one slab at a time, two slabs at n = 16: 1.96 band states.
        # The whole-field solve took 2.84, one that allocated its output
        # 4.09, and one that allocated its real-space products 17
        Y, peak = self.stage_peak(eq, 16, 16.0)
        assert peak <= 2.2 * Y.nbytes

    @pytest.mark.parametrize("eq", [EQ, EQ_ASYM], ids=["sym", "asym"])
    def test_stage_at_n48_allocates_under_one_band_state(self, eq):
        # one plane a slab at n = 48: 0.38 band states, 0.85 MiB; slabs of
        # eight planes took 0.69 and the whole-field solve 2.99, 6.75 MiB
        Y, peak = self.stage_peak(eq, 48, 64.0)
        assert peak <= 1.0 * Y.nbytes

    @pytest.mark.parametrize("eq", [EQ, EQ_ASYM], ids=["sym", "asym"])
    def test_step_allocates_few_band_states(self, eq):
        ops, f = _pulse_state(eq)
        Y = ops.to_band(f)
        sim._rhs_hat(ops, Y.copy(), ops.to_real(Y))   # builds the workspace
        prop = ops.propagator(0.15)
        out, peak = self.peak(sim.step, ops, Y, ops.to_real(Y), 0.3, prop)
        # E(dt/2) Y and the stage input besides the update in Y's storage,
        # and a stage's own allocations: 3.97 band states; with the
        # whole-field fraction map 4.85, and a step that held five band
        # states during a stage took 7.30
        assert out is Y
        assert peak <= 4.3 * Y.nbytes

    @pytest.mark.parametrize("eq", [EQ, EQ_ASYM], ids=["sym", "asym"])
    def test_semigroup_in_place_is_bitwise(self, eq):
        ops, f = _pulse_state(eq)
        f[0] = f[4] = _mode_state(eq)[1][0]
        Y = ops.to_band(f)
        prop = ops.propagator(0.7)
        new = ops.apply_semigroup(Y, prop)
        assert ops.apply_semigroup(Y, prop, out=Y) is Y
        assert Y.tobytes() == new.tobytes()

    def test_linear_run_builds_no_stage_workspace(self, monkeypatch):
        built = []
        work = sim._StageWork
        monkeypatch.setattr(sim, "_StageWork",
                            lambda ops: built.append(ops) or work(ops))
        sim.run_simulation(EQ, mode="linear", n=8, L=16.0, t_final=1.0)
        assert built == []
        sim.run_simulation(EQ, mode="nonlinear", n=8, L=16.0, t_final=1.0)
        assert len(built) == 1

    def test_propagator_is_real(self, monkeypatch):
        ops = sim._GridOps(16, 16.0, EQ_ASYM)
        Gg, _, _ = ops.propagator(0.7)
        assert Gg.dtype == np.float64
        G = decompose_symbol(ops.k_uniq, EQ_ASYM).semigroup(0.7)
        fake = SimpleNamespace(semigroup=lambda t: G + 1e-9j * np.abs(G).max())
        monkeypatch.setattr(sim, "decompose_symbol", lambda *args: fake)
        with pytest.raises(RuntimeError, match="imaginary"):
            ops.propagator(0.7)


class TestBandEdge:
    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_band_does_not_depend_on_the_box(self, n):
        # the 2/3 rule keeps the integer modes with 3 |v| <= n at any L; a
        # test on |pi v / L| <= (2/3) pi / dx kept 33 rows at n = 48 and
        # L = 64 but 31 at L = 50, by round-off in L
        base = sim._GridOps(n, 64.0, EQ)
        assert (base.rows.size, base.h) == (2 * (n // 3) + 1, n // 3 + 1)
        for s in (0.5, 50 / 64, 1 / 1.7, 2.0):
            ops = sim._GridOps(n, s * 64.0, EQ)
            assert np.array_equal(ops.rows, base.rows)
            assert ops.h == base.h


class TestBandTransforms:
    """The band transforms equal rfftn and irfftn bitwise."""

    @pytest.mark.parametrize("n", [4, 5, 7, 16, 24, 48])
    def test_bitwise_equal_to_full_transforms(self, n):
        L = 8.0 + n
        ops = sim._GridOps(n, L, EQ)
        # the band box is exactly the old dealiasing mask
        modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        idx = np.stack(np.meshgrid(modes, modes, np.arange(n // 2 + 1),
                                   indexing="ij"))
        xi = (math.pi / L) * idx.astype(float)
        mask = (np.abs(xi) <= (2.0 / 3.0) * (math.pi / ops.dx)).all(axis=0)
        box = np.zeros_like(mask)
        box[ops.band] = True
        for a, b in zip(np.nonzero(box), np.nonzero(mask)):
            assert np.array_equal(a, b)
        f = np.random.default_rng(n).standard_normal((n, n, n))
        f_hat = ops.forward_band(f, out=np.empty(ops.band_shape, complex))
        assert np.array_equal(f_hat, (np.fft.rfftn(f) * mask)[ops.band])
        filled = np.zeros(mask.shape, dtype=complex)
        filled[ops.band] = f_hat
        assert np.array_equal(ops.inverse_band(f_hat, out=np.empty(f.shape)),
                              np.fft.irfftn(filled, s=f.shape,
                                            axes=(0, 1, 2)))
        # the full transforms, pass by pass, are rfftn and irfftn too
        g_hat = ops.forward(f, out=np.empty(mask.shape, complex))
        assert np.array_equal(g_hat, np.fft.rfftn(f))
        assert np.array_equal(ops.inverse(g_hat, out=np.empty(f.shape)),
                              np.fft.irfftn(g_hat, s=f.shape,
                                            axes=(0, 1, 2)))


class TestTransformMemory:
    """The four transforms write through out= into the grid's scratch."""

    @pytest.mark.parametrize("name", ["forward", "inverse", "forward_band",
                                      "inverse_band"])
    def test_transform_allocates_no_array(self, name):
        ops = sim._GridOps(16, 24.0, EQ)
        f = np.random.default_rng(0).standard_normal(ops.shape)
        args = {"forward": (f, np.empty(ops._half.shape, complex)),
                "inverse": (np.fft.rfftn(f), np.empty(ops.shape)),
                "forward_band": (f, np.empty(ops.band_shape, complex)),
                "inverse_band": (np.fft.rfftn(f)[ops.band],
                                 np.empty(ops.shape))}
        x, out = args[name]
        transform = getattr(ops, name)
        transform(x, out=out)                   # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            transform(x, out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the smallest array a transform could allocate is a band field,
        # 11,616 bytes at n = 16; np.take without mode="clip" buffers one
        assert peak < 4096


class TestStep:
    def test_half_step_composition(self):
        # the step applies E(dt) as E(dt/2) twice; check the identity on
        # the dealiased broadband state (both phases, longitudinal and
        # transverse momentum)
        ops, f = list(_oracle_states())[5]
        Y = ops.to_band(f)
        for tau in (0.05, 0.3, 3.0):
            half = ops.propagator(tau)
            twice = ops.apply_semigroup(ops.apply_semigroup(Y, half), half)
            once = ops.apply_semigroup(Y, ops.propagator(2.0 * tau))
            assert np.abs(twice - once).max() <= 1e-13 * np.abs(once).max()

    def test_linear_step_matches_exact_flow(self):
        # the reference complex-grid semigroup on the same dealiased state
        ops, f = _pulse_state(EQ)
        a = ops.to_real(ops.apply_semigroup(ops.to_band(f),
                                            ops.propagator(0.5)))
        ref = _RefGridOps(16, 16.0, EQ)
        Y = np.stack([np.fft.fftn(g) for g in f]) * ref.dealias
        b = np.stack([np.fft.ifftn(Z).real
                      for Z in ref.apply_semigroup(Y, 0.5)])
        assert np.abs(a - b).max() < 1e-10

    def test_rk_order(self):
        ops, f0 = _pulse_state(EQ, n=24, L=32.0)
        T = 1.0
        ref = _advance(ops, f0, T / 32, T)
        errs = []
        for m in (4, 8):
            s = _advance(ops, f0, T / m, T)
            errs.append(np.abs(s[1:4] - ref[1:4]).max()
                        + np.abs(s[0] - ref[0]).max())
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.3)


def _momentum(table) -> np.ndarray:
    """The total momentum's components of a diagnostics table, one row per
    step."""
    return np.stack([table[f"momentum_{x}"] for x in "xyz"], axis=1)


@pytest.fixture(scope="module")
def run():
    return sim.run_simulation(EQ, mode="nonlinear", n=32, L=32.0,
                              eps=1e-3, t_final=8.0)


class TestConservationAndRun:
    def test_mass_conserved(self, run):
        table, _ = run
        scale = 1e-3 * (2 * 32.0) ** 3
        mass_p, mass_m = table["mass_p"], table["mass_m"]
        drift = np.max(np.abs(mass_p - mass_p[0]) + np.abs(mass_m - mass_m[0]))
        assert drift / scale < 1e-12

    def test_momentum_conserved(self, run):
        table, _ = run
        scale = table["l2_mp"][0] * (2 * 32.0) ** 1.5
        momentum = _momentum(table)
        drift = np.abs(momentum - momentum[0]).max()
        assert drift / scale < 1e-10

    def test_perturbative_regime(self, run):
        table_n, _ = run
        table_l, _ = sim.run_simulation(EQ, mode="linear", n=32, L=32.0,
                                        eps=1e-3, t_final=8.0)
        a, b = table_n["l2_mp"], table_l["l2_mp"]
        assert np.all(np.abs(a - b) <= 0.1 * b)

    def test_horizon_enforced(self):
        with pytest.raises(ValueError):
            sim.run_simulation(EQ, n=8, L=16.0, t_final=100.0)

    @pytest.mark.parametrize("mode", ["Nonlinear", "", "both"])
    def test_unknown_mode_rejected(self, monkeypatch, mode):
        # refused before any array is built, naming the two modes
        monkeypatch.setattr(sim, "_GridOps", None)
        with pytest.raises(ValueError, match="'linear' nor 'nonlinear'"):
            sim.run_simulation(EQ, mode=mode, n=8, L=16.0, t_final=0.1)

    def test_grid_size_limits(self, monkeypatch):
        # refused before any array is built: no grid is ever made
        monkeypatch.setattr(sim, "_GridOps", None)
        for n in (3, sim.N_MAX + 1, 100000):
            with pytest.raises(ValueError, match="grid size"):
                sim.run_simulation(EQ, n=n, L=16.0, t_final=0.1)

    @pytest.mark.parametrize("L", [4.0, 8.0])
    def test_box_must_exceed_pulse(self, L):
        with pytest.raises(ValueError, match=f"box size {L} must exceed "
                                             "the pulse radius 8"):
            sim.run_simulation(EQ, n=8, L=L, t_final=0.1)

    @pytest.mark.parametrize("L, eps", [(1e300, 1e-3), (1.1e6, 1e-3),
                                        (9.0, 1e300), (9.0, -1.1e6)])
    def test_float_range_limits(self, L, eps):
        with pytest.raises(ValueError, match="at most 1e\\+06|<= 1e\\+06"):
            sim.run_simulation(EQ, n=8, L=L, eps=eps, t_final=0.1)


def _ref_shell_profile(L, f):
    """The shell profile with its grid and bins built on each call, as the
    diagnostics rows once did."""
    n = f.shape[-1]
    dx = 2.0 * L / n
    x1 = -L + dx * np.arange(n)
    X, Yc, Z = np.meshgrid(x1, x1, x1, indexing="ij")
    r = np.sqrt(X ** 2 + Yc ** 2 + Z ** 2)
    amp = np.sqrt(np.sum((f[1:4] + f[5:8]) ** 2, axis=0))
    nbins = n // 2
    edges = np.linspace(0.0, L, nbins + 1)
    which = np.clip(np.digitize(r.ravel(), edges) - 1, 0, nbins - 1)
    sums = np.bincount(which, weights=amp.ravel(), minlength=nbins)
    counts = np.maximum(np.bincount(which, minlength=nbins), 1)
    return 0.5 * (edges[:-1] + edges[1:]), sums / counts


class TestDiagnostics:
    def test_equilibrium_zero_norms(self):
        d = sim.diagnostics(*_pulse_state(EQ, eps=0.0), 0.0)
        assert all(d[key] == 0.0 for key in d if key.startswith("l2_"))
        assert d["mass_p"] == 0.0 and d["momentum"] == 0.0

    def test_huygens_ring_linear(self):
        table, final = sim.run_simulation(EQ, mode="linear", n=32, L=64.0,
                                          eps=1e-3, t_final=8.0)
        t = table["t"][-1]
        assert final.shape == (8, 32, 32, 32)
        assert abs(table["ring_r"][-1] - EQ.c * t) <= math.sqrt(1.0 + t)

    def test_momentum_is_the_norm_of_its_components(self, run):
        table, _ = run
        assert list(table) == [
            "t", "mass_p", "mass_m", "momentum", "l2_np", "l2_nm", "l2_mp",
            "l2_mm", "l2_combo", "ring_r", "momentum_x", "momentum_y",
            "momentum_z"]
        assert all(col.shape == table["t"].shape for col in table.values())
        norms = [np.linalg.norm(row) for row in _momentum(table)]
        assert np.array_equal(table["momentum"], norms)
        assert np.any(_momentum(table) != 0.0)

    def test_initial_row_is_the_band_state(self):
        # row 0 measures the state the run advances, the band projection of
        # the pulse, not the pulse itself
        n, L = 32, 64.0
        table, _ = sim.run_simulation(EQ, mode="linear", n=n, L=L,
                                      eps=1e-3, t_final=1.0)
        ops, f = _pulse_state(EQ, n=n, L=L, eps=1e-3)
        dV = ops.dx ** 3
        pulse = math.sqrt(np.sum(f[1:4] ** 2) * dV)
        band = ops.to_real(ops.to_band(f))
        want = math.sqrt(np.sum(band[1:4] ** 2) * dV)
        assert table["l2_mp"][0] == want
        assert abs(pulse - want) > 0.1 * want

    @pytest.mark.parametrize("n, L", [(16, 16.0), (17, 20.0), (24, 9.0)])
    def test_shell_profile_matches_per_row_bins(self, n, L):
        ops, f = _pulse_state(EQ, n=n, L=L)
        f[5:8] += np.random.default_rng(n).standard_normal((3,) + ops.shape)
        for got, want in zip(sim.shell_profile(ops, f),
                             _ref_shell_profile(L, f)):
            assert np.array_equal(got, want)

    def test_shell_bins_built_once_per_run(self, monkeypatch):
        calls = []
        digitize = np.digitize

        def counted(*args, **kwargs):
            calls.append(args)
            return digitize(*args, **kwargs)

        monkeypatch.setattr(np, "digitize", counted)
        table, _ = sim.run_simulation(EQ, mode="linear", n=16, L=16.0,
                                      t_final=3.0)
        assert len(table["t"]) == 3
        assert len(calls) == 1


class TestStateDump:
    def test_roundtrip(self, tmp_path):
        _, f = _pulse_state(EQ, n=12, L=8.0)
        path = str(tmp_path / "state.bin")
        sim.dump_state(f, 8.0, 3.25, path)
        back, L, t = sim.load_state(path)
        assert L == 8.0 and t == 3.25
        assert back.dtype == np.float64 and np.array_equal(back, f)
        # the header, then the state in its row order
        with open(path, "rb") as fh:
            assert fh.read() == (b"TFSIM001" + struct.pack("<3d", 12, 8, 3.25)
                                 + f.astype("<f8").tobytes())

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dump at all")
        with pytest.raises(ValueError):
            sim.load_state(str(path))

    def _dump(self, tmp_path):
        _, f = _pulse_state(EQ, n=8, L=8.0)
        path = tmp_path / "state.bin"
        sim.dump_state(f, 8.0, 0.0, str(path))
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [1, 8, 64 * 8 ** 3])
    def test_rejects_truncated(self, tmp_path, cut):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match="bytes"):
            sim.load_state(str(path))

    def test_rejects_padded(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw + bytes(8))
        with pytest.raises(ValueError, match="bytes"):
            sim.load_state(str(path))

    @pytest.mark.parametrize("n_f", [8.5, 0.0, -8.0, math.nan, math.inf])
    def test_rejects_bad_grid_size(self, tmp_path, n_f):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:8] + struct.pack("<d", n_f) + raw[16:])
        with pytest.raises(ValueError, match="grid size"):
            sim.load_state(str(path))

    @pytest.mark.parametrize("field", [1, 2])
    def test_rejects_non_finite_box_or_time(self, tmp_path, field):
        path, raw = self._dump(tmp_path)
        at = 8 + 8 * field
        path.write_bytes(raw[:at] + struct.pack("<d", math.nan)
                         + raw[at + 8:])
        with pytest.raises(ValueError, match="not finite"):
            sim.load_state(str(path))
