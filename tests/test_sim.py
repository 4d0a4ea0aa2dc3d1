"""Tests for the exact linear path and the nonlinear box simulator."""

from __future__ import annotations

import math
import struct
import tracemalloc

import numpy as np
import pytest

from twofluid.model import (AdmissibilityError, ModelParams,
                            solve_equilibrium, solve_fraction_map)
from twofluid.spectral import eigen_branches, semigroup_batch
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
        G = semigroup_batch(self.k_uniq, t, self.eq)
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


def _ref_nonlinear_rhs(state):
    ops = _RefGridOps(state.n, state.L, state.eq)
    eq = state.eq
    p = eq.params
    rho_p, rho_m, _, C2c = solve_fraction_map(
        state.n_p + 1.0, state.n_m + 1.0, p, eq=eq)

    F1 = _ref_phase_rhs(ops, state.n_p, state.m_p, rho_p, eq.rho_bar_plus,
                        p.mu_plus, p.lambda_plus, p.sigma_plus)
    F2 = _ref_phase_rhs(ops, state.n_m, state.m_m, rho_m, eq.rho_bar_minus,
                        p.mu_minus, p.lambda_minus, p.sigma_minus)

    fft, ifft = np.fft.fftn, np.fft.ifftn
    gnp = np.stack([ifft(1j * ops.xi[d] * fft(state.n_p)).real
                    for d in range(3)])
    gnm = np.stack([ifft(1j * ops.xi[d] * fft(state.n_m)).real
                    for d in range(3)])
    Q1 = (C2c * state.n_p * ((rho_m / rho_p) * gnp + gnm)
          + (C2c * rho_m / rho_p - eq.beta1) * gnp
          + (C2c - eq.C2) * gnm)
    Q2 = (C2c * state.n_m * ((rho_p / rho_m) * gnm + gnp)
          + (C2c * rho_p / rho_m - eq.beta4) * gnm
          + (C2c - eq.C2) * gnp)
    F1 -= np.stack([fft(Q1[d]) for d in range(3)])
    F2 -= np.stack([fft(Q2[d]) for d in range(3)])
    F1 *= ops.dealias
    F2 *= ops.dealias
    return (np.stack([ifft(F1[d]).real for d in range(3)]),
            np.stack([ifft(F2[d]).real for d in range(3)]))


def _ref_step(state, dt):
    ops = _RefGridOps(state.n, state.L, state.eq)
    fields = [state.n_p, *state.m_p, state.n_m, *state.m_m]
    Y = np.stack([np.fft.fftn(f) for f in fields]) * ops.dealias

    def unstack(Z):
        real = [np.fft.ifftn(Z[i]).real for i in range(8)]
        return sim.SimState(state.eq, state.L, state.n, real[0],
                            np.stack(real[1:4]), real[4],
                            np.stack(real[5:8]))

    def rhs_hat(Z):
        F1, F2 = _ref_nonlinear_rhs(unstack(Z))
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


def _mode_state(eq, n=16, L=16.0, eps=1e-2):
    """Single-mode density perturbation n+ = eps cos(pi x / L), at rest."""
    st = sim.make_sim_state(eq, n=n, L=L, eps=0.0)
    x1 = -L + (2.0 * L / n) * np.arange(n)
    X = np.meshgrid(x1, x1, x1, indexing="ij")[0]
    st.n_p = eps * np.cos(math.pi * X / L)
    return st


def _ops(st):
    return sim._GridOps(st.n, st.L, st.eq)


def _unstack(ops, Y, t):
    """A SimState of band state Y that owns its fields."""
    return sim._fields_state(ops, ops.to_real(Y).copy(), t)


def _advance(st, dt, T, nonlinear=True):
    """st advanced by round(T / dt) steps of the band state, as
    run_simulation does."""
    ops = _ops(st)
    Y = sim._stack_hat(ops, st)
    steps = int(round(T / dt))
    for _ in range(steps):
        Y = sim.step(ops, Y, dt, nonlinear)
    return _unstack(ops, Y, st.t + steps * dt)


def _rhs(st):
    """Momentum increments (F1, F2) of the band projection of st, in real
    space: the stage RHS of the stepper."""
    ops = _ops(st)
    F = sim._rhs_hat(ops, sim._stack_hat(ops, st))
    real = np.empty((8,) + ops.shape)
    for i in range(8):
        ops.inverse_band(F[i], out=real[i])
    return real[1:4], real[5:8]


# bulk viscosity and unequal phases, which the defaults leave out
EQ_ASYM = solve_equilibrium(ModelParams(
    mu_minus=2.0, lambda_plus=0.5, lambda_minus=1.5, sigma_plus=0.02,
    A_minus=2.0, gamma_minus=1.6))


def _oracle_states():
    for n, L in ((16, 16.0), (24, 32.0)):
        yield sim.make_sim_state(EQ, n=n, L=L, eps=1e-2)
        yield _mode_state(EQ, n=n, L=L)
    # momentum and density together, so the viscous tensor is nonzero
    st = sim.make_sim_state(EQ_ASYM, n=16, L=16.0, eps=1e-2)
    st.n_p = _mode_state(EQ_ASYM).n_p
    yield st
    # broadband data reaches the Nyquist modes, which the smooth states
    # above leave empty
    st = sim.make_sim_state(EQ, n=16, L=16.0, eps=1e-2)
    rng = np.random.default_rng(3)
    st.n_p = st.n_p + 1e-3 * rng.standard_normal(st.n_p.shape)
    st.m_m = st.m_m + 1e-3 * rng.standard_normal(st.m_m.shape)
    yield st


class TestReferenceOracle:
    @pytest.mark.parametrize("idx", range(6))
    def test_rhs_matches_reference(self, idx):
        st = list(_oracle_states())[idx]
        F1, F2 = _rhs(st)
        # _rhs evaluates the band projection of the state, as the stepper
        # does; the reference sees the same projected fields
        ops = _ops(st)
        R1, R2 = _ref_nonlinear_rhs(_unstack(ops, sim._stack_hat(ops, st),
                                             st.t))
        scale = max(np.abs(R1).max(), np.abs(R2).max())
        assert scale > 0.0
        assert np.abs(F1 - R1).max() <= 1e-12 * scale
        assert np.abs(F2 - R2).max() <= 1e-12 * scale

    @pytest.mark.parametrize("make, eq", [(sim.make_sim_state, EQ),
                                          (_mode_state, EQ),
                                          (sim.make_sim_state, EQ_ASYM)],
                             ids=["sym-ring", "sym-mode", "asym-ring"])
    def test_step_matches_reference(self, make, eq):
        st = make(eq, n=16, L=16.0, eps=1e-2)
        a = _advance(st, 0.3, 0.3)
        b = _ref_step(st, 0.3)
        for name in ("n_p", "m_p", "n_m", "m_m"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


class TestLinearPath:
    def test_identity_at_zero(self):
        st = sim.default_linear_state(EQ, nk=40)
        out = sim.linear_evolve(st, 0.0)
        assert out is st

    def test_semigroup_composition(self):
        st = sim.default_linear_state(EQ, nk=60)
        a = sim.linear_evolve(st, 3.0)
        b = sim.linear_evolve(sim.linear_evolve(st, 1.5), 1.5)
        assert np.abs(a.U_hat - b.U_hat).max() < 1e-10
        assert np.abs(a.phi_inc - b.phi_inc).max() < 1e-14

    def test_projector_filtering(self):
        # data in a single spectral branch evolves by a scalar exponential
        k = 0.05
        sp = eigen_branches(k, EQ)
        v = sp.projectors[2] @ np.array([1.0, 0.3, -0.2, 0.5], dtype=complex)
        st = sim.LinearRadialState(np.array([k]), v[None, :],
                                   np.zeros((1, 2), complex), 0.0, EQ)
        out = sim.linear_evolve(st, 7.0)
        expected = np.exp(sp.lambdas[2] * 7.0) * v
        assert np.abs(out.U_hat[0] - expected).max() < 1e-10

    def test_incompressible_heat_factor(self):
        st = sim.default_linear_state(EQ, nk=30)
        inc = np.ones((30, 2), complex)
        st = sim.LinearRadialState(st.k_grid, st.U_hat, inc, 0.0, EQ)
        out = sim.linear_evolve(st, 2.5)
        exact = np.exp(-st.k_grid ** 2 * 2.5 * EQ.nu1_plus)
        assert np.abs(out.phi_inc[:, 0] - exact).max() < 1e-13

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            sim.linear_evolve(sim.default_linear_state(EQ, nk=10), -1.0)


class TestL2Norms:
    def _state(self, amp: float = 1.0) -> sim.LinearRadialState:
        ks = np.logspace(-4, 1.3, 2000)
        U = np.zeros((ks.size, 4), complex)
        U[:, 0] = amp * np.exp(-ks ** 2 / 2.0)
        return sim.LinearRadialState(ks, U, np.zeros((ks.size, 2), complex),
                                     0.0, EQ)

    def test_gaussian_oracle(self):
        # ||f||^2 = 4 pi int k^2 e^{-k^2} dk = pi^{3/2}
        got = sim.l2_norms(self._state())["n_p"] ** 2
        assert got == pytest.approx(math.pi ** 1.5, rel=1e-4)

    def test_zero_state(self):
        st = self._state(0.0)
        assert all(v == 0.0 for v in sim.l2_norms(st).values())

    def test_homogeneity(self):
        a = sim.l2_norms(self._state(1.0))["n_p"]
        b = sim.l2_norms(self._state(2.0))["n_p"]
        assert b == pytest.approx(2.0 * a, rel=1e-12)


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


class TestDecaySlopes:
    def test_linear_decay_table(self):
        slopes = sim.decay_slope_table(EQ)
        assert slopes["n_p"] == pytest.approx(-0.25, abs=0.05)
        assert slopes["n_m"] == pytest.approx(-0.25, abs=0.05)
        assert slopes["m_p"] == pytest.approx(-0.75, abs=0.05)
        assert slopes["m_m"] == pytest.approx(-0.75, abs=0.05)
        assert slopes["combo"] == pytest.approx(-0.75, abs=0.05)


class TestNonlinearRhs:
    def test_equilibrium_fixed_point(self):
        st = sim.make_sim_state(EQ, n=16, L=16.0, eps=0.0)
        F1, F2 = _rhs(st)
        assert np.abs(F1).max() == 0.0
        assert np.abs(F2).max() == 0.0

    def test_pressure_term_quadratic_order(self):
        vals = []
        for eps in (4e-3, 2e-3, 1e-3):
            F1, _ = _rhs(_mode_state(EQ, eps=eps))
            vals.append(np.abs(F1).max())
        orders = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1)

    def test_total_force_zero_mean(self):
        # Q1 + Q2 is a pure gradient; everything else is a divergence
        st = sim.make_sim_state(EQ, n=16, L=16.0, eps=1e-2)
        F1, F2 = _rhs(st)
        tot = (F1 + F2).mean(axis=(1, 2, 3))
        assert np.abs(tot).max() < 1e-14

    def test_vacuum_guard(self):
        st = sim.make_sim_state(EQ, n=8, L=8.0, eps=0.0)
        st.n_p[0, 0, 0] = -0.95
        with pytest.raises(AdmissibilityError):
            sim._check_fields(st.n_p, st.m_p, st.n_m, st.m_m)

    @pytest.mark.parametrize("field", ["n_p", "m_p", "n_m", "m_m"])
    def test_nonfinite_guard(self, field):
        st = sim.make_sim_state(EQ, n=8, L=8.0, eps=1e-3)
        getattr(st, field).flat[5] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            sim._check_fields(st.n_p, st.m_p, st.n_m, st.m_m)


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
        st = sim.make_sim_state(EQ_ASYM, n=16, L=16.0, eps=1e-2)
        ops = _ops(st)
        Y = sim._stack_hat(ops, st)
        counters = {}
        for name in ("forward", "inverse", "forward_band", "inverse_band",
                     "apply_semigroup", "propagator"):
            counters[name] = _Counter(getattr(ops, name))
            monkeypatch.setattr(ops, name, counters[name])
        return Y, ops, counters

    @staticmethod
    def transforms(counters):
        """(band, full) transform counts."""
        return (counters["forward_band"].calls
                + counters["inverse_band"].calls,
                counters["forward"].calls + counters["inverse"].calls)

    def test_transforms_per_stage(self, counted):
        Y, ops, counters = counted
        sim._rhs_hat(ops, Y)
        assert self.transforms(counters) == (34, 18)

    def test_transforms_and_propagations_per_step(self, counted):
        Y, ops, counters = counted
        sim.step(ops, Y, 0.3)
        assert self.transforms(counters) == (136, 72)
        assert counters["apply_semigroup"].calls == 4
        # one half-step propagator, band-shaped, and no full-step one
        assert counters["propagator"].args == [(0.15,)]
        band = (ops.rows.size, ops.rows.size, ops.h)
        assert band == (11, 11, 6)
        Gg, heat_p, heat_m = ops.propagator(0.15)
        assert Gg.shape == band + (4, 4)
        assert heat_p.shape == heat_m.shape == band

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_band_transforms_outside_step(self, monkeypatch, mode):
        # the state enters the band once per run and leaves it once per
        # diagnostics row after the first
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
        rows, _ = sim.run_simulation(EQ, mode=mode, n=16, L=16.0,
                                     t_final=3.0)
        assert len(rows) == 3
        assert calls["forward_band"] - inside["forward_band"] == 8
        assert calls["inverse_band"] - inside["inverse_band"] == 8 * 2


class TestStageMemory:
    """A stage writes its real-space and half-grid intermediates into the
    grid's workspace, built on the first nonlinear stage."""

    @pytest.mark.parametrize("eq", [EQ, EQ_ASYM], ids=["sym", "asym"])
    def test_stage_allocates_few_band_states(self, eq):
        st = sim.make_sim_state(eq, n=16, L=16.0, eps=1e-2)
        ops = _ops(st)
        Y = sim._stack_hat(ops, st)
        sim._rhs_hat(ops, Y)                    # builds the workspace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = sim._rhs_hat(ops, Y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output, band arithmetic and the fraction map's solve (four
        # real outputs and its temporaries, about 3 band states at n = 16);
        # a stage that allocated its real-space products took 17
        assert peak - out.nbytes <= 4 * Y.nbytes

    def test_linear_run_builds_no_stage_workspace(self):
        st = sim.make_sim_state(EQ, n=8, L=16.0, eps=1e-3)
        ops = _ops(st)
        sim.step(ops, sim._stack_hat(ops, st), 0.5, nonlinear=False)
        assert ops._work is None
        sim.step(ops, sim._stack_hat(ops, st), 0.5)
        assert ops._work is not None

    def test_propagator_is_real(self, monkeypatch):
        ops = _ops(sim.make_sim_state(EQ_ASYM, n=16, L=16.0, eps=0.0))
        Gg, _, _ = ops.propagator(0.7)
        assert Gg.dtype == np.float64
        G = semigroup_batch(ops.k_uniq, 0.7, EQ_ASYM)
        monkeypatch.setattr(sim, "semigroup_batch",
                            lambda *args: G + 1e-9j * np.abs(G).max())
        with pytest.raises(RuntimeError, match="imaginary"):
            ops.propagator(0.7)


class TestBandTransforms:
    """The pruned transforms equal the full ones bitwise."""

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


class TestStep:
    def test_half_step_composition(self):
        # the step applies E(dt) as E(dt/2) twice; check the identity on
        # the dealiased broadband state (both phases, longitudinal and
        # transverse momentum)
        st = list(_oracle_states())[5]
        ops = _ops(st)
        Y = sim._stack_hat(ops, st)
        for tau in (0.05, 0.3, 3.0):
            half = ops.propagator(tau)
            twice = ops.apply_semigroup(ops.apply_semigroup(Y, half), half)
            once = ops.apply_semigroup(Y, ops.propagator(2.0 * tau))
            assert np.abs(twice - once).max() <= 1e-13 * np.abs(once).max()

    def test_linear_step_matches_exact_flow(self):
        # the reference complex-grid semigroup on the same dealiased state
        st = sim.make_sim_state(EQ, n=16, L=16.0, eps=1e-2)
        a = _advance(st, 0.5, 0.5, nonlinear=False)
        ops = _RefGridOps(st.n, st.L, st.eq)
        fields = [st.n_p, *st.m_p, st.n_m, *st.m_m]
        Y = np.stack([np.fft.fftn(f) for f in fields]) * ops.dealias
        b = [np.fft.ifftn(Z).real for Z in ops.apply_semigroup(Y, 0.5)]
        assert np.abs(a.n_p - b[0]).max() < 1e-10
        assert np.abs(a.m_p - np.stack(b[1:4])).max() < 1e-10
        assert np.abs(a.n_m - b[4]).max() < 1e-10
        assert np.abs(a.m_m - np.stack(b[5:8])).max() < 1e-10

    def test_rk_order(self):
        st0 = sim.make_sim_state(EQ, n=24, L=32.0, eps=1e-2)
        T = 1.0
        ref = _advance(st0, T / 32, T)
        errs = []
        for m in (4, 8):
            s = _advance(st0, T / m, T)
            errs.append(np.abs(s.m_p - ref.m_p).max()
                        + np.abs(s.n_p - ref.n_p).max())
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.3)


@pytest.fixture(scope="module")
def run():
    return sim.run_simulation(EQ, mode="nonlinear", n=32, L=32.0,
                              eps=1e-3, t_final=8.0)


class TestConservationAndRun:
    def test_mass_conserved(self, run):
        rows, _ = run
        scale = 1e-3 * (2 * 32.0) ** 3
        drift = max(abs(r.mass_p - rows[0].mass_p)
                    + abs(r.mass_m - rows[0].mass_m) for r in rows)
        assert drift / scale < 1e-12

    def test_momentum_conserved(self, run):
        rows, _ = run
        scale = rows[0].l2["m_p"] * (2 * 32.0) ** 1.5
        drift = max(np.abs(r.momentum - rows[0].momentum).max() for r in rows)
        assert drift / scale < 1e-10

    def test_perturbative_regime(self, run):
        rows_n, _ = run
        rows_l, _ = sim.run_simulation(EQ, mode="linear", n=32, L=32.0,
                                       eps=1e-3, t_final=8.0)
        for a, b in zip(rows_n, rows_l):
            assert abs(a.l2["m_p"] - b.l2["m_p"]) <= 0.1 * b.l2["m_p"]

    def test_horizon_enforced(self):
        with pytest.raises(ValueError):
            sim.run_simulation(EQ, n=8, L=16.0, t_final=100.0)


class TestDiagnostics:
    def test_equilibrium_zero_norms(self):
        st = sim.make_sim_state(EQ, n=16, L=16.0, eps=0.0)
        d = sim.diagnostics(st)
        assert all(v == 0.0 for v in d.l2.values())
        assert d.mass_p == 0.0 and d.momentum_norm == 0.0

    def test_huygens_ring_linear(self):
        rows, final = sim.run_simulation(EQ, mode="linear", n=32, L=64.0,
                                         eps=1e-3, t_final=8.0)
        d = rows[-1]
        assert abs(d.ring_r - EQ.c * final.t) <= math.sqrt(1.0 + final.t)


class TestStateDump:
    def test_roundtrip(self, tmp_path):
        st = sim.make_sim_state(EQ, n=12, L=8.0, eps=1e-2)
        st.t = 3.25
        path = str(tmp_path / "state.bin")
        sim.dump_state(st, path)
        back = sim.load_state(path, EQ)
        assert back.n == st.n and back.L == st.L and back.t == st.t
        assert np.array_equal(back.n_p, st.n_p)
        assert np.array_equal(back.m_m, st.m_m)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dump at all")
        with pytest.raises(ValueError):
            sim.load_state(str(path), EQ)

    def _dump(self, tmp_path):
        st = sim.make_sim_state(EQ, n=8, L=8.0, eps=1e-2)
        path = tmp_path / "state.bin"
        sim.dump_state(st, str(path))
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [1, 8, 64 * 8 ** 3])
    def test_rejects_truncated(self, tmp_path, cut):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match="bytes"):
            sim.load_state(str(path), EQ)

    def test_rejects_padded(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw + bytes(8))
        with pytest.raises(ValueError, match="bytes"):
            sim.load_state(str(path), EQ)

    @pytest.mark.parametrize("n_f", [8.5, 0.0, -8.0, math.nan, math.inf])
    def test_rejects_bad_grid_size(self, tmp_path, n_f):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:8] + struct.pack("<d", n_f) + raw[16:])
        with pytest.raises(ValueError, match="grid size"):
            sim.load_state(str(path), EQ)

    @pytest.mark.parametrize("field", [1, 2])
    def test_rejects_non_finite_box_or_time(self, tmp_path, field):
        path, raw = self._dump(tmp_path)
        at = 8 + 8 * field
        path.write_bytes(raw[:at] + struct.pack("<d", math.nan)
                         + raw[at + 8:])
        with pytest.raises(ValueError, match="not finite"):
            sim.load_state(str(path), EQ)
