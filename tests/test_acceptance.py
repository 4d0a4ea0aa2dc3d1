"""Acceptance gate: one test per certification target, at the stated
tolerances.  Everything here is reachable through the public module APIs and
the CLI; the unit suites cover the same ground in finer grain."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from twofluid.model import ModelParams, solve_equilibrium, validate_params
from twofluid import greens, sim, spectral, waveconv

SYM_EQ = solve_equilibrium(ModelParams())
ASYM_EQ = solve_equilibrium(
    ModelParams(A_minus=2.0, mu_minus=0.7, sigma_plus=0.02))


@pytest.fixture(scope="module")
def sym_recon():
    return greens.GreenReconstructor(SYM_EQ)


@pytest.fixture(scope="module")
def asym_recon():
    return greens.GreenReconstructor(ASYM_EQ)


def test_equilibrium_background_state():
    # symmetric defaults
    assert abs(SYM_EQ.rho_bar_plus - 2.0) < 1e-10
    assert abs(SYM_EQ.rho_bar_minus - 2.0) < 1e-10
    assert abs(SYM_EQ.c - 2.0) < 1e-10
    # asymmetric pressure law
    eq = solve_equilibrium(ModelParams(A_minus=2.0))
    assert abs(eq.rho_bar_plus - (1.0 + math.sqrt(2.0))) < 1e-10
    # coefficient identity on random valid parameters
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = validate_params(ModelParams(
            A_plus=float(rng.uniform(0.3, 3.0)),
            A_minus=float(rng.uniform(0.3, 3.0)),
            gamma_plus=float(rng.uniform(1.1, 3.5)),
            gamma_minus=float(rng.uniform(1.1, 3.5)),
            mu_plus=float(rng.uniform(0.2, 2.0)),
            mu_minus=float(rng.uniform(0.2, 2.0))))
        e = solve_equilibrium(p)
        assert abs(e.beta1 * e.beta4 - e.beta2 ** 2) < 1e-13


def test_low_frequency_expansion_orders():
    # remainder orders need asymmetric parameters: with symmetric ones the
    # quartic factors exactly and the residual is round-off
    ks = np.logspace(-3, -1, 25)
    errs = np.abs(spectral.branches(ks, ASYM_EQ)
                  - spectral.low_freq_expansion(ks, ASYM_EQ))
    slopes = [np.polyfit(np.log(ks), np.log(errs[:, j]), 1)[0]
              for j in range(4)]
    assert slopes[0] == pytest.approx(3.0, abs=0.2)
    assert slopes[1] == pytest.approx(3.0, abs=0.2)
    assert slopes[2] == pytest.approx(4.0, abs=0.3)
    assert slopes[3] == pytest.approx(4.0, abs=0.3)


def test_projector_algebra_across_bands():
    rng = np.random.default_rng(5)
    ks = np.concatenate([rng.uniform(0.005, 0.1, 70),
                         rng.uniform(0.1, 10.0, 80),
                         rng.uniform(10.0, 60.0, 60)])
    checked = 0
    lams = spectral.branches(ks, SYM_EQ)
    for k, lam, P in zip(ks, lams, spectral.projectors(ks, lams, SYM_EQ)):
        assert np.abs(P.sum(axis=0) - np.eye(4)).max() < 1e-8
        A = spectral.symbol(float(k), SYM_EQ)
        rec = np.einsum("i,ijk->jk", lam, P)
        assert np.abs(rec - A).max() < 1e-8 * max(1.0, np.abs(A).max())
        for i in range(4):
            for j in range(4):
                ref = P[i] if i == j else 0.0
                assert np.abs(P[i] @ P[j] - ref).max() < 1e-8
        if spectral.band_of(k) == "low":
            assert np.abs(P[0] - np.conj(P[1])).max() < 1e-8
        checked += 1
    assert checked >= 200


def test_middle_band_gap_and_high_frequency_roots():
    b_mid = spectral.mid_band_gap(SYM_EQ, n_grid=2000)
    b_mid2 = spectral.mid_band_gap(SYM_EQ, n_grid=4000)
    assert b_mid > 0.0
    assert abs(b_mid - b_mid2) <= 0.01 * b_mid
    for k in (50.0, 100.0):
        assert spectral.high_freq_rel_err(k, SYM_EQ).max() < 0.05


def test_semigroup_dual_path_agreement():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = float(rng.uniform(1e-6, 20.0))
        t = float(rng.uniform(1e-6, 10.0))
        a = spectral.decompose_symbol(np.array([k]), SYM_EQ).semigroup(t)[0]
        b = scipy.linalg.expm(t * spectral.symbol(k, SYM_EQ))
        assert np.abs(a - b).max() < 1e-8


def test_radial_transform_regression(sym_recon):
    # scalar route against the closed-form heat kernel
    t = 1.7
    rs = np.linspace(0.0, 8.0, 40)
    kern = greens.radial_inverse("scalar", lambda k: np.exp(-k * k * t), rs)
    exact = (4 * math.pi * t) ** -1.5 * np.exp(-rs ** 2 / (4 * t))
    assert np.abs(kern["amp"] - exact).max() < 1e-6
    # full reconstruction against an independent 3-D FFT
    n, dx, tt = 128, 0.25, 2.0
    fx = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    KX, KY, KZ = np.meshgrid(fx, fx, fx, indexing="ij")
    K = np.sqrt(KX ** 2 + KY ** 2 + KZ ** 2)
    spot_idx = [4, 12, 24]
    rs = np.array([i * dx for i in spot_idx])
    P = sym_recon.full_profile(1, 1, K, tt).astype(complex)
    kern3 = np.fft.ifftn(P) / dx ** 3
    fvals = kern3[spot_idx, 0, 0].real
    rvals = sym_recon.entry_values(1, 1, rs, tt)["amp"]
    peak = np.abs(kern3[1:41, 0, 0].real).max()
    assert np.abs(fvals - rvals).max() < 0.01 * peak


def test_green_function_envelopes(sym_recon):
    env_h = waveconv.WavePattern("H", a=2.0, p=2.0, speed=SYM_EQ.c)
    env_d = waveconv.WavePattern("D", a=1.5, p=1.5)
    rep = greens.verify_entry_envelope(
        sym_recon, 1, 2, [waveconv.WavePattern("R4"), env_h])
    assert rep["trend_ratio"] <= 2.0
    rep = greens.verify_entry_envelope(sym_recon, 2, 2, [env_d, env_h])
    assert rep["trend_ratio"] <= 2.0
    # the slow entry genuinely exceeds the fast-entry bound, with the
    # leftover half-power growth of its Riesz-IV part
    bad = greens.verify_entry_envelope(sym_recon, 1, 2, [env_d, env_h])
    assert bad["trend_ratio"] > 2.0
    assert bad["growth_slope"] == pytest.approx(0.5, abs=0.15)


def test_weighted_cancellation(asym_recon):
    rep = greens.verify_cancellation(asym_recon)
    assert rep["trend_ratio"] <= 2.0
    # symbol-level cancellation of the singular 1/k amplitude
    assert spectral.singular_combination_residual(ASYM_EQ) < 1e-6


def test_convolution_suite_and_log_obstruction():
    cases = waveconv.make_cases(SYM_EQ.c)
    for name in ("I1", "I2", "I3", "K1", "K2", "K3", "K4", "K5", "K6",
                 "K7"):
        rep = waveconv.verify_case(cases[name])
        assert rep["trend_ratio"] <= 2.0, (name, rep["trend_ratio"])
        assert all(np.isfinite(v) for v in rep["c_est_by_region"].values())
    table = waveconv.log_obstruction([64.0 * 4 ** k for k in range(6)],
                                     c=SYM_EQ.c)
    assert table["correlation"] > 0.99
    # the refined source shows no log growth: its per-decade increments
    # collapse instead of approaching a constant
    assert table["refined_saturation"] < 0.6


def test_riesz_potential_lemmas():
    from scipy.special import erf
    rs = np.linspace(1e-4, 10.0, 200)
    got = waveconv.riesz_gradient(lambda s: np.exp(-s * s), rs)
    exact = (math.sqrt(math.pi) / 4.0 * erf(rs)
             - 0.5 * rs * np.exp(-rs ** 2)) / rs ** 2
    assert np.abs(got - exact).max() < 1e-8
    ts = [1.0, 4.0, 16.0, 64.0, 256.0]
    rep = waveconv.riesz_potential_check(
        waveconv.WavePattern("D", a=0.0, p=2.0), ts)
    slope = np.polyfit(np.log1p(ts), np.log(rep["sup_by_t"]), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)
    t = 4.0
    b = 1.0 + t
    rr = np.linspace(0.0, 30.0 * math.sqrt(b), 600)
    vals = greens.radial_inverse("riesz_matrix", lambda k: np.exp(-k * k * b),
                                 rr)
    amp = np.maximum(np.abs(vals["long"]), np.abs(vals["trans"]))
    u = 1.0 + rr ** 2 / b
    sel = (u > 20.0) & (amp > 0.0)
    prof_slope = np.polyfit(np.log(u[sel]), np.log(amp[sel]), 1)[0]
    assert prof_slope == pytest.approx(-1.5, abs=0.1)


def test_linear_decay_slopes():
    slopes = sim.decay_slope_table(SYM_EQ)
    assert slopes["n_p"] == pytest.approx(-0.25, abs=0.05)
    assert slopes["n_m"] == pytest.approx(-0.25, abs=0.05)
    assert slopes["m_p"] == pytest.approx(-0.75, abs=0.05)
    assert slopes["m_m"] == pytest.approx(-0.75, abs=0.05)
    assert slopes["combo"] == pytest.approx(-0.75, abs=0.05)


def test_nonlinear_simulator():
    L, n, eps = 64.0, 48, 1e-3
    table, final = sim.run_simulation(SYM_EQ, mode="nonlinear", n=n, L=L,
                                      eps=eps)
    ts = table["t"]
    assert final.shape == (8, n, n, n)
    assert ts[-1] == pytest.approx(L / (2.0 * SYM_EQ.c))
    mass_scale = eps * (2 * L) ** 3
    mass_p, mass_m = table["mass_p"], table["mass_m"]
    drift = np.max(np.abs(mass_p - mass_p[0]) + np.abs(mass_m - mass_m[0]))
    assert drift / mass_scale < 1e-12
    mom_scale = table["l2_mp"][0] * (2 * L) ** 1.5
    momentum = np.stack([table[f"momentum_{x}"] for x in "xyz"], axis=1)
    drift = np.abs(momentum - momentum[0]).max()
    assert drift / mom_scale < 1e-10
    # Huygens ring at two checkpoints
    hits = 0
    for t, ring_r in zip(ts, table["ring_r"]):
        if t in (8.0, 16.0):
            assert abs(ring_r - SYM_EQ.c * t) <= math.sqrt(1.0 + t)
            hits += 1
    assert hits == 2

    # Richardson order of the integrating-factor RK4 stepper
    ops = sim._GridOps(24, 32.0, SYM_EQ)
    f0 = sim.make_sim_state(ops, eps=1e-2)

    def advance(m):
        Y = ops.to_band(f0)
        half = ops.propagator(0.5 / m)
        for _ in range(m):
            Y = sim.step(ops, Y, ops.to_real(Y), 1.0 / m, half)
        return ops.to_real(Y).copy()

    ref = advance(32)
    errs = []
    for m in (4, 8):
        s = advance(m)
        errs.append(np.abs(s[1:4] - ref[1:4]).max()
                    + np.abs(s[0] - ref[0]).max())
    assert math.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.3)
