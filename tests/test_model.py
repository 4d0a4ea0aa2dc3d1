"""Equilibrium algebra tests.

Oracles kept independent of the implementation: plain bisection on the
pressure-matching function, and closed forms worked out by hand for the
symmetric and one asymmetric parameter set.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twofluid import model
from twofluid.model import (
    AdmissibilityError,
    ModelParams,
    ParameterError,
    check_combination_degeneracy,
    equilibrium_report,
    load_params,
    pressure_law,
    solve_equilibrium,
    solve_fraction_map,
    validate_params,
    wave_speed_alt,
)

SYM = ModelParams()  # mu=1, lambda=0, sigma=0.01, A=1, gamma=2 both phases


def bisect_equilibrium(p: ModelParams, iters: int = 200) -> float:
    """Independent oracle: plain bisection on P+(rho) - P-(rho/(rho-1))."""

    def phi(rho):
        return (pressure_law(rho, p.A_plus, p.gamma_plus)
                - pressure_law(rho / (rho - 1.0), p.A_minus, p.gamma_minus))

    lo, hi = 1.0 + 1e-9, 2.0
    while phi(hi) <= 0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def valid_params_strategy():
    pos = st.floats(0.1, 10.0, allow_nan=False)
    return st.builds(
        ModelParams,
        mu_plus=pos, mu_minus=pos,
        lambda_plus=st.floats(-0.05, 5.0), lambda_minus=st.floats(-0.05, 5.0),
        sigma_plus=st.floats(1e-4, 1.0), sigma_minus=st.floats(1e-4, 1.0),
        A_plus=st.floats(0.2, 5.0), A_minus=st.floats(0.2, 5.0),
        gamma_plus=st.floats(1.1, 3.0), gamma_minus=st.floats(1.1, 3.0),
    ).filter(lambda p: 2 * p.mu_plus + 3 * p.lambda_plus >= 0
             and 2 * p.mu_minus + 3 * p.lambda_minus >= 0)


class TestValidateParams:
    def test_defaults_pass(self):
        assert validate_params(SYM) is SYM

    def test_zero_shear_viscosity_rejected(self):
        with pytest.raises(ParameterError, match="mu_plus"):
            validate_params(ModelParams(mu_plus=0.0))

    def test_parabolicity_rejected(self):
        with pytest.raises(ParameterError, match="2mu"):
            validate_params(ModelParams(mu_plus=1.0, lambda_plus=-1.0))

    def test_negative_capillarity_rejected(self):
        with pytest.raises(ParameterError, match="sigma_minus"):
            validate_params(ModelParams(sigma_minus=-0.01))


class TestSolveEquilibrium:
    def test_symmetric_closed_form(self):
        eq = solve_equilibrium(SYM)
        assert eq.rho_bar_plus == pytest.approx(2.0, abs=1e-12)
        assert eq.rho_bar_minus == pytest.approx(2.0, abs=1e-12)
        assert eq.alpha_bar_plus == pytest.approx(0.5, abs=1e-13)
        assert eq.s2_plus == pytest.approx(4.0, abs=1e-11)
        assert eq.C2 == pytest.approx(2.0, abs=1e-11)
        for b in (eq.beta1, eq.beta2, eq.beta3, eq.beta4):
            assert b == pytest.approx(2.0, abs=1e-11)
        assert eq.c == pytest.approx(2.0, abs=1e-11)
        assert eq.nu1_plus == pytest.approx(0.5, abs=1e-12)
        assert eq.nu2_minus == pytest.approx(0.5, abs=1e-12)
        assert eq.nu_plus == pytest.approx(1.0, abs=1e-12)
        assert eq.b1 == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_diffusive_rates(self):
        # quadratic rates of the diffusive pair: roots of
        # 4 s^2 + 4 s + 0.04 = 0 -> s = (-1 +- sqrt(1 - 0.04))/2
        eq = solve_equilibrium(SYM)
        root = math.sqrt(1.0 - 0.04)
        assert eq.lam3_tilde == pytest.approx((-1 + root) / 2, rel=1e-12)
        assert eq.lam4_tilde == pytest.approx((-1 - root) / 2, rel=1e-12)
        assert eq.R_disc == pytest.approx(4.0 * root, rel=1e-12)

    def test_asymmetric_closed_form(self):
        # A- = 2: pressure matching reduces to (rho+ - 1)^2 = 2
        eq = solve_equilibrium(ModelParams(A_minus=2.0))
        assert eq.rho_bar_plus == pytest.approx(1.0 + math.sqrt(2), abs=1e-11)
        assert eq.rho_bar_minus == pytest.approx((2 + math.sqrt(2)) / 2,
                                                 abs=1e-11)
        assert eq.alpha_bar_plus == pytest.approx(math.sqrt(2) - 1, abs=1e-11)

    def test_against_bisection_oracle(self):
        p = ModelParams(A_plus=0.7, A_minus=1.9, gamma_plus=1.4,
                        gamma_minus=2.6, mu_plus=0.3, mu_minus=2.0)
        eq = solve_equilibrium(p)
        assert eq.rho_bar_plus == pytest.approx(bisect_equilibrium(p),
                                                rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(valid_params_strategy())
    def test_defining_equations_hold(self, p):
        eq = solve_equilibrium(p)
        res1 = abs(1.0 / eq.rho_bar_plus + 1.0 / eq.rho_bar_minus - 1.0)
        Pp = pressure_law(eq.rho_bar_plus, p.A_plus, p.gamma_plus)
        Pm = pressure_law(eq.rho_bar_minus, p.A_minus, p.gamma_minus)
        assert res1 < 1e-12
        assert abs(Pp - Pm) < 1e-12 * max(Pp, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(valid_params_strategy())
    def test_beta_identity_and_speed(self, p):
        eq = solve_equilibrium(p)
        lhs, rhs = eq.beta1 * eq.beta4, eq.beta2 ** 2
        assert abs(lhs - rhs) <= 1e-13 * max(lhs, rhs)
        assert abs(eq.c - wave_speed_alt(eq)) <= 1e-12 * eq.c
        assert abs(eq.c ** 2 - (eq.beta1 + eq.beta4)) <= 1e-12 * eq.c ** 2


class TestFractionMap:
    def test_unit_fractions_reproduce_equilibrium(self):
        eq = solve_equilibrium(SYM)
        rho_p, rho_m, alpha_p, C2 = solve_fraction_map(1.0, 1.0, SYM)
        assert rho_p == pytest.approx(eq.rho_bar_plus, abs=1e-12)
        assert rho_m == pytest.approx(eq.rho_bar_minus, abs=1e-12)
        assert alpha_p == pytest.approx(eq.alpha_bar_plus, abs=1e-13)
        assert C2 == pytest.approx(eq.C2, abs=1e-11)

    def test_off_equilibrium_residuals(self):
        rho_p, rho_m, alpha_p, _ = solve_fraction_map(1.1, 0.9, SYM)
        # defining equations as the oracle
        assert 1.1 / rho_p + 0.9 / rho_m == pytest.approx(1.0, abs=1e-12)
        Pp = pressure_law(rho_p, SYM.A_plus, SYM.gamma_plus)
        Pm = pressure_law(rho_m, SYM.A_minus, SYM.gamma_minus)
        assert Pp == pytest.approx(Pm, abs=1e-12 * Pp)
        assert alpha_p == pytest.approx(1.1 / rho_p, abs=1e-14)

    def test_vacuum_rejected(self):
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(0.0, 1.0, SYM)

    def test_far_from_equilibrium_rejected(self):
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(1.6, 1.0, SYM)

    def test_nan_rejected_before_newton(self, monkeypatch):
        calls = []

        def counting(rho, A, gamma):
            calls.append(1)
            return pressure_law(rho, A, gamma)

        monkeypatch.setattr(model, "pressure_law", counting)
        Rp = np.ones(8)
        Rp[3] = np.nan
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(Rp, np.ones(8), SYM)
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(1.0, np.inf, SYM)
        assert calls == []

    def test_array_matches_scalar(self):
        Rp = np.array([0.95, 1.0, 1.12])
        Rm = np.array([1.05, 1.0, 0.9])
        rho_p, rho_m, alpha_p, C2 = solve_fraction_map(Rp, Rm, SYM)
        for i in range(3):
            ref = solve_fraction_map(float(Rp[i]), float(Rm[i]), SYM)
            assert rho_p[i] == pytest.approx(ref[0], rel=1e-12)
            assert C2[i] == pytest.approx(ref[3], rel=1e-12)

    def test_converged_cells_stay_put(self, monkeypatch):
        # near-equilibrium cells converge at different iterations; one that
        # has converged must not be thrown back to its bracket midpoint
        eq = solve_equilibrium(SYM)
        calls = []

        def counting(rho, A, gamma):
            calls.append(1)
            return pressure_law(rho, A, gamma)

        monkeypatch.setattr(model, "pressure_law", counting)
        rng = np.random.default_rng(0)
        Rp = 1.0 + 2e-3 * rng.uniform(-1.0, 1.0, 4096)
        Rm = 1.0 + 2e-3 * rng.uniform(-1.0, 1.0, 4096)
        rho_p, rho_m, _, _ = solve_fraction_map(Rp, Rm, SYM, eq=eq)
        # two calls for the bracket, two per Newton iteration
        assert len(calls) <= 2 + 2 * 6
        assert np.abs(Rp / rho_p + Rm / rho_m - 1.0).max() < 1e-12


class TestCombinationDegeneracy:
    def test_symmetric_not_applicable(self):
        report = check_combination_degeneracy(solve_equilibrium(SYM))
        assert report["applicable"] is False

    def test_asymmetric_degenerates(self):
        eq = solve_equilibrium(ModelParams(A_minus=2.0))
        report = check_combination_degeneracy(eq)
        assert report["applicable"] is True
        assert report["abs_diff"] < 1e-12
        assert report["degenerate"]

    @settings(max_examples=100, deadline=None)
    @given(valid_params_strategy())
    def test_degeneracy_property_sweep(self, p):
        report = check_combination_degeneracy(solve_equilibrium(p))
        if report["applicable"]:
            assert report["degenerate"]


class TestConfigAndReport:
    def test_roundtrip_config(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(
            "# test parameters\n"
            "mu_plus = 0.5\nmu_minus = 1.5\n"
            "lambda_plus = 0.1\nlambda_minus = 0.0\n"
            "sigma_plus = 0.02\nsigma_minus = 0.01\n"
            "a_plus = 1.0\na_minus = 2.0\n"
            "gamma_plus = 2.0\ngamma_minus = 1.4\n")
        p = load_params(str(cfg))
        assert p.mu_plus == 0.5
        assert p.A_minus == 2.0
        assert p.gamma_minus == 1.4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("viscosity = 1.0\n")
        with pytest.raises(ParameterError, match="unknown key"):
            load_params(str(cfg))

    def test_report_is_flat_and_json_ready(self):
        import json

        rep = equilibrium_report(solve_equilibrium(SYM))
        assert rep["schema"] == 1
        assert rep["rho_bar_plus"] == pytest.approx(2.0)
        json.dumps(rep)  # must not raise
