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
    equilibrium_report,
    load_params,
    pressure_law,
    solve_equilibrium,
    solve_fraction_map,
    validate_params,
    wave_speed_alt,
)

SYM = ModelParams()  # mu=1, lambda=0, sigma=0.01, A=1, gamma=2 both phases
SYM_EQ = solve_equilibrium(SYM)


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

    @pytest.mark.parametrize("field", ["mu_plus", "lambda_plus",
                                       "sigma_plus", "A_minus",
                                       "gamma_minus"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            validate_params(ModelParams(**{field: value}))

    @pytest.mark.parametrize("field", ["mu_plus", "lambda_minus"])
    def test_overflowing_coefficient_named(self, field):
        # the diffusive-pair discriminant squares a viscosity sum
        with pytest.raises(ParameterError, match="disc overflows"):
            solve_equilibrium(ModelParams(**{field: 1e300}))

    def test_overflowing_pressure_law_named(self):
        with pytest.raises(ParameterError, match="pressure law"):
            solve_equilibrium(ModelParams(gamma_plus=1e30))

    def test_underflowing_coefficient_named(self):
        # s+^2 s-^2 ~ 1e-600 underflows, and b1 = ... / (2 c^2) divided by 0
        with pytest.raises(ParameterError, match="C2 underflows"):
            solve_equilibrium(ModelParams(A_plus=1e-300, A_minus=1e-300,
                                          gamma_minus=2.6))

    def test_unresolved_partner_density_named(self):
        # rho_bar+ = 1 + 1e-25 rounds to 1: rho_bar- = rho_bar+ /
        # (rho_bar+ - 1) has no float value, and no Newton iterate converges
        with pytest.raises(ParameterError, match="not representable"):
            solve_equilibrium(ModelParams(A_plus=1e50))


class TestSolveEquilibrium:
    def test_symmetric_closed_form(self):
        # gamma+ = gamma-: the equilibrium solve starts at its root, 2
        eq = solve_equilibrium(SYM)
        assert eq.rho_bar_plus == eq.rho_bar_minus == 2.0
        assert eq.alpha_bar_plus == eq.alpha_bar_minus == 0.5
        assert eq.beta1 == eq.beta2 == eq.beta3 == eq.beta4 == 2.0
        assert eq.s2_plus == pytest.approx(4.0, abs=1e-11)
        assert eq.C2 == pytest.approx(2.0, abs=1e-11)
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
        for p in (ModelParams(A_plus=0.7, A_minus=1.9, gamma_plus=1.4,
                              gamma_minus=2.6, mu_plus=0.3, mu_minus=2.0),
                  # the pressure law overflows on a doubling bracket from
                  # 2, Newton alone stalls, and a root lies beyond 2^61
                  ModelParams(gamma_minus=100.0), ModelParams(A_minus=1e10),
                  ModelParams(A_plus=1e-50),
                  # P+ ~ 1e-14 at the start: a tolerance with an absolute
                  # floor would accept it after one step, 0.9 % off the root
                  ModelParams(A_plus=1e-14, A_minus=1e-14, gamma_minus=2.6)):
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


# the defaults, the simulator tests' asymmetric set, and a set far from
# equal exponents whose corners need the bisection fallback
FRACTION_SETS = {
    "default": SYM,
    "asym": ModelParams(mu_minus=2.0, lambda_plus=0.5, lambda_minus=1.5,
                        sigma_plus=0.02, A_minus=2.0, gamma_minus=1.6),
    "far": ModelParams(gamma_plus=1.2, gamma_minus=3.0, A_plus=0.5,
                       A_minus=2.0),
}


class TestFractionMap:
    def test_unit_fractions_reproduce_equilibrium(self):
        # one solver: the equilibrium is the fraction map at R+ = R- = 1
        for p in FRACTION_SETS.values():
            eq = solve_equilibrium(p)
            rho_p, rho_m, alpha_p, C2 = solve_fraction_map(1.0, 1.0, eq)
            assert abs(rho_p - eq.rho_bar_plus) \
                <= 2.0 * np.spacing(eq.rho_bar_plus)
            assert abs(rho_m - eq.rho_bar_minus) \
                <= 2.0 * np.spacing(eq.rho_bar_minus)
            assert alpha_p == pytest.approx(eq.alpha_bar_plus, rel=1e-15)
            assert C2 == pytest.approx(eq.C2, rel=1e-14)

    def test_off_equilibrium_residuals(self):
        rho_p, rho_m, alpha_p, _ = solve_fraction_map(1.1, 0.9, SYM_EQ)
        # defining equations as the oracle
        assert 1.1 / rho_p + 0.9 / rho_m == pytest.approx(1.0, abs=1e-12)
        Pp = pressure_law(rho_p, SYM.A_plus, SYM.gamma_plus)
        Pm = pressure_law(rho_m, SYM.A_minus, SYM.gamma_minus)
        assert Pp == pytest.approx(Pm, abs=1e-12 * Pp)
        assert alpha_p == pytest.approx(1.1 / rho_p, abs=1e-14)

    def test_vacuum_rejected(self):
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(0.0, 1.0, SYM_EQ)

    def test_far_from_equilibrium_rejected(self):
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(1.6, 1.0, SYM_EQ)

    def test_nan_rejected_before_newton(self, monkeypatch):
        calls = []

        def counting(rho, A, gamma):
            calls.append(1)
            return pressure_law(rho, A, gamma)

        monkeypatch.setattr(model, "pressure_law", counting)
        Rp = np.ones(8)
        Rp[3] = np.nan
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(Rp, np.ones(8), SYM_EQ)
        with pytest.raises(AdmissibilityError):
            solve_fraction_map(1.0, np.inf, SYM_EQ)
        assert calls == []

    def test_array_matches_scalar(self):
        Rp = np.array([0.95, 1.0, 1.12])
        Rm = np.array([1.05, 1.0, 0.9])
        rho_p, rho_m, alpha_p, C2 = solve_fraction_map(Rp, Rm, SYM_EQ)
        for i in range(3):
            ref = solve_fraction_map(float(Rp[i]), float(Rm[i]), SYM_EQ)
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
        rho_p, rho_m, _, _ = solve_fraction_map(Rp, Rm, eq)
        # two calls per residual evaluation; the bracket is not needed
        assert len(calls) <= 2 + 2 * 6
        assert np.abs(Rp / rho_p + Rm / rho_m - 1.0).max() < 1e-12


def bisect_fraction_map(Rp: float, Rm: float, p: ModelParams) -> float:
    """Independent oracle: rho+ by plain bisection of the pressure match
    P+(x) = P-(R- x / (x - R+)) over x > R+, down to adjacent floats."""

    def phi(x):
        return (pressure_law(x, p.A_plus, p.gamma_plus)
                - pressure_law(Rm * x / (x - Rp), p.A_minus, p.gamma_minus))

    lo, hi = Rp, 2.0 * Rp
    while phi(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(phi(lo)) < abs(phi(hi)) else hi
        if phi(mid) > 0.0:
            hi = mid
        else:
            lo = mid


class TestFractionMapGrid:
    """A 21 x 21 grid over the whole box |R+- - 1| <= 0.5."""

    GRID = np.meshgrid(np.linspace(0.5, 1.5, 21), np.linspace(0.5, 1.5, 21),
                       indexing="ij")

    @pytest.fixture(scope="class", params=sorted(FRACTION_SETS))
    def solved(self, request):
        p = FRACTION_SETS[request.param]
        eq = solve_equilibrium(p)
        return p, eq, solve_fraction_map(*self.GRID, eq)

    def test_residual(self, solved):
        p, eq, (rho_p, rho_m, alpha_p, C2) = solved
        Rp, Rm = self.GRID
        scale = abs(eq.pressure) + 1.0
        resid = (pressure_law(rho_p, p.A_plus, p.gamma_plus)
                 - pressure_law(rho_m, p.A_minus, p.gamma_minus))
        assert np.abs(resid).max() < 1e-13 * scale
        assert np.abs(Rp / rho_p + Rm / rho_m - 1.0).max() < 1e-13
        assert np.array_equal(alpha_p, Rp / rho_p)
        assert np.all(C2 > 0.0)

    def test_bisection_oracle(self, solved):
        p, _, (rho_p, rho_m, _, _) = solved
        for (i, j), Rp in np.ndenumerate(self.GRID[0]):
            Rm = self.GRID[1][i, j]
            x = bisect_fraction_map(Rp, Rm, p)
            assert rho_p[i, j] == pytest.approx(x, rel=1e-13, abs=0.0)
            assert rho_m[i, j] == pytest.approx(Rm * x / (x - Rp),
                                                rel=1e-13, abs=0.0)

    def test_far_set_takes_bisection(self, monkeypatch):
        # Newton from the linear start leaves its bracket at some corners;
        # the bisection that replaces it needs the bracket's upper end
        tops = []
        bracket_top = model._bracket_top

        def spy(x, *args):
            tops.append(x.size)
            return bracket_top(x, *args)

        monkeypatch.setattr(model, "_bracket_top", spy)
        p = FRACTION_SETS["far"]
        rho_p, _, _, _ = solve_fraction_map(*self.GRID, solve_equilibrium(p))
        assert sum(tops) > 0
        Rp, Rm = self.GRID
        assert rho_p[0, 0] == pytest.approx(
            bisect_fraction_map(Rp[0, 0], Rm[0, 0], p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [SYM, ModelParams(A_minus=2.0),
                                   ModelParams(A_plus=1000.0,
                                               gamma_plus=3.0,
                                               gamma_minus=3.0)],
                             ids=["default", "a_minus_2", "a_plus_1000"])
    def test_equal_gammas_take_one_residual(self, monkeypatch, p):
        # the map is affine, so the linear start is the root
        eq = solve_equilibrium(p)
        calls = []

        def counting(rho, A, gamma):
            calls.append(1)
            return pressure_law(rho, A, gamma)

        monkeypatch.setattr(model, "pressure_law", counting)
        rho_p, _, _, _ = solve_fraction_map(*self.GRID, eq)
        assert len(calls) == 2
        kappa = (p.A_minus / p.A_plus) ** (1.0 / p.gamma_plus)
        exact = self.GRID[0] + kappa * self.GRID[1]
        assert np.abs(rho_p / exact - 1.0).max() < 1e-14


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
        # cli._write_json adds the schema version
        assert "schema" not in rep
        assert rep["rho_bar_plus"] == pytest.approx(2.0)
        json.dumps(rep)  # must not raise
