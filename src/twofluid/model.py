"""Physical parameters, equal-pressure equilibrium, and linearized coefficients.

Both phases obey a gamma-law pressure P = A rho^gamma.  At equilibrium the
volume fractions fill space (alpha_plus + alpha_minus = 1) and the phase
pressures agree, which pins a unique pair of background densities
(rho_bar_plus, rho_bar_minus) on (1, inf) x (1, inf) with
1/rho_bar_plus + 1/rho_bar_minus = 1.  Every coefficient of the linearized
system (the four beta's, the scaled viscosities, the propagation speed c,
the damping rate b1, the diffusive-pair discriminant) is derived here once
and consumed read-only by the spectral, Green's-function, and simulation
modules.

Classes:
    ModelParams       -- raw physical constants.
    EquilibriumState  -- background state plus all derived linear coefficients.

Functions:
    validate_params, solve_equilibrium, solve_fraction_map,
    check_combination_degeneracy, load_params, equilibrium_report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

FloatArray = np.ndarray

# config keys accepted by load_params, in file order
_CONFIG_KEYS = (
    "mu_plus", "mu_minus", "lambda_plus", "lambda_minus",
    "sigma_plus", "sigma_minus", "a_plus", "a_minus",
    "gamma_plus", "gamma_minus",
)


class ParameterError(ValueError):
    """A physical constant violates its admissibility constraint."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach tolerance."""


class AdmissibilityError(ValueError):
    """A state left the admissible region (vacuum or fraction blow-up)."""


@dataclass(frozen=True)
class ModelParams:
    """Raw physical constants of the two-fluid model.

    mu: shear viscosity (> 0), lam: bulk viscosity (2 mu + 3 lam >= 0),
    sigma: capillary coefficient (> 0), A: pressure-law prefactor (> 0),
    gamma: adiabatic exponent (> 1), one of each per phase.
    """

    mu_plus: float = 1.0
    mu_minus: float = 1.0
    lambda_plus: float = 0.0
    lambda_minus: float = 0.0
    sigma_plus: float = 0.01
    sigma_minus: float = 0.01
    A_plus: float = 1.0
    A_minus: float = 1.0
    gamma_plus: float = 2.0
    gamma_minus: float = 2.0


@dataclass(frozen=True)
class EquilibriumState:
    """Background state and every derived coefficient of the linear system."""

    params: ModelParams
    rho_bar_plus: float
    rho_bar_minus: float
    alpha_bar_plus: float
    alpha_bar_minus: float
    pressure: float
    s2_plus: float
    s2_minus: float
    C2: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    nu1_plus: float
    nu1_minus: float
    nu2_plus: float
    nu2_minus: float
    nu_plus: float
    nu_minus: float
    c: float
    beta_weight_plus: float
    beta_weight_minus: float
    b1: float
    disc: float
    R_disc: float
    lam3_tilde: complex
    lam4_tilde: complex


def pressure_law(rho, A: float, gamma: float):
    return A * rho ** gamma


def pressure_law_prime(rho, A: float, gamma: float):
    return A * gamma * rho ** (gamma - 1.0)


def validate_params(p: ModelParams) -> ModelParams:
    """Check positivity/parabolicity constraints; return p unchanged.

    Raises ParameterError naming the offending field.
    """
    for side in ("plus", "minus"):
        mu = getattr(p, f"mu_{side}")
        lam = getattr(p, f"lambda_{side}")
        sig = getattr(p, f"sigma_{side}")
        A = getattr(p, f"A_{side}")
        gam = getattr(p, f"gamma_{side}")
        if not mu > 0:
            raise ParameterError(f"mu_{side} must be positive")
        if 2.0 * mu + 3.0 * lam < 0:
            raise ParameterError(f"2mu+3lambda < 0 for phase {side}")
        if not sig > 0:
            raise ParameterError(f"sigma_{side} must be positive")
        if not A > 0:
            raise ParameterError(f"A_{side} must be positive")
        if not gam > 1:
            raise ParameterError(f"gamma_{side} must exceed 1")
    return p


def _equilibrium_root(p: ModelParams) -> float:
    """Root of phi(rho) = P_plus(rho) - P_minus(rho/(rho-1)) on (1, inf).

    phi is strictly increasing (P_plus grows, the partner density
    rho/(rho-1) falls), so a sign-change bracket plus safeguarded Newton
    converges unconditionally.
    """

    def phi(rho: float) -> float:
        partner = rho / (rho - 1.0)
        return (pressure_law(rho, p.A_plus, p.gamma_plus)
                - pressure_law(partner, p.A_minus, p.gamma_minus))

    def dphi(rho: float) -> float:
        partner = rho / (rho - 1.0)
        dpartner = -1.0 / (rho - 1.0) ** 2
        return (pressure_law_prime(rho, p.A_plus, p.gamma_plus)
                - pressure_law_prime(partner, p.A_minus, p.gamma_minus)
                * dpartner)

    lo = 1.0 + 1e-9
    hi = 2.0
    grow = 0
    while phi(hi) <= 0.0:
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise ConvergenceError("equilibrium bracket failure: no sign change")
    if phi(lo) >= 0.0:
        raise ConvergenceError("equilibrium bracket failure: phi(1+) >= 0")

    x = 0.5 * (lo + hi)
    scale = abs(pressure_law(2.0, p.A_plus, p.gamma_plus)) + 1.0
    for _ in range(200):
        f = phi(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        d = dphi(x)
        step = f / d if d != 0.0 else math.inf
        xn = x - step
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)  # bisection safeguard
        if abs(f) < 1e-13 * scale \
                and abs(xn - x) < 4.0 * np.finfo(float).eps * x:
            return xn
        x = xn
    if abs(phi(x)) < 1e-10 * scale:
        return x
    raise ConvergenceError("equilibrium Newton did not converge")


def _common_c2(rho_p: float, rho_m: float, alpha_p: float, alpha_m: float,
               p: ModelParams) -> float:
    """Common coefficient C^2 = s+^2 s-^2 / (a- rho+ s+^2 + a+ rho- s-^2)."""
    s2p = pressure_law_prime(rho_p, p.A_plus, p.gamma_plus)
    s2m = pressure_law_prime(rho_m, p.A_minus, p.gamma_minus)
    return s2p * s2m / (alpha_m * rho_p * s2p + alpha_p * rho_m * s2m)


def solve_equilibrium(p: ModelParams) -> EquilibriumState:
    """Solve the equal-pressure background and fill every derived field."""
    validate_params(p)
    rho_p = _equilibrium_root(p)
    rho_m = rho_p / (rho_p - 1.0)
    alpha_p = 1.0 / rho_p
    alpha_m = 1.0 / rho_m
    P = pressure_law(rho_p, p.A_plus, p.gamma_plus)
    s2p = pressure_law_prime(rho_p, p.A_plus, p.gamma_plus)
    s2m = pressure_law_prime(rho_m, p.A_minus, p.gamma_minus)
    C2 = _common_c2(rho_p, rho_m, alpha_p, alpha_m, p)

    beta1 = C2 * rho_m / rho_p
    beta2 = C2
    beta3 = C2
    beta4 = C2 * rho_p / rho_m

    nu1p = p.mu_plus / rho_p
    nu1m = p.mu_minus / rho_m
    nu2p = (p.mu_plus + p.lambda_plus) / rho_p
    nu2m = (p.mu_minus + p.lambda_minus) / rho_m
    nup = nu1p + nu2p
    num = nu1m + nu2m

    c2 = beta1 + beta4
    c = math.sqrt(c2)
    b1 = (beta1 * nup + beta4 * num) / (2.0 * c2)
    disc = (beta1 * num + beta4 * nup) ** 2 \
        - 4.0 * c2 * (beta1 * p.sigma_minus + beta4 * p.sigma_plus)
    R_disc = math.sqrt(disc) if disc >= 0.0 else float("nan")
    root = complex(R_disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    lam3 = (-(beta1 * num + beta4 * nup) + root) / (2.0 * c2)
    lam4 = (-(beta1 * num + beta4 * nup) - root) / (2.0 * c2)
    if disc >= 0.0:
        lam3, lam4 = lam3.real, lam4.real

    return EquilibriumState(
        params=p,
        rho_bar_plus=rho_p, rho_bar_minus=rho_m,
        alpha_bar_plus=alpha_p, alpha_bar_minus=alpha_m,
        pressure=P, s2_plus=s2p, s2_minus=s2m, C2=C2,
        beta1=beta1, beta2=beta2, beta3=beta3, beta4=beta4,
        nu1_plus=nu1p, nu1_minus=nu1m, nu2_plus=nu2p, nu2_minus=nu2m,
        nu_plus=nup, nu_minus=num,
        c=c,
        beta_weight_plus=math.sqrt(rho_m / rho_p),
        beta_weight_minus=math.sqrt(rho_p / rho_m),
        b1=b1, disc=disc, R_disc=R_disc,
        lam3_tilde=lam3, lam4_tilde=lam4,
    )


def wave_speed_alt(eq: EquilibriumState) -> float:
    """Independent propagation-speed formula used only as a cross-check.

    c^2 = [s+^2 s-^2 / (a- rho+ s+^2 + a+ rho- s-^2)]
          * (rho-/rho+ + rho+/rho-).
    """
    p = eq.params
    C2 = _common_c2(eq.rho_bar_plus, eq.rho_bar_minus,
                    eq.alpha_bar_plus, eq.alpha_bar_minus, p)
    ratio = eq.rho_bar_minus / eq.rho_bar_plus \
        + eq.rho_bar_plus / eq.rho_bar_minus
    return math.sqrt(C2 * ratio)


def solve_fraction_map(R_plus, R_minus, p: ModelParams,
                       eq: EquilibriumState | None = None):
    """Invert the fraction densities: (R+, R-) -> (rho+, rho-, alpha+, C2).

    Solves the pressure-matching scalar equation
        P_plus(rho+) = P_minus(R- rho+ / (rho+ - R+))
    for rho+ > R+ by Newton with a bisection safeguard.  Accepts scalars or
    broadcastable arrays.  Restricted to |R+- - 1| <= 0.5; outside that box
    (or at vacuum R <= 0, or for NaN) raises AdmissibilityError.
    """
    Rp = np.asarray(R_plus, dtype=float)
    Rm = np.asarray(R_minus, dtype=float)
    scalar = (Rp.ndim == 0 and Rm.ndim == 0)
    Rp, Rm = np.broadcast_arrays(Rp, Rm)
    Rp = np.array(Rp, dtype=float)
    Rm = np.array(Rm, dtype=float)
    if np.any(Rp <= 0.0) or np.any(Rm <= 0.0):
        raise AdmissibilityError("admissibility violated: fraction density <= 0")
    # written so that NaN fails the test as well
    if not (np.all(np.abs(Rp - 1.0) <= 0.5)
            and np.all(np.abs(Rm - 1.0) <= 0.5)):
        raise AdmissibilityError(
            "admissibility violated: |R - 1| > 0.5 or not finite, outside "
            "the certified box")

    if eq is None:
        eq = solve_equilibrium(p)
    x = np.full(Rp.shape, eq.rho_bar_plus * 1.0)
    # partner density rho- = R- x / (x - R+) needs x > R+ throughout
    lo = Rp * (1.0 + 1e-12) + 1e-12
    hi = np.maximum(x * 4.0, Rp * 8.0)
    x = np.clip(x, lo * 1.0 + 1e-9, hi)

    def phi_dphi(x):
        partner = Rm * x / (x - Rp)
        dpartner = -Rm * Rp / (x - Rp) ** 2
        f = (pressure_law(x, p.A_plus, p.gamma_plus)
             - pressure_law(partner, p.A_minus, p.gamma_minus))
        df = (pressure_law_prime(x, p.A_plus, p.gamma_plus)
              - pressure_law_prime(partner, p.A_minus, p.gamma_minus)
              * dpartner)
        return f, df

    # expand hi until phi(hi) > 0 everywhere (phi is increasing in x)
    for _ in range(80):
        f_hi, _ = phi_dphi(hi)
        bad = f_hi <= 0.0
        if not np.any(bad):
            break
        hi = np.where(bad, hi * 2.0, hi)
    else:
        raise ConvergenceError("fraction map: bracket failure")

    scale = abs(eq.pressure) + 1.0
    converged = False
    for _ in range(100):
        f, df = phi_dphi(x)
        done = np.abs(f) < 1e-13 * scale
        if np.all(done):
            converged = True
            break
        hi = np.where(f > 0.0, x, hi)
        lo = np.where(f <= 0.0, x, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - f / df
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        # a converged cell has x on its own bracket end, so its Newton
        # step would count as bad and be thrown to the bracket midpoint
        x = np.where(done, x, xn)
    if not converged:
        f, _ = phi_dphi(x)
        if not np.all(np.abs(f) < 1e-10 * scale):
            raise ConvergenceError("fraction map Newton did not converge")

    rho_p = x
    rho_m = Rm * rho_p / (rho_p - Rp)
    alpha_p = Rp / rho_p
    alpha_m = Rm / rho_m
    C2 = _common_c2(rho_p, rho_m, alpha_p, alpha_m, p)
    if scalar:
        return (float(rho_p), float(rho_m), float(alpha_p), float(C2))
    return rho_p, rho_m, alpha_p, C2


def check_combination_degeneracy(eq: EquilibriumState) -> dict:
    """Report on the second candidate combination weight a2.

    The alternative symbol combination would need weight
    a2 = (beta1 - beta2)/(beta2 - beta4); the identity beta1 beta4 = beta2^2
    forces a2 = beta1/beta2, i.e. the candidate collapses onto the original
    combination and carries no new cancellation.
    """
    # near-symmetric states make the quotient ill-conditioned; report n/a
    if abs(eq.beta2 - eq.beta4) < 1e-6 * max(abs(eq.beta2), abs(eq.beta4)):
        return {"applicable": False, "reason": "not applicable: beta2=beta4"}
    if abs(eq.beta1 - eq.beta2) < 1e-6 * max(abs(eq.beta1), abs(eq.beta2)):
        return {"applicable": False, "reason": "not applicable: beta1=beta2"}
    a2 = (eq.beta1 - eq.beta2) / (eq.beta2 - eq.beta4)
    ref = eq.beta1 / eq.beta2
    # cross-multiplied residual avoids the ill-conditioned quotient:
    # (beta1-beta2) beta2 - (beta2-beta4) beta1 = beta1 beta4 - beta2^2
    resid = abs(eq.beta1 * eq.beta4 - eq.beta2 ** 2)
    return {
        "applicable": True,
        "a2": a2,
        "beta1_over_beta2": ref,
        "abs_diff": abs(a2 - ref),
        "degenerate": resid < 1e-12 * eq.beta2 ** 2,
    }


def load_params(path: str) -> ModelParams:
    """Read ModelParams from a plain-text config of `key = value` lines."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = float(val.strip())
            except ValueError as exc:
                raise ParameterError(
                    f"{path}:{lineno}: bad value for {key}") from exc
    kwargs = {}
    for key, val in values.items():
        name = {"a_plus": "A_plus", "a_minus": "A_minus"}.get(key, key)
        kwargs[name] = val
    return validate_params(ModelParams(**kwargs))


def equilibrium_report(eq: EquilibriumState) -> dict:
    """Flat JSON-ready dict of the EquilibriumState fields."""
    out = {"schema": 1}
    for key, val in asdict(eq).items():
        if key == "params":
            for pk, pv in val.items():
                out[f"param_{pk}"] = pv
        elif isinstance(val, complex):
            out[key] = val.real if val.imag == 0.0 else [val.real, val.imag]
        else:
            out[key] = val
    return out
