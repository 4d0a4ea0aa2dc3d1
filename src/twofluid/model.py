"""Physical parameters, equal-pressure equilibrium, and linearized coefficients.

Both phases obey a gamma-law pressure P = A rho^gamma.  At equilibrium the
volume fractions fill space (alpha_plus + alpha_minus = 1) and the phase
pressures agree, which pins a unique pair of background densities
(rho_bar_plus, rho_bar_minus) on (1, inf) x (1, inf) with
1/rho_bar_plus + 1/rho_bar_minus = 1: the fraction map (R+, R-) -> (rho+,
rho-) at R+ = R- = 1, solved by the same iteration (_match_pressures) from
rho+ = 1 + (A-/A+)^(1/gamma+), its root when gamma+ = gamma-.  Every
coefficient of the linearized system (the four beta's, the scaled
viscosities, the propagation speed c, the damping rate b1, the
diffusive-pair discriminant) is derived here once and consumed read-only
by the spectral, Green's-function, and simulation modules.

Classes:
    ModelParams       -- raw physical constants.
    EquilibriumState  -- background state plus all derived linear coefficients.

Functions:
    validate_params, solve_equilibrium, wave_speed_alt, solve_fraction_map,
    load_params, equilibrium_report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, asdict, fields

import numpy as np


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
    """Check finiteness and positivity/parabolicity constraints; return p
    unchanged.

    Raises ParameterError naming the offending field.
    """
    for name, value in asdict(p).items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, not {value}")
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


def _common_c2(rho_p: float, rho_m: float, alpha_p: float, alpha_m: float,
               p: ModelParams) -> float:
    """Common coefficient C^2 = s+^2 s-^2 / (a- rho+ s+^2 + a+ rho- s-^2),
    summed in place for arrays (augmented assignment keeps floats too)."""
    s2p = pressure_law_prime(rho_p, p.A_plus, p.gamma_plus)
    s2m = pressure_law_prime(rho_m, p.A_minus, p.gamma_minus)
    den = alpha_m * rho_p
    den *= s2p
    term = alpha_p * rho_m
    term *= s2m
    den += term
    s2p *= s2m
    s2p /= den
    return s2p


def solve_equilibrium(p: ModelParams) -> EquilibriumState:
    """Solve the equal-pressure background and fill every derived field.

    The background is the fraction map at R+ = R- = 1: rho_bar+ solves
    P_plus(x) = P_minus(x / (x - 1)) by the fraction map's iteration, from
    x = 1 + (A-/A+)^(1/gamma+), the root when gamma+ = gamma-.  p is
    validated here and nowhere else; an inadmissible p, a derived
    coefficient that overflows or C2 underflowing raises ParameterError.
    """
    validate_params(p)
    one = np.ones(1)
    start = np.array([1.0 + (p.A_minus / p.A_plus) ** (1.0 / p.gamma_plus)])
    rho_p, rho_m = _match_pressures(one, one, start, None, p, "equilibrium")
    rho_p, rho_m = float(rho_p[0]), float(rho_m[0])
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
    # NaN fails neither test: it is named as an overflow below
    if C2 <= 0.0 or c2 <= 0.0:
        raise ParameterError("derived coefficient C2 underflows")
    c = math.sqrt(c2)
    b1 = (beta1 * nup + beta4 * num) / (2.0 * c2)
    try:
        disc = (beta1 * num + beta4 * nup) ** 2 \
            - 4.0 * c2 * (beta1 * p.sigma_minus + beta4 * p.sigma_plus)
    except OverflowError:       # float ** raises where * would give inf
        disc = math.inf
    R_disc = math.sqrt(disc) if disc >= 0.0 else float("nan")
    root = complex(R_disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    lam3 = (-(beta1 * num + beta4 * nup) + root) / (2.0 * c2)
    lam4 = (-(beta1 * num + beta4 * nup) - root) / (2.0 * c2)
    if disc >= 0.0:
        lam3, lam4 = lam3.real, lam4.real

    eq = EquilibriumState(
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
    for name, value in asdict(eq).items():
        # R_disc is NaN by design when the diffusive pair is complex
        if name not in ("params", "R_disc") and not cmath.isfinite(value):
            raise ParameterError(f"derived coefficient {name} overflows")
    return eq


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


def solve_fraction_map(R_plus, R_minus, eq: EquilibriumState):
    """Invert the fraction densities: (R+, R-) -> (rho+, rho-, alpha+, C2).

    Solves the pressure-matching scalar equation, with eq.params' laws,
        phi(x) = P_plus(x) - P_minus(R- x / (x - R+)) = 0
    for rho+ = x > R+ by _match_pressures, to |phi| < 1e-13 (|P| + 1) with
    P the equilibrium pressure.  Accepts scalars or broadcastable arrays.
    Restricted to |R+- - 1| <= 0.5; outside that box (or at vacuum R <= 0,
    or for NaN) raises AdmissibilityError.

    Newton starts from the map's linearisation at the equilibrium,
    rho+ ~ rho_bar+ + a (R+ - 1) + b (R- - 1), with a and b from the
    implicit-function derivatives of phi.  With gamma+ = gamma- the map is
    affine, rho+ = R+ + (A-/A+)^(1/gamma) R-, so the start is the root and
    the solve is one residual evaluation.
    """
    Rp = np.asarray(R_plus, dtype=float)
    Rm = np.asarray(R_minus, dtype=float)
    scalar = (Rp.ndim == 0 and Rm.ndim == 0)
    Rp, Rm = np.broadcast_arrays(np.atleast_1d(Rp), np.atleast_1d(Rm))
    # written so that NaN fails the test as well
    if not (np.all(np.abs(Rp - 1.0) <= 0.5)
            and np.all(np.abs(Rm - 1.0) <= 0.5)):
        raise AdmissibilityError(
            "admissibility violated: |R - 1| > 0.5 or not finite, outside "
            "the certified box")

    p = eq.params
    rbp, rbm = eq.rho_bar_plus, eq.rho_bar_minus
    # d rho+ / d R+- at the equilibrium, from phi_x dx + phi_R+- dR+- = 0
    den = eq.s2_plus * rbp ** 2 + eq.s2_minus * rbm ** 2
    x = Rp - 1.0
    x *= eq.s2_minus * rbm ** 2 * rbp / den
    x += (eq.s2_minus * rbm * rbp ** 2 / den) * (Rm - 1.0)
    x += rbp
    rho_p, rho_m = _match_pressures(Rp, Rm, x, abs(eq.pressure) + 1.0, p,
                                    "fraction map")
    del x                       # the start, one real field, is dead
    alpha_p = Rp / rho_p
    C2 = _common_c2(rho_p, rho_m, alpha_p, Rm / rho_m, p)
    if scalar:
        return (float(rho_p[0]), float(rho_m[0]), float(alpha_p[0]),
                float(C2[0]))
    return rho_p, rho_m, alpha_p, C2


def _match_pressures(Rp, Rm, x, scale, p: ModelParams, what: str):
    """(rho+, rho-) with P_plus(rho+) = P_minus(rho-), rho- = R- rho+ /
    (rho+ - R+), cell by cell from the start rho+ = x (overwritten).

    Newton runs on log P_plus(x) - log P_minus(rho-), which has the same
    root and no pole at x = R+, until phi = P_plus - P_minus meets
    |phi| < 1e-13 scale, and then takes one last step.  The fraction map
    passes scale = |P_bar| + 1.  The equilibrium has no P_bar and passes
    None, the relative test scale = P_plus(x), which holds at P << 1 too.
    phi increases in x, so every residual's sign bounds the root; a Newton
    step that is not finite or leaves those bounds is replaced by
    bisection, and only then is the upper end of the bracket sought by
    doubling.  A failed solve raises ParameterError if a residual on its
    way was not finite (the pressure law overflows) or the root lies below
    the bracket's first lower end, and ConvergenceError otherwise, all
    naming `what`.  Besides its two outputs the solve keeps at most about
    six arrays of x's size alive.
    """
    # partner density rho- = R- x / (x - R+) needs x > R+ throughout
    lo = Rp * (1.0 + 1e-12)
    lo += 1e-12
    np.maximum(x, lo + 1e-9, out=x)
    hi = None

    def partner(x):
        rho_m = Rm * x
        rho_m /= x - Rp
        return rho_m

    def newton(x):
        """(Newton iterate, phi, tolerance scale) at x; the log form's
        slope is gamma+ / x + gamma- R+ / (x (x - R+))."""
        xn = pressure_law(partner(x), p.A_minus, p.gamma_minus)
        f = pressure_law(x, p.A_plus, p.gamma_plus)
        s = f.copy() if scale is None else scale
        f -= xn
        np.log1p(np.divide(f, xn, out=xn), out=xn)
        slope = x - Rp
        slope *= x
        np.divide(p.gamma_minus * Rp, slope, out=slope)
        slope += p.gamma_plus / x
        xn /= slope
        return np.subtract(x, xn, out=xn), f, s

    overflow = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            xn, f, s = newton(x)
            active = ~(np.abs(f) < 1e-13 * s)
            if not np.any(active):
                # one more step from the residual in hand takes every cell
                # from the 1e-13 tolerance to round-off
                x = xn
                break
            overflow = overflow or not np.isfinite(f).all()
            if hi is None:
                hi = np.full(x.shape, np.inf)
            np.copyto(hi, x, where=f > 0.0)
            np.copyto(lo, x, where=f <= 0.0)
            del f
            bad = ~np.isfinite(xn)
            bad |= xn <= lo
            bad |= xn >= hi
            bad &= active
            if np.any(bad):
                top = bad & np.isinf(hi)
                if np.any(top):
                    hi[top] = _bracket_top(x[top], Rp[top], Rm[top], p, what)
                np.copyto(xn, 0.5 * (lo + hi), where=bad)
            # a converged cell keeps its x: its Newton step would sit on its
            # own bracket end and be thrown to the midpoint
            np.copyto(x, xn, where=active)
            del xn, bad, active
        else:
            _, f, s = newton(x)
            if not np.all(np.abs(f) < 1e-10 * s):
                if overflow or not np.isfinite(f).all():
                    raise ParameterError("the pressure law A rho^gamma "
                                         f"overflows on the {what} bracket")
                # phi > 0 at the first lower end: the root lies below it
                if np.any(lo <= Rp * (1.0 + 1e-12) + 1e-12):
                    raise ParameterError(f"{what}: rho+ - R+ is below 1e-12 "
                                         "(R+ + 1), beyond float resolution: "
                                         "rho- is not representable")
                raise ConvergenceError(f"{what} Newton did not converge")
        del lo, hi, f
        return x, partner(x)


def _bracket_top(x, Rp, Rm, p: ModelParams, what: str):
    """Upper ends of pressure-matching brackets: from max(4 x, 8 R+),
    doubled until phi > 0 (phi increases in x)."""
    hi = np.maximum(4.0 * x, 8.0 * Rp)
    for _ in range(80):
        f = (pressure_law(hi, p.A_plus, p.gamma_plus)
             - pressure_law(Rm * hi / (hi - Rp), p.A_minus, p.gamma_minus))
        bad = f <= 0.0
        if not np.any(bad):
            return hi
        hi[bad] *= 2.0
    raise ConvergenceError(f"{what}: bracket failure")


def load_params(path: str) -> ModelParams:
    """Parse ModelParams from `key = value` lines, each key a field name in
    lower case; solve_equilibrium validates the values."""
    names = {f.name.lower(): f.name for f in fields(ModelParams)}
    values: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in names:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[names[key]] = float(val.strip())
        except ValueError as exc:
            raise ParameterError(
                f"{path}:{lineno}: bad value for {key}") from exc
    return ModelParams(**values)


def equilibrium_report(eq: EquilibriumState) -> dict:
    """Flat JSON-ready dict of the EquilibriumState fields.

    R_disc is None when disc < 0 (the diffusive pair is then complex).
    """
    out = {}
    for key, val in asdict(eq).items():
        if key == "R_disc" and eq.disc < 0.0:
            out[key] = None
        elif key == "params":
            for pk, pv in val.items():
                out[f"param_{pk}"] = pv
        elif isinstance(val, complex):
            out[key] = val.real if val.imag == 0.0 else [val.real, val.imag]
        else:
            out[key] = val
    return out
