"""Space-time convolution estimates between wave patterns.

Certifies the nonlinear convolution inequalities used to close the
pointwise ansatz: purely spatial initial-data estimates (I1-I3), the
space-time convolutions of diffusion, Huygens, and Riesz-IV patterns
(K1-K7), the logarithmic obstruction that forces the refined pressure
reformulation, and the low-frequency Riesz-potential bounds.

Everything reduces to 1-D quadratures: the angular integral of a 3-D
convolution of radial functions collapses via z = sqrt(r^2+u^2-2ru cos
theta) to a nested (u, z) integral, and the inner z-integral has a closed
form for every pattern in play (algebraic profiles in (z-m)^2/b with
integer or half-integer exponent).

Each certificate returns its strict-JSON record as a dict and carries no
verdict: the command line decides pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ParameterError

__all__ = [
    "WavePattern", "ConvCase", "QuadStats", "core_front_masks",
    "region_tag", "make_cases", "eval_spacetime_conv",
    "verify_case", "log_obstruction", "riesz_gradient",
    "riesz_potential_check",
]


# ---------------------------------------------------------------------------
# wave patterns

@dataclass(frozen=True)
class WavePattern:
    """Radial space-time profile.

    D:          (1+s)^-a (1 + z^2/(1+s))^-p
    H:          (1+s)^-a (1 + (z - c s)^2/(1+s))^-p
    R4:         alias for D with a = p = 1 (slowest Green-function wave)
    algebraic:  (1 + z^2)^-r_alg, independent of time
    """

    kind: str
    a: float = 0.0
    p: float = 0.0
    r_alg: float = 0.0
    speed: float = 0.0

    def __post_init__(self):
        if self.kind not in ("D", "H", "R4", "algebraic"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "R4":
            object.__setattr__(self, "a", 1.0)
            object.__setattr__(self, "p", 1.0)

    # (center m, width b, exponent q) of the spatial factor at time s;
    # s may be an array broadcasting against the radii
    def _mbq(self, s):
        if self.kind == "algebraic":
            return 0.0, 1.0, self.r_alg
        s = np.asarray(s, dtype=float)
        m = self.speed * s if self.kind == "H" else 0.0
        return m, 1.0 + s, self.p

    def time_factor(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "algebraic":
            return np.ones_like(s)
        return (1.0 + s) ** (-self.a)

    def spatial(self, z, s):
        m, b, q = self._mbq(s)
        z = np.asarray(z, dtype=float)
        return (1.0 + (z - m) ** 2 / b) ** (-q)

    def value(self, radius, s):
        return self.time_factor(s) * self.spatial(radius, s)

    def z_primitive(self, z, s):
        """Antiderivative of z -> z * spatial(z, s), in closed form."""
        m, b, q = self._mbq(s)
        z = np.asarray(z, dtype=float)
        w = (z - m) / np.sqrt(b)
        if q == 1.0:
            first = 0.5 * b * np.log1p(w * w)
        else:
            first = b * (1.0 + w * w) ** (1.0 - q) / (2.0 * (1.0 - q))
        if self.kind != "H":
            return first
        return first + m * np.sqrt(b) * _even_primitive(w, q)

    def z_integral(self, r, u, s):
        """int_{|r-u|}^{r+u} z * spatial(z, s) dz, in closed form.

        Off the H kind, 1 + (r+u)^2/b = Y + 4ru/b exactly, with
        Y = 1 + (r-u)^2/b, so the difference of the two ends' primitives is
        written through log1p and expm1 of 4ru/(bY): it does not cancel
        when u << r.
        """
        r, u = np.asarray(r, dtype=float), np.asarray(u, dtype=float)
        if self.kind == "H":
            return self.z_primitive(r + u, s) \
                - self.z_primitive(np.abs(r - u), s)
        _, b, q = self._mbq(s)
        Y = 1.0 + (r - u) ** 2 / b
        x = np.log1p(4.0 * r * u / (b * Y))
        if q == 1.0:
            return 0.5 * b * x
        return b * Y ** (1.0 - q) * np.expm1((1.0 - q) * x) / (2.0 * (1.0 - q))


def _even_primitive(w, q: float):
    """A_q(w) = int_0^w (1+s^2)^-q ds for q a positive multiple of 1/2."""
    if abs(2.0 * q - round(2.0 * q)) > 1e-12 or q <= 0:
        raise ValueError(f"exponent {q} not a positive half-integer")
    w = np.asarray(w, dtype=float)
    if round(2.0 * q) % 2 == 0:
        A, base = np.arctan(w), 1.0
    else:
        A, base = np.arcsinh(w), 0.5
    while base < q - 1e-12:
        A = w * (1.0 + w * w) ** (-base) / (2.0 * base) \
            + (2.0 * base - 1.0) / (2.0 * base) * A
        base += 1.0
    return A


# ---------------------------------------------------------------------------
# regions

def core_front_masks(r, t: float, c: float):
    """Masks of the core r <= sqrt(1+t) and the front |r - ct| <= sqrt(1+t).

    The two may overlap; callers decide whether an overlap point counts in
    both or in the first.
    """
    r = np.asarray(r, dtype=float)
    w = math.sqrt(1.0 + t)
    return r <= w, np.abs(r - c * t) <= w


def region_tag(r: float, t: float, c: float) -> str:
    """Appendix region of a space-time point (first match wins on overlap)."""
    core, front = core_front_masks(r, t, c)
    if core:
        return "D1"
    if front:
        return "D2"
    w = math.sqrt(1.0 + t)
    if r >= c * t + w:
        return "D3"
    if 0.5 * c * t >= w:
        if r <= 0.5 * c * t:
            return "D4"
        if r <= c * t - w:
            return "D5"
    return "D4"


# ---------------------------------------------------------------------------
# adaptive quadrature, batched over many independent integrals

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_GL8[0], _GL16[0]])


# the largest share of quadrature panels accepted at a depth cap for which
# a value counts as resolved; K3 at the defaults accepts 2.6 % there
DEPTH_CAP_SHARE_MAX = 0.05


@dataclass
class QuadStats:
    """Panels evaluated, and panels accepted only because of the depth cap."""

    panels: int = 0
    depth_cap_hits: int = 0

    @property
    def depth_cap_share(self) -> float:
        return self.depth_cap_hits / self.panels if self.panels else 0.0

    def require_resolved(self, what: str) -> None:
        """ParameterError where more than DEPTH_CAP_SHARE_MAX of the panels
        were accepted at a depth cap: the value is not resolved."""
        if self.depth_cap_share > DEPTH_CAP_SHARE_MAX:
            raise ParameterError(
                f"{what}: {self.depth_cap_share:.1%} of {self.panels} "
                "quadrature panels were accepted at the depth cap, more "
                f"than {DEPTH_CAP_SHARE_MAX:.0%}; the value is not resolved "
                "at these parameters")


def _panels(f, lo, hi, job):
    """8- and 16-point Gauss-Legendre values of every panel in one call."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    vals = f(mid[:, None] + half[:, None] * _NODES, job[:, None])
    c8 = half * (vals[:, :8] @ _GL8[1])
    c16 = half * (vals[:, 8:] @ _GL16[1])
    return c16, np.abs(c16 - c8)


# panels per integrand call; bounds the working set when many panels fail
_CHUNK = 4096


def _quad(f, a, b, splits, rel_tol, abs_tol, max_depth, stats):
    """Adaptive panel quadrature of the integrals j = 0..J-1 at once.

    Integral j runs over [a[j], b[j]] with forced breakpoints at the
    entries of splits[j] that lie strictly inside; f(x, j) evaluates
    integrand j[i] at the nodes x[i].  Live panels of all integrals are
    evaluated together, up to _CHUNK per call (Gander & Gautschi, BIT 40,
    2000, vectorised over panels).  A panel is accepted when
    err <= scale (hi-lo)/(b-a), scale = rel_tol |rough| + abs_tol[j] from
    the unrefined panels, or when it sits at max_depth; each panel is
    judged on its own, so the accepted set is the one a depth-first
    recursion finds.
    """
    inside = (splits > a[:, None]) & (splits < b[:, None])
    pts = np.sort(np.concatenate(
        [a[:, None], np.where(inside, splits, np.nan), b[:, None]], axis=1),
        axis=1)
    keep = pts[:, 1:] > pts[:, :-1]      # drops repeats and NaN padding
    job = np.nonzero(keep)[0]
    lo, hi = pts[:, :-1][keep], pts[:, 1:][keep]
    depth = np.zeros(job.size, dtype=int)
    val, err = np.empty(job.size), np.empty(job.size)
    for i in range(0, job.size, _CHUNK):
        part = slice(i, i + _CHUNK)
        val[part], err[part] = _panels(f, lo[part], hi[part], job[part])
    scale = rel_tol * np.abs(np.bincount(job, val, a.size)) + abs_tol
    width = b - a
    total = np.zeros(a.size)
    # last in, first out keeps at most ~max_depth chunks of children alive
    stack = [(lo, hi, job, depth, val, err)]
    while stack:
        item = stack.pop()
        if item[0].size > _CHUNK:
            stack.append(tuple(None if x is None else x[_CHUNK:]
                               for x in item))
            item = tuple(None if x is None else x[:_CHUNK] for x in item)
        lo, hi, job, depth, val, err = item
        if val is None:
            val, err = _panels(f, lo, hi, job)
        stats.panels += job.size
        good = err <= scale[job] * (hi - lo) / width[job]
        done = good | (depth >= max_depth)
        stats.depth_cap_hits += int(np.count_nonzero(done & ~good))
        total += np.bincount(job[done], val[done], a.size)
        split = ~done
        if split.any():
            lo, hi = lo[split], hi[split]
            mid = 0.5 * (lo + hi)
            stack.append((np.concatenate([lo, mid]),
                          np.concatenate([mid, hi]), np.tile(job[split], 2),
                          np.tile(depth[split] + 1, 2), None, None))
    return total


def _quad_to_inf(f, a, U0, splits, rel_tol, abs_tol, stats):
    """_quad over [a, U0], then at most 48 doubling tail panels [U, 2U]
    until the last one adds at most half the tolerance."""
    total = _quad(f, a, U0, splits, rel_tol, abs_tol, 14, stats)
    lo = U0.copy()
    live = np.arange(a.size)
    for _ in range(48):
        hi = 2.0 * lo[live]
        inc = _quad(lambda x, j, ids=live: f(x, ids[j]), lo[live], hi,
                    np.empty((live.size, 0)), rel_tol, abs_tol[live], 14,
                    stats)
        total[live] += inc
        lo[live] = hi
        live = live[np.abs(inc) > 0.5 * (rel_tol * np.abs(total[live])
                                         + abs_tol[live])]
        if not live.size:
            return total
    raise RuntimeError("tail of radial integral did not converge")


# ---------------------------------------------------------------------------
# angular reduction

def _angular_batch(r, F, G, F_int, splits, U0, rel_tol, abs_tol, stats):
    """3-D convolutions of radial functions at the radii r[j], one integral
    each.

    int F(|x-y|) G(|y|) dy = (2 pi / r) int_0^inf u G(u)
                              int_{|r-u|}^{r+u} z F(z) dz du,
    the spherical-coordinate substitution z^2 = r^2 + u^2 - 2ru cos(theta),
    with the inner integral F_int in closed form.  At r = 0 the reduction
    degenerates to the overlap integral 4 pi int u^2 F(u) G(u) du.

    F(z, j), G(u, j) and F_int(r, u, j) evaluate the functions of integral
    j (an index array broadcasting against z); splits, U0 and abs_tol hold
    one row or entry per integral.
    """
    near = r < 1e-9

    def integrand(u, j):
        out = np.empty_like(u)
        at0 = near[j[:, 0]]
        if at0.any():
            u0, j0 = u[at0], j[at0]
            out[at0] = 4.0 * math.pi * u0 * u0 * F(u0, j0) * G(u0, j0)
        off = ~at0
        if off.any():
            u1, j1 = u[off], j[off]
            r1 = r[j1]
            out[off] = (2.0 * math.pi / r1) * u1 * G(u1, j1) \
                * F_int(r1, u1, j1)
        return out

    U = np.where(near, U0, np.maximum(U0, 2.0 * r))
    return _quad_to_inf(integrand, np.zeros_like(r), U, splits, rel_tol,
                        abs_tol, stats)


# ---------------------------------------------------------------------------
# convolution cases

@dataclass(frozen=True)
class ConvCase:
    name: str
    green_pattern: WavePattern
    source_pattern: WavePattern
    claimed_bound: tuple
    speed: float = 2.0
    spatial_only: bool = False
    tau_cap: float = 1.0      # integrate tau over [0, tau_cap * t]


def make_cases(c: float) -> dict[str, ConvCase]:
    """Registry of the certified convolution estimates at sound speed c."""
    D = lambda a, p: WavePattern("D", a=a, p=p)
    H = lambda a, p: WavePattern("H", a=a, p=p, speed=c)
    alg = lambda r: WavePattern("algebraic", r_alg=r)
    cases = {
        "I1": ConvCase("I1", D(0.0, 1.0), alg(2.0), (D(0.0, 1.0),),
                       speed=c, spatial_only=True),
        "I2": ConvCase("I2", D(0.0, 1.5), alg(2.0), (D(0.0, 1.5),),
                       speed=c, spatial_only=True),
        "I3": ConvCase("I3", H(0.0, 8.0), alg(2.0), (H(0.0, 1.0),),
                       speed=c, spatial_only=True),
        "K1": ConvCase("K1", D(2.0, 2.0), D(3.0, 3.0),
                       (D(2.0, 1.5),), speed=c),
        "K2": ConvCase("K2", D(2.0, 2.0), H(4.0, 3.0),
                       (D(2.0, 1.5), H(2.0, 1.5)), speed=c),
        "K3": ConvCase("K3", H(2.5, 8.0), H(4.0, 3.0),
                       (D(2.0, 1.5), H(2.0, 1.5)), speed=c),
        "K4": ConvCase("K4", WavePattern("R4"), H(4.0, 2.0),
                       (WavePattern("R4"), H(1.5, 1.0)), speed=c),
        "K5": ConvCase("K5", D(1.5, 1.5), H(4.0, 2.0),
                       (D(1.5, 1.5), H(2.0, 1.0)), speed=c),
        "K6": ConvCase("K6", H(2.0, 2.0), D(3.0, 3.0),
                       (D(1.5, 1.5), H(2.0, 1.0)), speed=c),
        "K7": ConvCase("K7", H(2.0, 8.0), H(4.0, 2.0),
                       (D(1.5, 1.5), H(2.0, 1.0)), speed=c),
        "N12_log": ConvCase("N12_log", WavePattern("R4"), H(3.5, 2.0),
                            (WavePattern("R4"),), speed=c, tau_cap=0.5),
    }
    return cases


def bound_value(case: ConvCase, r: float, t: float) -> float:
    return float(sum(p.value(r, t) for p in case.claimed_bound))


def eval_spacetime_conv(case: ConvCase, r, t,
                        stats: QuadStats | None = None):
    """LHS of a convolution case at the space-time points (r, t).

    r and t broadcast against each other; every point is integrated in the
    same batch.  Scalar r and t give a float.  stats, when given,
    accumulates the panel counters of both quadrature levels.
    """
    r_arr, t_arr = np.broadcast_arrays(np.asarray(r, dtype=float),
                                       np.asarray(t, dtype=float))
    if not (np.isfinite(r_arr).all() and np.isfinite(t_arr).all()):
        raise ValueError("space-time points must be finite")
    stats = QuadStats() if stats is None else stats
    out = np.zeros(r_arr.shape)
    live = t_arr > 0.0
    r, t = r_arr[live], t_arr[live]
    g, s = case.green_pattern, case.source_pattern
    c = case.speed
    abs_tol = 1e-10 / (1.0 + t)
    U0 = np.maximum(64.0, r + c * t + 8.0 * np.sqrt(1.0 + t))

    def space_value(k, sg, ss):
        # one radial integral per (point k, Green time sg, source time ss)
        rk = r[k]
        splits = np.stack([c * ss, np.abs(rk - c * sg), rk + c * sg], axis=1)
        return _angular_batch(
            rk, lambda z, j: g.spatial(z, sg[j]),
            lambda u, j: s.spatial(u, ss[j]),
            lambda x, u, j: g.z_integral(x, u, sg[j]), splits, U0[k], 1e-7,
            abs_tol[k], stats)

    def tau_integrand(taus, j):
        # one radial integral per tau node of every live panel
        k = np.broadcast_to(j, taus.shape).ravel()
        tau = taus.ravel()
        sg = t[k] - tau
        pref = g.time_factor(sg) * s.time_factor(tau)
        return (pref * space_value(k, sg, tau)).reshape(taus.shape)

    if case.spatial_only:
        out[live] = space_value(np.arange(t.size), t, np.zeros_like(t))
    else:
        splits = np.stack([t / 4.0, t / 2.0, 3.0 * t / 4.0, r / c,
                           t - r / c], axis=1)
        out[live] = _quad(tau_integrand, np.zeros_like(t), case.tau_cap * t,
                          splits, 1e-5, abs_tol, 8, stats)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# case certification

def sample_radii(t: float, c: float) -> list[float]:
    w = math.sqrt(1.0 + t)
    raw = [0.0, w, c * t / 4.0, c * t / 2.0, c * t - w, c * t,
           c * t + w, 2.0 * c * t]
    out = []
    for r in raw:
        r = max(r, 0.0)
        if not any(abs(r - q) < 1e-9 for q in out):
            out.append(r)
    return out


# the largest decade of sample times at which K4 and I1 accept no panel at
# a depth cap (K4 at t = 1e4 accepts 33,867 of 295,838 there); far beyond
# it the pattern formulas overflow
T_MAX = 1e3


def verify_case(case: ConvCase, t_list=(4.0, 16.0, 64.0)) -> dict:
    """Certify one convolution estimate over the standard sample set.

    Returns the convolve.json record.  Its trend_ratio is the growth of
    the largest ratio over the final sampled decade; the earlier times
    serve as burn-in for the slowly saturating empirical constants.
    t_list needs at least two distinct times in [t_max/10, t_max], all in
    (0, T_MAX] (ValueError otherwise).  A quadrature that is not resolved
    (QuadStats.require_resolved) or a sample ratio that is not finite is a
    ParameterError.
    """
    # NaN fails the comparison too
    if not all(0.0 < t <= T_MAX for t in t_list):
        raise ValueError(f"times must lie in (0, {T_MAX:g}]")
    t_arr = np.array(sorted(set(t_list)))
    in_decade = t_arr >= max(t_list, default=0.0) / 10.0
    if np.count_nonzero(in_decade) < 2:
        raise ValueError("need at least two distinct sample times in the "
                         "final decade [t_max/10, t_max]")
    points = [(r, t) for t in t_arr for r in sample_radii(t, case.speed)]
    stats = QuadStats()
    lhs = eval_spacetime_conv(case, [r for r, _ in points],
                              [t for _, t in points], stats=stats)
    stats.require_resolved(f"convolution case {case.name}")
    samples = []
    for (r, t), val in zip(points, lhs):
        bound = bound_value(case, r, t)
        samples.append({"r": float(r), "t": float(t),
                        "region": region_tag(r, t, case.speed),
                        "lhs": float(val), "bound": float(bound),
                        "ratio": float(val / bound)})
    if not all(math.isfinite(row["ratio"]) for row in samples):
        raise ParameterError(f"convolution case {case.name}: a sample ratio "
                             "is not finite")

    by_region: dict[str, float] = {}
    for row in samples:
        by_region[row["region"]] = max(by_region.get(row["region"], 0.0),
                                       row["ratio"])
    max_per_t = np.array([max(row["ratio"] for row in samples
                              if row["t"] == t) for t in t_arr])
    return {"case": case.name, "samples": samples,
            "c_est_by_region": by_region,
            "trend_ratio": float(max_per_t[-1] / max_per_t[in_decade][0]),
            "quadrature": {"panels": stats.panels,
                           "depth_cap_hits": stats.depth_cap_hits,
                           "depth_cap_share": stats.depth_cap_share}}


def false_case(c: float) -> ConvCase:
    """K4's integrand against a bound missing the Riesz-IV term.

    The deficiency grows like (1+t)^{1/2}, and so does verify_case's
    trend_ratio.
    """
    k4 = make_cases(c)["K4"]
    H = WavePattern("H", a=2.0, p=1.0, speed=c)
    return replace(k4, name="K4_noR4",
                   claimed_bound=(WavePattern("D", a=1.5, p=1.5), H))


# ---------------------------------------------------------------------------
# logarithmic obstruction

def log_obstruction(t_list, c: float) -> dict:
    """Quantify the log growth of the unrefined pressure convolution.

    The Riesz-IV Green factor against a source with time exponent -7/2
    (one half power short of integrable) picks up ln(1+t) on top of the
    ansatz rate (1+t)^-1; the refined reformulation gains the extra
    (1+tau)^-1/2 and the scaled value stays bounded.  With three or more
    times, fit_slope and correlation fit n12_scaled against ln(1+t), and
    refined_saturation is the last over the first increment of n1_scaled
    (NaN otherwise).  A quadrature that is not resolved
    (QuadStats.require_resolved) is a ParameterError.
    """
    cases = make_cases(c)
    n12_case = cases["N12_log"]
    n1_case = replace(cases["K4"], name="N1")
    ts = np.array(sorted(t_list), dtype=float)
    stats = QuadStats()
    n12 = eval_spacetime_conv(n12_case, 0.0, ts, stats=stats)
    n1 = eval_spacetime_conv(n1_case, 0.0, ts, stats=stats)
    stats.require_resolved("log obstruction")
    rows = [{"t": float(t),
             "n12": float(a), "n12_scaled": float(a * (1 + t)),
             "n1": float(b), "n1_scaled": float(b * (1 + t))}
            for t, a, b in zip(ts, n12, n1)]
    x = np.array([math.log(1.0 + row["t"]) for row in rows])
    y = np.array([row["n12_scaled"] for row in rows])
    if len(rows) >= 3:
        slope = np.polyfit(x, y, 1)[0]
        corr = float(np.corrcoef(x, y)[0, 1])
        d1 = np.diff([row["n1_scaled"] for row in rows])
        saturation = d1[-1] / d1[0]
    else:
        slope = corr = saturation = float("nan")
    return {"rows": rows, "fit_slope": float(slope), "correlation": corr,
            "refined_saturation": float(saturation)}


# ---------------------------------------------------------------------------
# Riesz potential checks

def riesz_gradient(f, rs: np.ndarray) -> np.ndarray:
    """|grad (-Delta)^{-1} f| for radial f: (1/r^2) int_0^r s^2 f(s) ds."""
    rs = np.asarray(rs, dtype=float)
    x16, w16 = _GL16
    lows = np.concatenate([[0.0], rs[:-1]])
    half = 0.5 * (rs - lows)
    mid = 0.5 * (rs + lows)
    nodes = mid[:, None] + half[:, None] * x16[None, :]
    pieces = half * ((nodes ** 2 * f(nodes)) @ w16)
    cum = np.cumsum(pieces)
    out = np.zeros_like(rs)
    pos = rs > 0.0
    out[pos] = cum[pos] / rs[pos] ** 2
    return out


def _constants_report(t_list, Cs: list) -> dict:
    """Per-time constants C(t), their maximum, and their spread
    ratio = max / min."""
    return {"t_list": [float(t) for t in t_list], "C_by_t": Cs,
            "C_est": float(max(Cs)), "ratio": float(max(Cs) / min(Cs))}


def riesz_potential_check(f_pattern: WavePattern, t_list) -> dict:
    """Certify |grad (-Delta)^{-1} f| <= C (1+t)^{1/2} (1+r^2/(1+t))^{-1}."""
    if f_pattern.kind != "D" or f_pattern.p <= 1.5:
        raise ValueError("pattern must be D(0, r) with r > 3/2")
    Cs, sups = [], []
    for t in t_list:
        rs = np.linspace(1e-6, 60.0 * math.sqrt(1.0 + t), 400)
        g = riesz_gradient(lambda s: f_pattern.spatial(s, t), rs)
        bound = math.sqrt(1.0 + t) * (1.0 + rs ** 2 / (1.0 + t)) ** -1.0
        Cs.append(float((g / bound).max()))
        sups.append(float(g.max()))
    return {**_constants_report(t_list, Cs), "sup_by_t": sups}
