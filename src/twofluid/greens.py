"""Physical-space reconstruction of the linearized Green's function.

Each Green entry is a finite sum of radial profiles p(k, t) times one of
five tensor factors (scalar, +-i xi/|xi|, xi xi^T/|xi|^2, or its
complement).  The low-frequency part is the projectors' k-series
P_l(k) = P0_l + Pm1_l / k + O(k) (spectral.leading_projectors) times the
exponentials of the exact eigenvalue branches; the 1/k terms are the
Riesz-singular parts of the diffusive pair.  The middle band is folded in
with the exact semigroup under a smooth rolloff, one entry at a time from
a spectral.decompose_symbol built once per reconstructor.  All
physical-space values come from 1-D radial quadratures, at times with
c t up to CT_MAX; a 3-D FFT of the same symbol serves as the regression
oracle in the test suite.  The middle band's nodes per panel are read
from MID_NODES at the largest c t a reconstructor is built for (32 up to
c t = 200, within 1e-11 of each slice maximum of the 64 up to CT_MAX),
and entry_values refuses a positive radius that puts k r at the band
edge below KR_MIN, since the Riesz factors lose digits there.

The module also houses the envelope-certification drivers (the envelopes
themselves are waveconv.WavePattern decay patterns) and the double-Riesz
certificate, which all go through the one radial transform, _transform.
Each returns its strict-JSON record as a dict and carries no verdict: the
command line decides pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import EquilibriumState, ParameterError
from . import spectral
from .spectral import ETA1, K_CUT
from .waveconv import WavePattern, _constants_report, core_front_masks


# ---------------------------------------------------------------------------
# smooth band cutoffs

def _smooth_step(x):
    """C-infinity step: 0 for x<=0, 1 for x>=1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fa = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        fb = np.where(x < 1.0,
                      np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return fa / (fa + fb)


def smooth_bump(k, lo: float, hi: float):
    """1 on [0, lo], 0 on [hi, inf), smooth monotone transition between."""
    k = np.asarray(k, dtype=float)
    return _smooth_step((hi - k) / (hi - lo))


def chi_low(k):
    """Low-band cutoff: 1 on [0, ETA1/2], 0 beyond ETA1."""
    return smooth_bump(k, 0.5 * ETA1, ETA1)


def tensor_kind(i: int, j: int) -> str:
    """Tensor factor of entry (i, j) in the (n+, m+, n-, m-) block layout."""
    oi, oj = i % 2 == 1, j % 2 == 1
    if oi and oj:
        return "scalar"
    if oi and not oj:
        return "riesz_vector_t"
    if not oi and oj:
        return "riesz_vector"
    return "riesz_matrix"


# ---------------------------------------------------------------------------
# radial inverse transforms

@dataclass(frozen=True)
class PanelRule:
    """Composite Gauss-Legendre rule with equal panels.

    Node (p, j) is mid[p] + half * x[j]: the panel midpoint plus the common
    half-width times a reference node on [-1, 1].  nodes and weights hold
    the rule as built from the panel edges, which differ from that sum by
    at most one unit in the last place of the interval end.
    """
    nodes: np.ndarray     # (P*J,), panel-major
    weights: np.ndarray   # (P*J,)
    mid: np.ndarray       # (P,)
    half: float
    x: np.ndarray         # (J,)


def composite_gl(a: float, b: float, n_panels: int,
                 n_nodes: int) -> PanelRule:
    """Composite Gauss-Legendre rule on [a, b] with its panel structure."""
    x, w = leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return PanelRule(nodes, weights, mid, 0.5 * (b - a) / n_panels, x)


def _trig_sums(rules, rows, r):
    """Quadrature sums of rows against sin(kr) and cos(kr), each (R, nr).

    rows (R, nk) hold weighted profiles over the nodes of rules, block
    after block.  With k = m + h x, angle addition gives
        sin(kr) = sin(mr) cos(hxr) + cos(mr) sin(hxr),
        cos(kr) = cos(mr) cos(hxr) - sin(mr) sin(hxr),
    so each block builds only its (J, nr) reference table and, per chunk
    of 32 panels, the chunk's midpoint table: one product contracts over
    the reference nodes and einsum over the panels, and no (R, P, nr)
    product is formed.
    """
    S = C = 0.0
    start = 0
    for g in rules:
        P, J = g.mid.size, g.x.size
        a = rows[:, start:start + P * J].reshape(len(rows), P, J)
        start += P * J
        xr = np.outer(g.half * g.x, r)
        ref = np.concatenate([np.cos(xr), np.sin(xr)], axis=1)
        for p in range(0, P, 32):
            mr = np.outer(g.mid[p:p + 32], r)
            sm, cm = np.sin(mr), np.cos(mr)
            A = (a[:, p:p + 32] @ ref).reshape(len(rows), -1, 2, r.size)
            S = S + np.einsum("rpcn,cpn->rn", A, np.stack([sm, cm]))
            C = C + np.einsum("rpcn,cpn->rn", A, np.stack([cm, -sm]))
    return S, C


def _transform(factor: str, rules, p, rs, heat=None) -> dict:
    """Radial inverse transform of profile p times one tensor factor.

    p (and heat) live on the nodes of the PanelRules in rules, block after
    block.  Scalar and Riesz-vector factors give one amplitude "amp"; the
    Riesz matrix and its complement give the "long" and "trans"
    amplitudes.  A heat profile joins a riesz_matrix transform under the
    complement factor, as riesz_matrix(p - heat) + scalar(heat).  All
    profile rows share one pass of _trig_sums; radii r <= 0 take the r = 0
    limit.
    """
    if factor not in ("scalar", "riesz_vector", "riesz_vector_t",
                      "riesz_matrix", "complement"):
        raise ValueError(f"unknown factor {factor!r}")
    rs = np.asarray(rs, dtype=float)
    k = np.concatenate([g.nodes for g in rules])
    w = np.concatenate([g.weights for g in rules])
    q = p if heat is None else p - heat
    if factor == "scalar":
        rows = [q * k]
    elif factor.startswith("riesz_vector"):
        rows = [q, q * k]
    else:
        rows = [q * k, q / k, q]
    if heat is not None:
        rows.append(heat * k)
    pos = rs > 0.0
    r = rs[pos]
    S, C = _trig_sums(rules, w * np.array(rows), r)
    scale = 1.0 / (2.0 * math.pi ** 2)

    def radial(at_pos, at0):
        out = np.full(rs.shape, at0, dtype=np.result_type(q, float))
        out[pos] = scale * at_pos
        return out

    m2 = (w * k * k * q).sum()           # r -> 0 limit of int q k sin(kr)/r
    if factor == "scalar":
        return {"amp": radial(S[0] / r, scale * m2)}
    if factor.startswith("riesz_vector"):
        return {"amp": radial(C[1] / r - S[0] / r ** 2, 0.0)}
    s = radial(S[0] / r, scale * m2)
    long = radial(S[0] / r + 2.0 * C[2] / r ** 2 - 2.0 * S[1] / r ** 3,
                  scale * m2 / 3.0)
    trans = radial(S[1] / r ** 3 - C[2] / r ** 2, scale * m2 / 3.0)
    if factor == "complement":
        long, trans = s - long, s - trans
    if heat is not None:
        h = radial(S[3] / r, scale * (w * k * k * heat).sum())
        long, trans = long + h, trans + h
    return {"long": long, "trans": trans}


def radial_inverse(factor: str, fhat, rs, k_max: float = 40.0,
                   n_panels: int = 200) -> dict:
    """3-D inverse Fourier transform of fhat(|xi|) times one tensor factor.

    The amplitude dict of _transform at radii rs, on the 32-node composite
    Gauss-Legendre rule with n_panels equal panels on [1e-12, k_max]; the
    caller picks k_max large enough for the decay of fhat.
    """
    rule = composite_gl(1e-12, k_max, n_panels, 32)
    return _transform(factor, (rule,), fhat(rule.nodes), rs)


# ---------------------------------------------------------------------------
# full-entry reconstruction (low band + exact middle band)

# the largest c t any reconstructor is built for, at radii up to
# R_MAX_FACTOR c t; at c t = 2000 the 64-node grid is off by 5.6e-5 of the
# maximum
CT_MAX = 600.0
R_MAX_FACTOR = 4.0
# Gauss-Legendre nodes per middle panel by the largest c t they resolve:
# nodes go with the phase k r a panel spans, so up to c t = 200 the 32-node
# grid stays within 1e-11 of each slice maximum of the 64-node one
MID_NODES = ((200.0, 32), (CT_MAX, 64))
# the Riesz factors subtract terms of order 1/(k r)^2 and 1/(k r)^3 near
# the origin: below this k r at the band edge 1.2 K_CUT, G12 at t <= 0.1
# (where its profile fills the band) loses more than 1e-9 of its value
KR_MIN = 4e-3
# the envelope grid's last time
T_ENVELOPE = 100.0


def check_times(c: float, ts, ct_max: float) -> None:
    """ParameterError unless every t of ts has 0 < c t <= ct_max, the range
    a grid resolves at speed c (NaN fails the comparison too)."""
    for t in ts:
        if not 0.0 < c * t <= ct_max:
            raise ParameterError(
                f"time {t:g} outside (0, {ct_max / c:g}]: the Green's-"
                f"function grids resolve c t up to {ct_max:g} (c = {c:g})")


class GreenReconstructor:
    """Evaluates band-limited Green entries on radial grids.

    Shares precomputed quadrature grids, branch eigenvalues, and the
    middle-band symbol decomposition across entries and times; all methods
    are read-only after construction, so no per-time state accumulates.

    The middle band's nodes per panel come from MID_NODES at ct_max, the
    largest c t the reconstructor serves (at most CT_MAX, which gives the
    64-node grid); a time with c t > ct_max is a ParameterError, so a
    smaller grid is never used past the range it resolves.
    """

    def __init__(self, eq: EquilibriumState, low_panels: int = 64,
                 mid_panels: int = 256, ct_max: float = CT_MAX):
        mid_nodes = next((n for ct, n in MID_NODES if 0.0 < ct_max <= ct),
                         None)
        if mid_nodes is None:
            raise ParameterError(
                f"c t = {ct_max:g} (t = {ct_max / eq.c:g} at c = {eq.c:g}) "
                f"outside (0, {CT_MAX:g}], the range the Green's-function "
                "grids resolve")
        self.eq = eq
        self.ct_max = ct_max
        # the low and middle grids as one quadrature of two blocks (their
        # half-widths differ), with their windows
        low = composite_gl(1e-10, ETA1, low_panels, 32)
        mid = composite_gl(0.5 * ETA1, 1.2 * K_CUT, mid_panels, mid_nodes)
        self.rules = (low, mid)
        self.kl, self.km = low.nodes, mid.nodes
        self.chi_l = chi_low(self.kl)
        self.mu_m = self._mid_window(self.km)
        self.lam_l = spectral.branches(self.kl, eq)
        self.k_all = np.concatenate([self.kl, self.km])
        self.window = np.concatenate([self.chi_l, self.mu_m])
        self.P0, self.Pm1 = spectral.leading_projectors(eq)
        self.mid = spectral.decompose_symbol(self.km, eq)

    @property
    def grid(self) -> dict:
        """[panels, nodes per panel] of the low and middle rules, and the
        c t the middle rule is sized for."""
        low, mid = self.rules
        return {"low": [low.mid.size, low.x.size],
                "mid": [mid.mid.size, mid.x.size], "ct_max": self.ct_max}

    # -- profiles ----------------------------------------------------------

    def _mid_window(self, k):
        """Middle-band rolloff: the high cutoff minus the low-band cutoff."""
        return smooth_bump(k, K_CUT, 1.2 * K_CUT) - chi_low(k)

    def _leading_profile(self, i: int, j: int, k, lam, t: float):
        """Leading-order compressible profile of entry (i, j) at k:
        Re sum_l (P0_l + Pm1_l / k)[i, j] e^{lam_l t}, the projectors'
        k-series times the exact branch exponentials.

        lam holds the labeled branch eigenvalues at k, shape (nk, 4).
        """
        a, b = i - 1, j - 1
        spectral.check_growth(lam, t)
        coef = self.P0[:, a, b] + self.Pm1[:, a, b] / k[:, None]
        return (coef * np.exp(lam * t)).sum(axis=1).real

    def full_profile(self, i: int, j: int, k, t: float) -> np.ndarray:
        """Band-limited compressible profile at arbitrary k (oracle hook).

        Low part from the leading-order decomposition under chi_low, middle
        part from the exact semigroup under the rolloff, evaluated directly
        (no interpolation) at the requested wavenumbers.
        """
        k = np.asarray(k, dtype=float)
        # a 3-D grid repeats each |k| many times: evaluate once per value
        flat, inv = np.unique(k, return_inverse=True)
        out = np.zeros(flat.shape)

        low = flat <= ETA1
        if low.any():
            kl = np.maximum(flat[low], 1e-10)
            lam = spectral.branches(kl, self.eq)
            out[low] += self._leading_profile(i, j, kl, lam, t) * chi_low(kl)

        mid = (flat > 0.5 * ETA1) & (flat < 1.2 * K_CUT)
        if mid.any():
            km = flat[mid]
            G = spectral.decompose_symbol(km, self.eq).entry(i - 1, j - 1, t)
            out[mid] += G.real * self._mid_window(km)
        return out[inv].reshape(k.shape)

    # -- physical space ----------------------------------------------------

    def entry_profile(self, i: int, j: int, t: float):
        """(p, h): the windowed low+middle profile of entry (i, j) on k_all,
        and the windowed heat profile of the shear entries (2,2) and (4,4)
        (None for the others).  The low part is the leading-order
        decomposition, the middle part entry (i, j) of the exact semigroup.
        Every evaluated time passes here: the one check_times gate."""
        check_times(self.eq.c, [t], self.ct_max)
        low = self._leading_profile(i, j, self.kl, self.lam_l, t) * self.chi_l
        mid = self.mid.entry(i - 1, j - 1, t).real * self.mu_m
        p = np.concatenate([low, mid])
        h = None
        if tensor_kind(i, j) == "riesz_matrix" and i == j:
            nu1 = self.eq.nu1_plus if i == 2 else self.eq.nu1_minus
            h = np.exp(-nu1 * self.k_all ** 2 * t) * self.window
        return p, h

    def entry_values(self, i: int, j: int, rs, t: float) -> dict:
        """Band-limited entry (i, j) amplitudes at radii rs, time t.

        The shear entries add their heat profile under the complement
        factor, in the same transform pass.  A ValueError refuses a
        positive radius r with 1.2 K_CUT r < KR_MIN, where the Riesz
        factors lose digits near the origin.
        """
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        pos = rs[rs > 0.0]
        if pos.size and not 1.2 * K_CUT * pos.min() >= KR_MIN:
            raise ValueError(
                f"first radius {pos.min():g} below {KR_MIN / (1.2 * K_CUT):g}"
                f": k r at the band edge under {KR_MIN:g} loses digits near "
                "the origin")
        p, h = self.entry_profile(i, j, t)
        return _transform(tensor_kind(i, j), self.rules, p, rs, heat=h)

    def entry_magnitude(self, i: int, j: int, rs, t: float) -> np.ndarray:
        vals = self.entry_values(i, j, rs, t)
        if "amp" in vals:
            return np.abs(vals["amp"])
        return np.maximum(np.abs(vals["long"]), np.abs(vals["trans"]))


# ---------------------------------------------------------------------------
# envelope certification

def _certify(name: str, magnitude, envelopes: list[WavePattern], c: float,
             t_lo: float = 1.0, t_hi: float = T_ENVELOPE, n_t: int = 16,
             nr: int = 256) -> dict:
    """The envelope.json record of max |magnitude| / sum of envelopes over
    an (r,t) grid; trend_ratio is the late half of the t-grid's largest
    ratio over the early half's."""
    ts = np.logspace(math.log10(t_lo), math.log10(t_hi), n_t)
    C_by_region = {"core": 0.0, "front": 0.0, "elsewhere": 0.0}
    C_slices = []
    for t in ts:
        rs = np.linspace(0.0, R_MAX_FACTOR * c * t, nr)
        ratio = magnitude(rs, t) / sum(env.value(rs, t) for env in envelopes)
        C_slices.append(float(ratio.max()))
        # a point in both the core and the front counts in both
        core, front = core_front_masks(rs, t, c)
        other = ~(core | front)
        for mask, nm in ((core, "core"), (front, "front"),
                         (other, "elsewhere")):
            if mask.any():
                C_by_region[nm] = max(C_by_region[nm],
                                      float(ratio[mask].max()))
    C_slices_arr = np.array(C_slices)
    first = C_slices_arr[ts <= math.sqrt(t_lo * t_hi)]
    last = C_slices_arr[ts > math.sqrt(t_lo * t_hi)]
    trend = float(last.max() / first.max())
    slope = float(np.polyfit(np.log(1.0 + ts), np.log(C_slices_arr), 1)[0])
    return {"entry": name, "region": C_by_region,
            "C_est": float(C_slices_arr.max()), "trend_ratio": trend,
            "growth_slope": slope}


def default_envelopes(i: int, j: int, c: float) -> list[WavePattern]:
    """The envelope pair entry (i, j) is certified against: the Riesz-IV
    entries take the slow R4 term, the rest D(1.5, 1.5); both add the wave
    term H(2, 2) at speed c."""
    env_h = WavePattern("H", a=2.0, p=2.0, speed=c)
    if (i, j) in {(1, 2), (3, 2), (1, 4), (3, 4)}:
        return [WavePattern("R4"), env_h]
    return [WavePattern("D", a=1.5, p=1.5), env_h]


def verify_entry_envelope(recon: GreenReconstructor, i: int, j: int,
                          envelopes: list[WavePattern],
                          **grid_kwargs) -> dict:
    """Certify |G_ij| against a sum of envelopes on the standard grid; the
    record's grid is the reconstructor's quadrature."""
    return {**_certify(f"G{i}{j}",
                       lambda rs, t: recon.entry_magnitude(i, j, rs, t),
                       envelopes, recon.eq.c, **grid_kwargs),
            "grid": recon.grid}


def verify_cancellation(recon: GreenReconstructor,
                        swap_weights: bool = False) -> dict:
    """Certify the weighted combination of the two Riesz-IV entries.

    The combination rho_bar_minus * G12 + rho_bar_plus * G32 kills the 1/k
    singular parts and decays a half power of t faster than either entry.
    swap_weights deliberately exchanges the weights (the combination then
    keeps the Riesz-IV part, and its trend_ratio grows).
    """
    eq = recon.eq
    w12, w32 = eq.rho_bar_minus, eq.rho_bar_plus
    if swap_weights:
        w12, w32 = w32, w12
    # the combination has no Riesz-IV part: a generic entry's pair
    envelopes = default_envelopes(2, 2, eq.c)

    def magnitude(rs, t):
        # G12 and G32 carry the same factor: combine the profiles in k
        p = w12 * recon.entry_profile(1, 2, t)[0] \
            + w32 * recon.entry_profile(3, 2, t)[0]
        return np.abs(_transform(tensor_kind(1, 2), recon.rules, p, rs)["amp"])

    name = "combo_swapped" if swap_weights else "combo"
    return _certify(name, magnitude, envelopes, eq.c)


def kernel_table(recon: GreenReconstructor, i: int, j: int,
                 t_list, r_max_factor: float = R_MAX_FACTOR,
                 nr: int = 256) -> dict:
    """The kernel.csv table of |G_ij| on nr radii from 0 to r_max_factor
    c t at each distinct t of t_list, in the order given.

    entry_values refuses a first radius below its floor (ValueError) and
    entry_profile a time outside the reconstructor's range (ParameterError).
    """
    ts = list(dict.fromkeys(float(t) for t in t_list))
    # a time that entry_profile refuses may have no finite radii
    with np.errstate(invalid="ignore"):
        rs = [np.linspace(0.0, r_max_factor * recon.eq.c * t, nr) for t in ts]
    return {"r": np.concatenate(rs), "t": np.repeat(ts, nr),
            "value": np.concatenate([recon.entry_magnitude(i, j, r, t)
                                     for r, t in zip(rs, ts)])}


def double_riesz_check(t_list) -> dict:
    """Certify the double-Riesz bound on the heat-kernel family.

    grad div (-Delta)^{-1} f is the Riesz-matrix factor xi xi^T/|xi|^2
    applied to f-hat.  f with f-hat = e^{-k^2 (1+t)} satisfies the premise
    profile bounds; the output must stay under
    C (1+t)^{-3/2} (1+r^2/(1+t))^{-3/2}.
    """
    Cs = []
    for t in t_list:
        b = 1.0 + t
        rs = np.linspace(0.0, 30.0 * math.sqrt(b), 400)
        vals = radial_inverse("riesz_matrix", lambda k: np.exp(-k * k * b),
                              rs)
        amp = np.maximum(np.abs(vals["long"]), np.abs(vals["trans"]))
        bound = b ** -1.5 * (1.0 + rs ** 2 / b) ** -1.5
        Cs.append(float((amp / bound).max()))
    return _constants_report(t_list, Cs)
