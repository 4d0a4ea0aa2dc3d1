"""Physical-space reconstruction of the linearized Green's function.

Each Green entry is a finite sum of radial profiles p(k, t) times one of
five tensor factors (scalar, +-i xi/|xi|, xi xi^T/|xi|^2, or its
complement).  The low-frequency part uses the leading-order spectral
decomposition (constant coefficient matrices times exponentials of the
exact eigenvalue branches, including the 1/k Riesz-singular coefficients);
the middle band is folded in with the exact semigroup under a smooth
rolloff.  All physical-space values come from 1-D radial quadratures; a 3-D
FFT of the same symbol serves as the regression oracle in the test suite.

The module also houses the envelope-certification drivers (the envelopes
themselves are waveconv.WavePattern decay patterns) and the double-Riesz
certificate, which all go through the one radial transform, _transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import EquilibriumState
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


# ---------------------------------------------------------------------------
# symbol decomposition

def coefficient_matrices(eq: EquilibriumState):
    """Leading-order coefficient matrices of the spectral decomposition.

    The symbol S(k, t) of the 4x4 compressible block satisfies, to leading
    order in k,
        S = MP * oscP + MM * oscM + (M3r + M3s/k) e^{lam3 t}
            + (M4r + M4s/k) e^{lam4 t},
    with oscP = e^{Re lam1 t} cos(Im lam1 t), oscM the sine counterpart.
    """
    b1, b2, b4 = eq.beta1, eq.beta2, eq.beta4
    c2 = b1 + b4
    R = eq.R_disc
    nup, num = eq.nu_plus, eq.nu_minus

    MP = np.array([
        [b1, 0.0, b2, 0.0],
        [0.0, b1, 0.0, b2],
        [b2, 0.0, b4, 0.0],
        [0.0, b2, 0.0, b4],
    ]) / c2
    MM = np.array([
        [0.0, -b1 / c2 ** 1.5, 0.0, -b2 / c2 ** 1.5],
        [b1 / c2 ** 0.5, 0.0, b2 / c2 ** 0.5, 0.0],
        [0.0, -b2 / c2 ** 1.5, 0.0, -b4 / c2 ** 1.5],
        [b2 / c2 ** 0.5, 0.0, b4 / c2 ** 0.5, 0.0],
    ])

    def diffusive(lt: float) -> np.ndarray:
        g = (b4 * nup + b1 * num) / c2
        return np.array([
            [b1 * b4 * (nup - num) / (c2 * R) - b4 * lt / R, 0.0,
             b2 * b4 * (nup - num) / (c2 * R) + b2 * lt / R, 0.0],
            [0.0, -b4 * g / R - b4 * lt / R, 0.0, b2 * g / R + b2 * lt / R],
            [b1 * b2 * (num - nup) / (c2 * R) + b2 * lt / R, 0.0,
             b1 * b4 * (num - nup) / (c2 * R) - b1 * lt / R, 0.0],
            [0.0, b2 * g / R + b2 * lt / R, 0.0, -b1 * g / R - b1 * lt / R],
        ])

    M3s = np.array([
        [0.0, -b4 / R, 0.0, b2 / R],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, b2 / R, 0.0, -b1 / R],
        [0.0, 0.0, 0.0, 0.0],
    ])
    M3r = diffusive(float(np.real(eq.lam4_tilde)))
    M4r = -diffusive(float(np.real(eq.lam3_tilde)))
    M4s = -M3s
    return MP, MM, M3r, M3s, M4r, M4s


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


def branch_lambdas(ks: np.ndarray, eq: EquilibriumState) -> np.ndarray:
    """Labeled eigenvalue branches on a k-grid, shape (nk, 4)."""
    ks = np.asarray(ks, dtype=float)
    raw = np.linalg.eigvals(spectral.symbol(ks, eq))
    return spectral._assign(raw, spectral.low_freq_expansion(ks, eq))


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
    so each block builds only its (P, nr) midpoint and (J, nr) reference
    tables: one product contracts over the reference nodes, one
    multiply-and-sum over the panels.
    """
    S = C = 0.0
    start = 0
    for g in rules:
        P, J = g.mid.size, g.x.size
        a = rows[:, start:start + P * J].reshape(-1, J)
        start += P * J
        xr = np.outer(g.half * g.x, r)
        A = (a @ np.concatenate([np.cos(xr), np.sin(xr)], axis=1))
        A = A.reshape(len(rows), P, 2, r.size)
        mr = np.outer(g.mid, r)
        sm, cm = np.sin(mr), np.cos(mr)
        S = S + (sm * A[:, :, 0] + cm * A[:, :, 1]).sum(axis=1)
        C = C + (cm * A[:, :, 0] - sm * A[:, :, 1]).sum(axis=1)
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

# the default grids give kernels exact to round-off up to this time at
# radii up to R_MAX_FACTOR c t; at t = 1000 they are off by 5.6e-5 of the
# maximum
T_MAX = 300.0
R_MAX_FACTOR = 4.0


class GreenReconstructor:
    """Evaluates band-limited Green entries on radial grids.

    Shares precomputed quadrature grids, branch eigenvalues, and the
    middle-band eigendecomposition across entries and times; all methods are
    read-only after construction, so no per-time state accumulates.
    """

    def __init__(self, eq: EquilibriumState,
                 low_panels: int = 64, low_nodes: int = 32,
                 mid_panels: int = 256, mid_nodes: int = 64):
        self.eq = eq
        # the low and middle grids as one quadrature of two blocks (their
        # half-widths differ), with their windows
        low = composite_gl(1e-10, ETA1, low_panels, low_nodes)
        mid = composite_gl(0.5 * ETA1, 1.2 * K_CUT, mid_panels, mid_nodes)
        self.rules = (low, mid)
        self.kl, self.km = low.nodes, mid.nodes
        self.chi_l = chi_low(self.kl)
        self.mu_m = self._mid_window(self.km)
        self.lam_l = branch_lambdas(self.kl, eq)
        self.k_all = np.concatenate([self.kl, self.km])
        self.window = np.concatenate([self.chi_l, self.mu_m])
        (self.MP, self.MM, self.M3r, self.M3s,
         self.M4r, self.M4s) = coefficient_matrices(eq)
        self.mid = spectral.decompose_symbol(self.km, eq)

    # -- profiles ----------------------------------------------------------

    def _mid_window(self, k):
        """Middle-band rolloff: the high cutoff minus the low-band cutoff."""
        return smooth_bump(k, K_CUT, 1.2 * K_CUT) - chi_low(k)

    def _leading_profile(self, i: int, j: int, k, lam, t: float):
        """Leading-order compressible profile of entry (i, j) at k.

        lam holds the labeled branch eigenvalues at k, shape (nk, 4).
        """
        a, b = i - 1, j - 1
        damp = np.exp(lam[:, 0].real * t)
        oscP = damp * np.cos(lam[:, 0].imag * t)
        oscM = damp * np.sin(lam[:, 0].imag * t)
        e3 = np.exp(lam[:, 2] * t).real
        e4 = np.exp(lam[:, 3] * t).real
        return (self.MP[a, b] * oscP + self.MM[a, b] * oscM
                + (self.M3r[a, b] + self.M3s[a, b] / k) * e3
                + (self.M4r[a, b] + self.M4s[a, b] / k) * e4)

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
            lam = branch_lambdas(kl, self.eq)
            out[low] += self._leading_profile(i, j, kl, lam, t) * chi_low(kl)

        mid = (flat > 0.5 * ETA1) & (flat < 1.2 * K_CUT)
        if mid.any():
            km = flat[mid]
            S = spectral.semigroup_batch(km, t, self.eq).real
            out[mid] += S[:, i - 1, j - 1] * self._mid_window(km)
        return out[inv].reshape(k.shape)

    # -- physical space ----------------------------------------------------

    def entry_profile(self, i: int, j: int, t: float):
        """(p, h): the windowed low+middle profile of entry (i, j) on k_all,
        and the windowed heat profile of the shear entries (2,2) and (4,4)
        (None for the others).  The low part is the leading-order
        decomposition, the middle part entry (i, j) of the exact semigroup."""
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
        factor, in the same transform pass.
        """
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        p, h = self.entry_profile(i, j, t)
        return _transform(tensor_kind(i, j), self.rules, p, rs, heat=h)

    def entry_magnitude(self, i: int, j: int, rs, t: float) -> np.ndarray:
        vals = self.entry_values(i, j, rs, t)
        if "amp" in vals:
            return np.abs(vals["amp"])
        return np.maximum(np.abs(vals["long"]), np.abs(vals["trans"]))


# ---------------------------------------------------------------------------
# envelope certification

@dataclass
class EnvelopeReport:
    entry: str
    C_by_region: dict
    C_est: float
    trend_ratio: float
    passed: bool
    growth_slope: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "entry": self.entry,
            "region": {k: float(v) for k, v in self.C_by_region.items()},
            "C_est": float(self.C_est),
            "trend_ratio": float(self.trend_ratio),
            "growth_slope": float(self.growth_slope),
            "pass": bool(self.passed),
        }


def _certify(name: str, magnitude, envelopes: list[WavePattern], c: float,
             t_lo: float = 1.0, t_hi: float = 100.0, n_t: int = 16,
             nr: int = 256) -> EnvelopeReport:
    """Shared driver: max |magnitude| / sum of envelopes over an (r,t) grid."""
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
    return EnvelopeReport(
        entry=name,
        C_by_region=C_by_region,
        C_est=float(C_slices_arr.max()),
        trend_ratio=trend,
        passed=trend <= 2.0,
        growth_slope=slope,
    )


def verify_entry_envelope(recon: GreenReconstructor, i: int, j: int,
                          envelopes: list[WavePattern],
                          **grid_kwargs) -> EnvelopeReport:
    """Certify |G_ij| against a sum of envelopes on the standard grid."""
    return _certify(
        f"G{i}{j}",
        lambda rs, t: recon.entry_magnitude(i, j, rs, t),
        envelopes, recon.eq.c, **grid_kwargs)


def verify_cancellation(recon: GreenReconstructor, swap_weights: bool = False,
                        **grid_kwargs) -> EnvelopeReport:
    """Certify the weighted combination of the two Riesz-IV entries.

    The combination rho_bar_minus * G12 + rho_bar_plus * G32 kills the 1/k
    singular parts and decays a half power of t faster than either entry.
    swap_weights deliberately exchanges the weights (the combination then
    keeps the Riesz-IV part and must fail).
    """
    eq = recon.eq
    w12, w32 = eq.rho_bar_minus, eq.rho_bar_plus
    if swap_weights:
        w12, w32 = w32, w12
    envelopes = [WavePattern("D", a=1.5, p=1.5),
                 WavePattern("H", a=2.0, p=2.0, speed=eq.c)]

    def magnitude(rs, t):
        # G12 and G32 carry the same factor: combine the profiles in k
        p = w12 * recon.entry_profile(1, 2, t)[0] \
            + w32 * recon.entry_profile(3, 2, t)[0]
        return np.abs(_transform(tensor_kind(1, 2), recon.rules, p, rs)["amp"])

    name = "combo_swapped" if swap_weights else "combo"
    return _certify(name, magnitude, envelopes, eq.c, **grid_kwargs)


def kernel_csv_rows(recon: GreenReconstructor, i: int, j: int,
                    t_list, r_max_factor: float = R_MAX_FACTOR,
                    nr: int = 256) -> list[dict]:
    rows = []
    for t in t_list:
        rs = np.linspace(0.0, r_max_factor * recon.eq.c * t, nr)
        vals = recon.entry_magnitude(i, j, rs, t)
        for r, v in zip(rs, vals):
            rows.append({"r": float(r), "t": float(t), "value": float(v)})
    return rows


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
