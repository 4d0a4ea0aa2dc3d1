"""Fourier-symbol spectra of the compressible 4x4 block.

After the Hodge split the linear system reduces, per wavenumber magnitude k,
to a real 4x4 matrix A(k) acting on (n_plus, phi_plus, n_minus, phi_minus),
where phi is the scalar potential amplitude of the compressible momentum.
This module builds A(k), its characteristic quartic, exact eigenvalue
branches with spectral projectors, and the closed-form low- and
high-frequency expansions, plus the certified middle-band decay gap and the
dual-path semigroup (a per-k spectral sum, and a batched eigendecomposition
computed once per k-grid and applied per t).

Roots are labelled against a reference (the previous k of a sweep, or a
closed-form expansion) by the minimum-cost assignment of an L1 distance.
The assignment is a port of scipy's rectangular_lsap, Crouse's shortest
augmenting path (D. F. Crouse, IEEE TAES 52(4), 2016), so ties resolve as
scipy.optimize.linear_sum_assignment resolves them; the common case, where
every reference label has a distinct nearest root, skips it.  scipy is
imported only for expm on ill-conditioned modes.

The branch convention: lambda1/lambda2 are the sound pair (complex conjugate
with Im lambda1 >= 0 at small k), lambda3/lambda4 the diffusive pair with
|lambda3| <= |lambda4|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EquilibriumState

ComplexArray = np.ndarray

DEGENERACY_REL = 1e-6


# the low/middle/high frequency split (0, ETA1], (ETA1, K_CUT), [K_CUT, inf)
ETA1 = 0.1
K_CUT = 10.0


def band_of(k: float) -> str:
    if k <= ETA1:
        return "low"
    if k >= K_CUT:
        return "high"
    return "middle"


@dataclass(frozen=True)
class SpectralPoint:
    lambdas: ComplexArray          # shape (4,), branch-labeled
    projectors: ComplexArray | None  # shape (4,4,4) or None when degenerate
    degenerate_flag: bool
    band: str


def symbol(k, eq: EquilibriumState) -> np.ndarray:
    """The real 4x4 compressible symbol A(k), shape k.shape + (4, 4)."""
    p = eq.params
    k = np.asarray(k, dtype=float)
    A = np.zeros(k.shape + (4, 4))
    A[..., 0, 1] = -k
    A[..., 1, 0] = eq.beta1 * k + p.sigma_plus * k ** 3
    A[..., 1, 1] = -eq.nu_plus * k ** 2
    A[..., 1, 2] = eq.beta2 * k
    A[..., 2, 3] = -k
    A[..., 3, 0] = eq.beta3 * k
    A[..., 3, 2] = eq.beta4 * k + p.sigma_minus * k ** 3
    A[..., 3, 3] = -eq.nu_minus * k ** 2
    return A


def char_poly_coeffs(k: float, eq: EquilibriumState):
    """Coefficients (c3, c2, c1, c0) of lambda^4 + c3 l^3 + c2 l^2 + c1 l + c0."""
    p = eq.params
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    k8 = k4 * k4
    c3 = (eq.nu_plus + eq.nu_minus) * k2
    c2 = (eq.beta1 + eq.beta4) * k2 \
        + (p.sigma_plus + p.sigma_minus + eq.nu_plus * eq.nu_minus) * k4
    c1 = (eq.beta1 * eq.nu_minus + eq.beta4 * eq.nu_plus) * k4 \
        + (eq.nu_plus * p.sigma_minus + eq.nu_minus * p.sigma_plus) * k6
    c0 = (eq.beta1 * p.sigma_minus + eq.beta4 * p.sigma_plus) * k6 \
        + p.sigma_plus * p.sigma_minus * k8
    return (c3, c2, c1, c0)


def low_freq_expansion(k, eq: EquilibriumState) -> ComplexArray:
    """Leading closed-form eigenvalues for small k.

    Sound pair -b1 k^2 +- i c k (error O(k^3)); diffusive pair
    lam3_tilde k^2, lam4_tilde k^2 (error O(k^4)).  When the diffusive
    discriminant is negative the tilde rates are a complex-conjugate pair
    already, so the same formula covers that case.
    """
    k = np.asarray(k, dtype=float)
    k2 = k * k
    lam1 = -eq.b1 * k2 + 1j * eq.c * k
    lam2 = np.conj(lam1)
    lam3 = complex(eq.lam3_tilde) * k2
    lam4 = complex(eq.lam4_tilde) * k2
    return np.stack(np.broadcast_arrays(lam1, lam2, lam3, lam4), axis=-1)


def high_freq_expansion(k, eq: EquilibriumState) -> ComplexArray:
    """Leading eigenvalues for large k.

    The quartic factors, to leading order, into
    (lambda^2 + nu_plus k^2 lambda + sigma_plus k^4) *
    (lambda^2 + nu_minus k^2 lambda + sigma_minus k^4),
    giving per phase lambda = -(nu +- sqrt(nu^2 - 4 sigma))/2 * k^2.
    Returned order: [plus slow, plus fast, minus slow, minus fast].
    """
    k = np.asarray(k, dtype=float)
    k2 = k * k
    out = []
    for nu, sig in ((eq.nu_plus, eq.params.sigma_plus),
                    (eq.nu_minus, eq.params.sigma_minus)):
        root = np.sqrt(complex(nu * nu - 4.0 * sig))
        out.append(-(nu - root) / 2.0 * k2)
        out.append(-(nu + root) / 2.0 * k2)
    return np.stack(np.broadcast_arrays(*out), axis=-1)


def high_freq_rel_err(k: float, eq: EquilibriumState) -> np.ndarray:
    """Deviation of exact roots from the high-frequency formula.

    The formula's remainder is O(1) uniformly in k, so the deviation is
    normalized by the spectral scale max |lambda| (a per-root normalization
    would diverge-test the slow pair against its own O(1) remainder).
    """
    pt = eigen_branches(k, eq)
    approx = high_freq_expansion(k, eq)
    scale = np.abs(pt.lambdas).max()
    return np.array([np.min(np.abs(approx - lam)) / scale
                     for lam in pt.lambdas])


def _quartic_roots(k: float, eq: EquilibriumState) -> ComplexArray:
    """Companion-matrix roots with one Newton polish per root."""
    c3, c2, c1, c0 = char_poly_coeffs(k, eq)
    coeffs = np.array([1.0, c3, c2, c1, c0])
    roots = np.roots(coeffs)
    dcoeffs = np.array([4.0, 3.0 * c3, 2.0 * c2, c1])
    for _ in range(2):
        pv = np.polyval(coeffs, roots)
        dv = np.polyval(dcoeffs, roots)
        step = np.where(dv != 0.0, pv / np.where(dv == 0.0, 1.0, dv), 0.0)
        roots = roots - step
    return roots


def _lsap(cost: list[list[float]]) -> list[int]:
    """Column of each row in the minimum-cost assignment of a square cost.

    scipy's rectangular_lsap step for step (the reversed remaining order
    with swap-removal, the tie rule that prefers an unassigned column, the
    dual updates in the same order), so the result is the column vector
    linear_sum_assignment returns.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        # shortest augmenting path from row cur
        min_val = 0.0
        # reversed, so that a constant cost gives the identity
        remaining = list(range(n - 1, -1, -1))
        in_sr = [False] * n
        in_sc = [False] * n
        dist = [math.inf] * n
        i = cur
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            in_sr[i] = True
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                if dist[j] < lowest or (dist[j] == lowest
                                        and row4col[j] == -1):
                    lowest = dist[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual variables
        u[cur] += min_val
        for i in range(n):
            if in_sr[i] and i != cur:
                u[i] += min_val - dist[col4row[i]]
        for j in range(n):
            if in_sc[j]:
                v[j] -= min_val - dist[j]
        # augment along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _assign(roots: ComplexArray, reference: ComplexArray) -> ComplexArray:
    """Permute roots to minimize total distance to the reference labels.

    roots and reference have shape (..., 4); each (4,) row is labelled on
    its own.  Where every reference label has a strict unique nearest root
    and those roots are distinct, the shortest augmenting path finds each
    sink at once and leaves the column duals at exactly 0, so it returns
    the row argmins; only the other rows run _lsap.
    """
    cost = np.abs(roots[..., None, :] - reference[..., :, None])
    flat = cost.reshape(-1, 4, 4)
    ranked = np.sort(flat, axis=-1)
    if np.isnan(ranked[..., -1]).any():   # sort puts NaN last
        raise ValueError("cost matrix contains invalid numeric entries")
    cols = flat.argmin(axis=-1)
    # a row sets bit cols only if its minimum is strict; the four bits add
    # up to 0b1111 only if every row sets one and no two share a column
    direct = ((ranked[..., 0] < ranked[..., 1]) << cols).sum(axis=-1) \
        == 0b1111
    if not direct.all():
        for b in np.flatnonzero(~direct):
            cols[b] = _lsap(flat[b].tolist())
    return np.take_along_axis(roots, cols.reshape(roots.shape), axis=-1)


def _heuristic_label(roots: ComplexArray) -> ComplexArray:
    """Label with no reference: conjugate pair first, then by magnitude."""
    imag = np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots))
    osc = roots[imag]
    real = roots[~imag]
    if len(osc) == 2:
        osc = osc[np.argsort(-osc.imag)]
        real = real[np.argsort(np.abs(real))]
        return np.concatenate([osc, real])
    if len(osc) == 4:
        # two conjugate pairs: sound pair has the larger |Im|
        order = np.argsort(-np.abs(osc.imag))
        osc = osc[order]
        pair1 = osc[:2][np.argsort(-osc[:2].imag)]
        pair2 = osc[2:][np.argsort(-osc[2:].imag)]
        return np.concatenate([pair1, pair2])
    # all real: sound pair became overdamped; order everything by magnitude
    return roots[np.argsort(np.abs(roots))]


def _labelled_roots(k: float, eq: EquilibriumState,
                    prev: ComplexArray | None):
    """Branch-labelled roots at k, their smallest gap and the degenerate flag.

    prev holds the labels at the previous k of a sweep, or None to label
    against the band's closed-form expansion (by a heuristic in the middle
    band).
    """
    if k == 0.0:
        return np.zeros(4, dtype=complex), 0.0, True
    roots = _quartic_roots(k, eq)
    band = band_of(k)
    if prev is not None:
        lams = _assign(roots, prev)
    elif band == "low":
        lams = _assign(roots, low_freq_expansion(k, eq))
    elif band == "high":
        lams = _assign(roots, high_freq_expansion(k, eq))
    else:
        lams = _heuristic_label(roots)

    max_abs = np.abs(lams).max()
    gaps = np.abs(lams[:, None] - lams[None, :])
    np.fill_diagonal(gaps, np.inf)
    gap = gaps.min()
    return lams, gap, bool(gap < DEGENERACY_REL * (1.0 + max_abs))


def eigen_branches(k: float, eq: EquilibriumState,
                   prev: SpectralPoint | None = None,
                   force_projectors: bool = False) -> SpectralPoint:
    """Exact eigenvalues, branch labels, and spectral projectors at one k.

    The degenerate flag marks points where the semigroup should switch to
    scaling-and-squaring; force_projectors still builds the (possibly
    ill-conditioned) projectors there, which diagnostic code wants at very
    small k where the diffusive pair gap closes like k^2.
    """
    k = float(k)
    lams, gap, degenerate = _labelled_roots(
        k, eq, None if prev is None else prev.lambdas)

    projectors = None
    if not degenerate or (force_projectors and gap > 0.0):
        A = symbol(k, eq).astype(complex)
        I = np.eye(4, dtype=complex)
        projectors = np.empty((4, 4, 4), dtype=complex)
        for i in range(4):
            P = I
            for j in range(4):
                if j == i:
                    continue
                P = P @ (A - lams[j] * I) / (lams[i] - lams[j])
            projectors[i] = P
    return SpectralPoint(lambdas=lams, projectors=projectors,
                         degenerate_flag=degenerate, band=band_of(k))


def singular_projector_coeffs(eq: EquilibriumState, k: float):
    """1/k coefficients of the diffusive projectors P3, P4 near k.

    Entries of P3/P4 in columns 2 and 4 blow up like a/k; the coefficient a
    is extracted by a two-point fit at k and k/2 (which cancels the regular
    part).  Returns a pair of 4x4 complex coefficient matrices.
    """
    P = {}
    for kk in (k, 0.5 * k):
        pt = eigen_branches(kk, eq, force_projectors=True)
        if pt.projectors is None:
            raise RuntimeError("projectors unavailable (exact degeneracy)")
        P[kk] = pt.projectors
    scale = 1.0 / (2.0 / k - 1.0 / k)
    a3 = (P[0.5 * k][2] - P[k][2]) * scale
    a4 = (P[0.5 * k][3] - P[k][3]) * scale
    return a3, a4


def singular_combination_residual(eq: EquilibriumState, k: float) -> float:
    """Relative size of the beta-weighted combination of 1/k coefficients.

    The combination beta1 * (row 1) + beta2 * (row 3) of P3 and P4 must kill
    the 1/k singularities in columns 2 and 4; returns the worst ratio of the
    combined coefficient to the sum of the individual magnitudes.
    """
    worst = 0.0
    for a in singular_projector_coeffs(eq, k):
        comb = eq.beta1 * a[0] + eq.beta2 * a[2]
        denom = np.abs(eq.beta1 * a[0]) + np.abs(eq.beta2 * a[2])
        for col in (1, 3):
            worst = max(worst, float(np.abs(comb[col]) / denom[col]))
    return worst


def mid_band_gap(eq: EquilibriumState, n_grid: int = 2000) -> float:
    """Certified uniform decay rate on the middle band.

    Samples max Re lambda on a uniform k-grid over [ETA1, K_CUT] and refines
    three times around the grid maximum; returns b_mid = -max > 0 or raises.
    """
    lo, hi, n = ETA1, K_CUT, n_grid
    best = -np.inf
    for _ in range(4):
        ks = np.linspace(lo, hi, n)
        vals = np.linalg.eigvals(symbol(ks, eq)).real.max(axis=1)
        j = int(np.argmax(vals))
        best = max(best, vals[j])
        # refine on the two grid cells around the maximum
        lo, hi, n = ks[max(j - 1, 0)], ks[min(j + 1, n - 1)], 64
    b_mid = -float(best)
    if b_mid <= 0.0:
        raise RuntimeError("middle-band spectral gap is not positive")
    return b_mid


def _expm(M: np.ndarray) -> np.ndarray:
    """scipy's scaling-and-squaring e^M, imported on first use only."""
    from scipy.linalg import expm
    return expm(M)


def semigroup(k: float, t: float, eq: EquilibriumState) -> ComplexArray:
    """e^{t A(k)} by the spectral sum, or scaling-and-squaring near degeneracy.

    A(0) is the zero matrix, so k = 0 gives the identity exactly.
    """
    if k == 0.0:
        return np.eye(4, dtype=complex)
    sp = eigen_branches(k, eq)
    if sp.degenerate_flag:
        return _expm(t * symbol(k, eq)).astype(complex)
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        out += np.exp(sp.lambdas[i] * t) * sp.projectors[i]
    return out


@dataclass(frozen=True)
class SymbolDecomposition:
    """The t-independent part of e^{t A(k)} on a k-grid.

    A = V diag(lam) V^-1 except on the modes in bad (an eigenvector matrix
    whose 1-norm condition number exceeds 1e8); those keep their symbols
    A_bad for scaling-and-squaring.  k = 0 has A = 0: lam = 0 and V = I.
    """

    lam: ComplexArray        # (nk, 4)
    V: ComplexArray          # (nk, 4, 4)
    V_inv: ComplexArray      # (nk, 4, 4)
    bad: np.ndarray          # indices of the expm modes
    A_bad: np.ndarray        # (len(bad), 4, 4)

    def semigroup(self, t: float) -> ComplexArray:
        """e^{t A(k)} on the grid, shape (nk, 4, 4)."""
        out = (self.V * np.exp(self.lam * t)[:, None, :]) @ self.V_inv
        for idx, A in zip(self.bad, self.A_bad):
            out[idx] = _expm(t * A)
        return out

    def entry(self, i: int, j: int, t: float) -> ComplexArray:
        """Entry (i, j) of e^{t A(k)} on the grid, shape (nk,), without the
        full product."""
        out = (self.V[:, i, :] * np.exp(self.lam * t)
               * self.V_inv[:, :, j]).sum(axis=1)
        for idx, A in zip(self.bad, self.A_bad):
            out[idx] = _expm(t * A)[i, j]
        return out


def decompose_symbol(ks: np.ndarray,
                     eq: EquilibriumState) -> SymbolDecomposition:
    """Batched eigendecomposition of A(k) and its conditioning test."""
    ks = np.asarray(ks, dtype=float)
    A = symbol(ks, eq)
    lam, V = np.linalg.eig(A)
    zero = ks == 0.0
    lam[zero] = 0.0
    V[zero] = np.eye(4)
    V_inv = np.linalg.inv(V)
    V_inv[zero] = np.eye(4)
    # within a factor 4 of the 2-norm condition number for 4x4 matrices
    cond = np.abs(V).sum(axis=1).max(axis=1) \
        * np.abs(V_inv).sum(axis=1).max(axis=1)
    bad = np.nonzero(~np.isfinite(cond) | (cond > 1e8))[0]
    return SymbolDecomposition(lam, V, V_inv, bad, A[bad])


def semigroup_batch(ks: np.ndarray, t: float,
                    eq: EquilibriumState) -> ComplexArray:
    """e^{t A(k)} for a grid of k at once, shape (nk, 4, 4).

    Callers that need many times on one grid keep decompose_symbol's result.
    """
    return decompose_symbol(ks, eq).semigroup(t)


def spectrum_rows(eq: EquilibriumState, k_grid: np.ndarray) -> list[dict]:
    """Continuity-chained sweep producing one report row per k.

    The rows need only the labelled roots, so the projectors
    eigen_branches would build are skipped.
    """
    rows = []
    prev = None
    for k in k_grid:
        band = band_of(float(k))
        lams, _, degenerate = _labelled_roots(float(k), eq, prev)
        if not degenerate:
            prev = lams
        if band == "low":
            errs = np.abs(lams - low_freq_expansion(k, eq))
        elif band == "high":
            ref = _assign(high_freq_expansion(k, eq), lams)
            errs = np.abs(lams - ref)
        else:
            errs = np.full(4, np.nan)
        row = {"k": float(k), "band": band, "degenerate": int(degenerate)}
        for i in range(4):
            row[f"re_lambda{i+1}"] = float(lams[i].real)
            row[f"im_lambda{i+1}"] = float(lams[i].imag)
        for i in range(4):
            row[f"expansion_err{i+1}"] = float(errs[i])
        rows.append(row)
    return rows
