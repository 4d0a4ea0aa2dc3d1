"""Fourier-symbol spectra of the compressible 4x4 block.

After the Hodge split the linear system reduces, per wavenumber magnitude k,
to a real 4x4 matrix A(k) acting on (n_plus, phi_plus, n_minus, phi_minus),
where phi is the scalar potential amplitude of the compressible momentum.
This module builds A(k), its characteristic quartic, the labelled
eigenvalue branches and their projectors, the closed-form low- and
high-frequency expansions, the low band as the projectors' k-series
P0 + Pm1/k (leading_projectors), the certified middle-band decay gap, and
the semigroup e^{tA(k)} from a decomposition of a k-grid
(decompose_symbol, its one entry), built once and applied per t.  Every
eigenvalue is a Newton-polished root of the quartic (_quartic_roots), which
holds the diffusive pair lambda3,4 ~ lambda3,4_tilde k^2 to relative
round-off at small k.
Projectors and semigroup use closed-form eigenvectors (see _right and
_left): no eigenvector matrix is formed or inverted.  scipy is imported
only for expm on ill-conditioned modes.

Roots are labelled against a reference (the previous k of a sweep, or a
closed-form expansion) by the assignment of least total squared distance
|root - ref|^2, found among all 24 permutations (_assign_cols).  Both sides
are sorted by decreasing Re, then decreasing Im, and totals within TIE_REL
of the least are tied; the first tied permutation of the sorted sides, in
lexicographic order, wins.  So no root order from eigvals changes a label,
and a tie has one stated outcome: where a conjugate reference pair meets
two real roots (it is equidistant from both), the member with Im > 0 takes
the real root with the larger Re, the slower decay.  This holds for the
sound pair past its exceptional point and for the diffusive pair alike.

The branch convention: lambda1/lambda2 are the sound pair (complex conjugate
with Im lambda1 >= 0 at small k), lambda3/lambda4 the diffusive pair with
|lambda3| <= |lambda4|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import EquilibriumState, ParameterError

ComplexArray = np.ndarray

DEGENERACY_REL = 1e-6


# exp(x) is finite for every x up to this
_EXP_MAX = math.log(np.finfo(float).max)


# the low/middle/high frequency split (0, ETA1], (ETA1, K_CUT), [K_CUT, inf)
ETA1 = 0.1
K_CUT = 10.0


def band_of(k) -> np.ndarray:
    """"low", "middle" or "high" for each k, an array of k's shape."""
    return np.where(k <= ETA1, "low", np.where(k >= K_CUT, "high", "middle"))


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
    """Deviation of each exact root from the nearest root of the
    high-frequency formula, in no branch order.

    The formula's remainder is O(1) uniformly in k, so the deviation is
    normalized by the spectral scale max |lambda| (a per-root normalization
    would diverge-test the slow pair against its own O(1) remainder).
    """
    roots = _quartic_roots(k, eq)[0]
    approx = high_freq_expansion(k, eq)
    return np.abs(approx - roots[:, None]).min(axis=1) / np.abs(roots).max()


def _horner(coeffs, x):
    """np.polyval(coeffs, x) row by row: coeffs holds scalars or (n, 1)
    columns and x has shape (n, m); the same Horner steps in the same
    order."""
    y = np.zeros_like(x)
    for c in coeffs:
        y = y * x + c
    return y


def _newton_polish(roots, c):
    """Two Newton steps on each root of lambda^4 + c3 l^3 + ... + c0.

    roots has shape (n, 4) and c shape (n, 4), one (c3, c2, c1, c0) row
    per quartic.  A step that is not finite is skipped: below k ~ 1e-77
    the polynomial's terms underflow, and pv / dv can overflow.
    """
    c3, c2, c1, c0 = (c[:, j:j + 1] for j in range(4))
    coeffs = (1.0, c3, c2, c1, c0)
    dcoeffs = (4.0, 3.0 * c3, 2.0 * c2, c1)
    for _ in range(2):
        with np.errstate(over="ignore", invalid="ignore"):
            pv = _horner(coeffs, roots)
            dv = _horner(dcoeffs, roots)
            step = np.where(dv != 0.0, pv / np.where(dv == 0.0, 1.0, dv),
                            0.0)
        roots = roots - np.where(np.isfinite(step), step, 0.0)
    return roots


def _quartic_roots(ks, eq: EquilibriumState) -> ComplexArray:
    """Companion-matrix roots with two Newton polishes at each k of a scalar
    or 1-D ks, shape (nk, 4).

    np.roots per k, batched: like np.roots, a quartic whose z trailing
    coefficients are zero (they underflow at tiny k) gives the eigenvalues
    of its (4 - z) x (4 - z) companion matrix followed by z zero roots.
    All companions of one size go through one np.linalg.eigvals call.  A
    quartic whose roots are all real is polished in real arithmetic, as
    np.roots' real result would be, so every root is bitwise the per-k
    one.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    c = np.stack(char_poly_coeffs(ks, eq), axis=-1)
    size = (np.arange(1, 5) * (c != 0.0)).max(axis=-1)
    roots = np.zeros((ks.size, 4), dtype=complex)
    real = np.ones(ks.size, dtype=bool)
    for n in set(size.tolist()) - {0}:
        rows = size == n
        companion = np.zeros((rows.sum(), n, n))
        companion[:, 0, :] = -c[rows, :n]
        companion[:, range(1, n), range(n - 1)] = 1.0
        w = np.linalg.eigvals(companion)
        roots[rows, :n] = w
        real[rows] = (w.imag == 0.0).all(axis=-1)
    if real.any():
        roots[real] = _newton_polish(roots[real].real, c[real])
    if not real.all():
        roots[~real] = _newton_polish(roots[~real], c[~real])
    return roots


# the 24 assignments of four roots to four labels, in lexicographic order
_PERMS = np.array(list(itertools.permutations(range(4))))
# assignment totals within this relative distance of the least are tied:
# a four-term sum rounds differently by summation order
TIE_REL = 1e-14
# rows per _assign_cols call of a sweep: its (rows, 24, 4) cost array stays
# at 48 MiB however many k the sweep takes
LABEL_CHUNK = 65_536


def _assign_cols(roots: ComplexArray, reference: ComplexArray) -> np.ndarray:
    """The root each reference label takes in the assignment of least total
    squared distance, as an index into the last axis of roots.

    roots and reference have shape (..., 4); each (4,) row is labelled on
    its own.  Both sides are sorted by decreasing Re, then decreasing Im,
    and of the tied assignments the first in lexicographic order of that
    sorted form wins, so no input order can change a label.
    """
    r_ord = np.lexsort((-roots.imag, -roots.real))
    f_ord = np.lexsort((-reference.imag, -reference.real))
    d = np.take_along_axis(roots, r_ord, axis=-1)[..., None, :] \
        - np.take_along_axis(reference, f_ord, axis=-1)[..., :, None]
    totals = (d.real ** 2 + d.imag ** 2)[..., range(4), _PERMS].sum(axis=-1)
    if np.isnan(totals).any():
        raise ValueError("cost matrix contains invalid numeric entries")
    best = totals.min(axis=-1, keepdims=True)
    first = np.argmax(totals <= best * (1.0 + TIE_REL), axis=-1)
    cols = np.empty(roots.shape, dtype=np.intp)
    np.put_along_axis(
        cols, f_ord, np.take_along_axis(r_ord, _PERMS[first], axis=-1),
        axis=-1)
    return cols


def _assign(roots: ComplexArray, reference: ComplexArray) -> ComplexArray:
    """Permute roots to the least total squared distance to the reference
    labels (see _assign_cols)."""
    return np.take_along_axis(roots, _assign_cols(roots, reference), axis=-1)


def _heuristic_order(roots: ComplexArray) -> np.ndarray:
    """Labels with no reference, as an index order of the (4,) roots:
    conjugate pair first, then by magnitude."""
    imag = np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots))
    osc = np.flatnonzero(imag)
    real = np.flatnonzero(~imag)
    if len(osc) == 2:
        return np.concatenate([osc[np.argsort(-roots[osc].imag)],
                               real[np.argsort(np.abs(roots[real]))]])
    if len(osc) == 4:
        # two conjugate pairs: sound pair has the larger |Im|
        osc = osc[np.argsort(-np.abs(roots[osc].imag))]
        pair1 = osc[:2][np.argsort(-roots[osc[:2]].imag)]
        pair2 = osc[2:][np.argsort(-roots[osc[2:]].imag)]
        return np.concatenate([pair1, pair2])
    # all real: sound pair became overdamped; order everything by magnitude
    return np.argsort(np.abs(roots))


def _first_cols(ks: np.ndarray, roots: ComplexArray,
                eq: EquilibriumState) -> np.ndarray:
    """Label order of (nk, 4) roots with no previous k: against the band's
    closed-form expansion, by a heuristic in the middle band."""
    cols = np.empty(roots.shape, dtype=int)
    low, high = ks <= ETA1, ks >= K_CUT
    for rows, expansion in ((low, low_freq_expansion),
                            (high, high_freq_expansion)):
        if rows.any():
            cols[rows] = _assign_cols(roots[rows], expansion(ks[rows], eq))
    for i in np.flatnonzero(~(low | high)):
        cols[i] = _heuristic_order(roots[i])
    return cols


def _degenerate(roots: ComplexArray) -> np.ndarray:
    """Whether two roots of a (..., 4) row lie within DEGENERACY_REL
    (1 + max |root|) of each other; no order of the roots changes it."""
    gaps = np.abs(roots[..., :, None] - roots[..., None, :])
    gaps[..., range(4), range(4)] = np.inf
    return gaps.min(axis=(-2, -1)) \
        < DEGENERACY_REL * (1.0 + np.abs(roots).max(axis=-1))


def branches(ks, eq: EquilibriumState) -> ComplexArray:
    """Branch-labelled eigenvalues of A(k) at each k of a scalar or 1-D ks,
    shape (nk, 4): the polished quartic roots, labelled against the band's
    closed-form expansion (by a heuristic in the middle band).  k = 0 gives
    four zeros."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    roots = _quartic_roots(ks, eq)
    return np.take_along_axis(roots, _first_cols(ks, roots, eq), axis=-1)


def projectors(ks, lam, eq: EquilibriumState) -> ComplexArray:
    """Spectral projectors v_l w_l^T / (w_l^T v_l) at the eigenvalues lam
    (nk, 4) of A(k), ks scalar or 1-D; shape (nk, 4, 4, 4), [n, l] that of
    lam[n, l].  Ill-conditioned at near-coincident roots (the diffusive
    pair's gap closes like k^2); not finite, without numpy's warnings, at a
    double root (w^T v = 0) or an overflow."""
    k = np.atleast_1d(np.asarray(ks, dtype=float))[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v, w = _vectors(k, lam, _q_plus(k, lam, eq), eq)
        w = w / (v * w).sum(axis=-2, keepdims=True)
        return np.einsum("nil,njl->nlij", v, w)


# the projectors' k-series must meet projectors at k = ETA1/2 to this
# relative miss, or the low band it describes is not asymptotic
SERIES_MISS_MAX = 0.25


def leading_projectors(eq: EquilibriumState):
    """(P0, Pm1), each (4, 4, 4) with [l, i, j]: the Laurent series
    P_l(k) = Pm1_l / k + P0_l + O(k) of the projectors at k = 0 (Kato,
    Perturbation Theory for Linear Operators, 1966, ch. II).

    _right and _left are k^3 (x0 + k x1 + ...) on a branch.  The sound
    pair, lam = s k + O(k^2) with s = +-ic, gives v0 = (b2, -s b2, b4,
    -s b4) and w0 = (-s b3, b3, -s b4, b4): P0 = v0 w0^T / (w0.v0), Pm1 =
    0.  The diffusive pair, lam = L k^2 + O(k^4) with L = lam3,4_tilde,
    gives v0 = (b2, 0, -b1, 0), v1 = (0, -b2 L, 0, b1 L), w0 = (0, b3, 0,
    -b1) and w1 = (-b3 (L + nu+), 0, b1 (L + nu-), 0); w^T v holds odd
    powers of k only, so with d = w0.v1 + w1.v0 (= -+b1 sqrt(disc)),
    Pm1 = v0 w0^T / d and P0 = (v0 w1^T + v1 w0^T) / d.  At disc < 0 the
    pair comes out conjugate.  A double diffusive root (d = 0), or a
    series that misses projectors at k = ETA1/2 by more than
    SERIES_MISS_MAX of max(1, |P|) or by a value that is not finite, is a
    ParameterError.
    """
    b1, b2, b3, b4 = eq.beta1, eq.beta2, eq.beta3, eq.beta4
    P0 = np.zeros((4, 4, 4), dtype=complex)
    Pm1 = np.zeros_like(P0)
    k = 0.5 * ETA1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for l, s in enumerate((1j * eq.c, -1j * eq.c)):
            v0 = np.array([b2, -s * b2, b4, -s * b4])
            w0 = np.array([-s * b3, b3, -s * b4, b4])
            P0[l] = np.outer(v0, w0) / (w0 @ v0)
        for l, L in enumerate((eq.lam3_tilde, eq.lam4_tilde), start=2):
            L = complex(L)
            v0 = np.array([b2, 0.0, -b1, 0.0])
            v1 = np.array([0.0, -b2 * L, 0.0, b1 * L])
            w0 = np.array([0.0, b3, 0.0, -b1])
            w1 = np.array([-b3 * (L + eq.nu_plus), 0.0,
                           b1 * (L + eq.nu_minus), 0.0])
            d = w0 @ v1 + w1 @ v0
            if d == 0.0:
                raise ParameterError("the diffusive pair is a double root "
                                     "at k = 0: its projectors have no "
                                     "series at these parameters")
            Pm1[l] = np.outer(v0, w0) / d
            P0[l] = (np.outer(v0, w1) + np.outer(v1, w0)) / d
        exact = projectors(k, branches(k, eq), eq)[0]
        miss = np.abs(P0 + Pm1 / k - exact).max() \
            / max(1.0, np.abs(exact).max())
    # NaN fails the comparison
    if not miss <= SERIES_MISS_MAX:
        raise ParameterError(f"the low band's projector series misses the "
                             f"projectors at k = {k:g} by {miss:.3g} "
                             f"(relative; at most {SERIES_MISS_MAX:g}): "
                             "not asymptotic at these parameters")
    return P0, Pm1


def singular_combination_residual(eq: EquilibriumState) -> float:
    """Relative size of the beta-weighted combination of 1/k coefficients.

    The combination beta1 * (row 1) + beta2 * (row 3) of Pm1 of the
    diffusive pair must kill the 1/k singularities in columns 2 and 4;
    returns the worst ratio of the combined coefficient to the sum of the
    individual magnitudes.
    """
    worst = 0.0
    for a in leading_projectors(eq)[1][2:]:
        comb = eq.beta1 * a[0] + eq.beta2 * a[2]
        denom = np.abs(eq.beta1 * a[0]) + np.abs(eq.beta2 * a[2])
        for col in (1, 3):
            worst = max(worst, float(np.abs(comb[col]) / denom[col]))
    return worst


def mid_band_gap(eq: EquilibriumState, n_grid: int = 2000) -> float:
    """Certified uniform decay rate on the middle band.

    Samples max Re lambda on a uniform k-grid over [ETA1, K_CUT] and refines
    three times around the grid maximum; returns b_mid = -max, which is
    positive when the band decays.  A maximum within n^2 eps |A(k)|_1
    (n = 4) of zero at its k says nothing of its sign: ParameterError.
    """
    lo, hi, n = ETA1, K_CUT, n_grid
    best, floor = -np.inf, 0.0
    for _ in range(4):
        ks = np.linspace(lo, hi, n)
        vals = _quartic_roots(ks, eq).real.max(axis=1)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = vals[j]
            floor = 16.0 * np.finfo(float).eps \
                * np.abs(symbol(ks[j], eq)).sum(axis=0).max()
        # refine on the two grid cells around the maximum
        lo, hi, n = ks[max(j - 1, 0)], ks[min(j + 1, n - 1)], 64
    if not abs(best) > floor:
        raise ParameterError(f"middle-band spectral gap: max Re lambda "
                             f"{best:.3g} is within the round-off "
                             f"{floor:.3g} of zero")
    return -float(best)


def _expm(M: np.ndarray) -> np.ndarray:
    """scipy's scaling-and-squaring e^M, imported on first use only.

    e^{tA} of the dissipative symbol is bounded, so a result that is not
    finite means the squarings overflowed (at a capillarity near 1e50):
    ParameterError, without numpy's warnings.
    """
    from scipy.linalg import expm
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(M)
    if not np.isfinite(out).all():
        raise ParameterError("scaling and squaring of e^(t A) overflows "
                             "at these parameters")
    return out


def check_growth(lam: ComplexArray, t: float) -> None:
    """Raise ParameterError where exp(lam t) overflows.

    Every branch has Re lam <= 0 in exact arithmetic.  A growth beyond the
    float range means the eigensolver lost the slow branches to round-off:
    its error eps |A(k)| exceeds them when a viscosity is near 1e30.
    """
    if (lam.real * t > _EXP_MAX).any():
        raise ParameterError(
            f"the symbol's eigenvalues at t = {t:g} have lost their sign "
            "to round-off: e^(lambda t) overflows at these parameters")


COND_MAX = 1e8      # 1/s beyond this sends a mode to expm


def _q_plus(k, lam, eq: EquilibriumState):
    """q+(lam) = lam^2 + nu+ k^2 lam + a+ k, a+ = beta1 k + sigma+ k^3."""
    a_plus = eq.beta1 * k + eq.params.sigma_plus * k ** 3
    return lam * lam + eq.nu_plus * k * k * lam + a_plus * k


def _right(i: int, k, lam, q, eq: EquilibriumState):
    """Component i of the right eigenvector of A(k) at eigenvalue lam,
    v = (beta2 k^3, -beta2 k^2 lam, -k q+, lam q+); q = q+(lam)."""
    return (eq.beta2 * k ** 3 + 0.0 * lam if i == 0 else
            -eq.beta2 * k * k * lam if i == 1 else
            -k * q if i == 2 else lam * q)


def _left(j: int, k, lam, q, eq: EquilibriumState):
    """Component j of the left eigenvector of A(k) at eigenvalue lam,
    w = (-beta3 k^2 (lam + nu+ k^2), beta3 k^3, (lam + nu- k^2) q+, -k q+),
    scaled by k so that no component divides by k."""
    return (-eq.beta3 * k * k * (lam + eq.nu_plus * k * k) if j == 0 else
            eq.beta3 * k ** 3 + 0.0 * lam if j == 1 else
            (lam + eq.nu_minus * k * k) * q if j == 2 else -k * q)


def _vectors(k, lam, q, eq: EquilibriumState):
    """(v, w), each (..., 4, 4): [..., i, l] is component i of the
    eigenvector at lam[..., l]."""
    return (np.stack([_right(i, k, lam, q, eq) for i in range(4)], axis=-2),
            np.stack([_left(j, k, lam, q, eq) for j in range(4)], axis=-2))


@dataclass(frozen=True)
class SymbolDecomposition:
    """The t-independent part of e^{t A(k)} on a k-grid, where
    e^{tA} = sum_l e^{lam_l t} v_l w_l^T / (w_l^T v_l): the eigenvectors
    are rebuilt per call from lam and q = q+(lam).  The modes in bad keep
    their symbols A_bad for scaling-and-squaring; k = 0 gives I exactly."""

    k: np.ndarray            # (nk, 1)
    lam: ComplexArray        # (nk, 4)
    q: ComplexArray          # (nk, 4), zero on the bad modes
    inv_wv: ComplexArray     # (nk, 4), zero on the bad and k = 0 modes
    eq: EquilibriumState
    bad: np.ndarray          # indices of the expm modes
    A_bad: np.ndarray        # (len(bad), 4, 4)

    def _weights(self, t: float) -> ComplexArray:
        check_growth(self.lam, t)
        return np.exp(self.lam * t) * self.inv_wv

    def semigroup(self, t: float) -> ComplexArray:
        """e^{t A(k)} on the grid, shape (nk, 4, 4)."""
        v, w = _vectors(self.k, self.lam, self.q, self.eq)
        out = (v * self._weights(t)[:, None, :]) @ np.swapaxes(w, 1, 2)
        out[self.k[:, 0] == 0.0] = np.eye(4)
        for idx, A in zip(self.bad, self.A_bad):
            out[idx] = _expm(t * A)
        return out

    def entry(self, i: int, j: int, t: float) -> ComplexArray:
        """Entry (i, j) of e^{t A(k)} on the grid, shape (nk,), without the
        full product."""
        args = (self.k, self.lam, self.q, self.eq)
        out = (_right(i, *args) * self._weights(t)
               * _left(j, *args)).sum(axis=1)
        out[self.k[:, 0] == 0.0] = float(i == j)
        for idx, A in zip(self.bad, self.A_bad):
            out[idx] = _expm(t * A)[i, j]
        return out


def decompose_symbol(ks: np.ndarray,
                     eq: EquilibriumState) -> SymbolDecomposition:
    """lam from the quartic's roots, and the closed-form eigenvectors' test.

    Rows 0, 2 and 1 of A v = lam v give v1 = -lam v0 / k, v3 = -lam v2 / k
    and v2 = -q+ v0 / (beta2 k^2); columns 1, 3 and 0 give the left
    eigenvector the same way through beta3 k^2.  beta2 = beta3 = C^2 > 0,
    so both are nonzero for k > 0.  A mode goes to expm where an
    eigenvalue's s = |w^T v| / (|v| |w|) (Golub and Van Loan, Matrix
    Computations, 7.2.2) is below 1 / COND_MAX or a value is not finite
    (q+ overflows at a capillarity near 1e100).
    """
    ks = np.asarray(ks, dtype=float)
    lam = _quartic_roots(ks, eq)
    k = ks[:, None]
    zero = ks == 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = _q_plus(k, lam, eq)
        wv = nv = nw = 0.0
        for i in range(4):
            v, w = _right(i, k, lam, q, eq), _left(i, k, lam, q, eq)
            wv, nv, nw = wv + v * w, nv + np.abs(v) ** 2, nw + np.abs(w) ** 2
        s = np.abs(wv) / (np.sqrt(nv) * np.sqrt(nw))
        inv_wv = 1.0 / wv
    # NaN fails the comparison
    ok = (s >= 1.0 / COND_MAX) & np.isfinite(inv_wv)
    bad = np.flatnonzero(~ok.all(axis=1) & ~zero)
    q[bad] = inv_wv[bad] = inv_wv[zero] = 0.0
    return SymbolDecomposition(k, lam, q, inv_wv, eq, bad,
                               symbol(ks[bad], eq))


def spectrum_table(eq: EquilibriumState, k_grid: np.ndarray) -> dict:
    """Continuity-chained sweep as the spectrum.csv table, one 1-D column
    each: k, the labelled eigenvalues' real and imaginary parts, the band,
    the degenerate flag and the expansion errors (NaN in the middle band).

    A k is labelled against the last non-degenerate k before it (its
    reference), or as branches labels it where there is none.  The
    degenerate flag depends on the roots alone, so every reference is known
    before any label: assignment calls over chunks of LABEL_CHUNK label
    all (k, unlabelled reference) pairs, and one walk over the grid
    composes each k's permutation with its reference's.
    """
    ks = np.asarray(k_grid, dtype=float)
    roots = _quartic_roots(ks, eq)
    degenerate = _degenerate(roots)
    last = np.maximum.accumulate(np.where(degenerate, -1, np.arange(ks.size)))
    ref = np.full(ks.size, -1)
    ref[1:] = last[:-1]

    perm = np.empty(roots.shape, dtype=int)
    first = np.flatnonzero(ref < 0)
    perm[first] = _first_cols(ks[first], roots[first], eq)
    chained = np.flatnonzero(ref >= 0)
    cols = np.concatenate([
        _assign_cols(roots[rows], roots[ref[rows]]) for rows in
        np.split(chained, range(LABEL_CHUNK, chained.size, LABEL_CHUNK))])
    for row, m, c in zip(chained.tolist(), ref[chained].tolist(), cols):
        # label i of row m is its raw root perm[m][i]
        perm[row] = c[perm[m]]
    lams = np.take_along_axis(roots, perm, axis=-1)

    errs = np.full(roots.shape, np.nan)
    low, high = ks <= ETA1, ks >= K_CUT
    errs[low] = np.abs(lams[low] - low_freq_expansion(ks[low], eq))
    errs[high] = np.abs(
        lams[high] - _assign(high_freq_expansion(ks[high], eq), lams[high]))

    return {"k": ks,
            **{f"re_lambda{i + 1}": lams.real[:, i] for i in range(4)},
            **{f"im_lambda{i + 1}": lams.imag[:, i] for i in range(4)},
            "band": band_of(ks), "degenerate": degenerate.astype(int),
            **{f"expansion_err{i + 1}": errs[:, i] for i in range(4)}}
