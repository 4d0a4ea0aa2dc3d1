"""Spectral certification tests for the compressible 4x4 symbol.

Oracles: numpy's own characteristic polynomial of the assembled matrix
(np.poly), batched eigensolves, scipy's scaling-and-squaring matrix
exponential as the independent semigroup route, and a brute-force search
over the 24 permutations for the root labelling.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from twofluid.cli import main
from twofluid.greens import composite_gl
from twofluid.model import (EquilibriumState, ModelParams, ParameterError,
                            solve_equilibrium)
from twofluid import spectral as sp
from twofluid.spectral import (DEGENERACY_REL, band_of,
                               char_poly_coeffs, high_freq_expansion,
                               low_freq_expansion)

SYM_EQ = solve_equilibrium(ModelParams())
ASYM_EQ = solve_equilibrium(
    ModelParams(A_minus=2.0, mu_minus=0.7, sigma_plus=0.02))


class TestSymbol:
    def test_zero_wavenumber(self):
        assert np.all(sp.symbol(0.0, SYM_EQ) == 0.0)

    def test_symmetric_entries_at_unit_k(self):
        A = sp.symbol(1.0, SYM_EQ)
        assert A[1, 0] == pytest.approx(2.01, abs=1e-11)
        assert A[1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert A[0, 1] == -1.0
        assert A[2, 3] == -1.0

    def test_trace(self):
        for k in (0.3, 2.0, 17.0):
            A = sp.symbol(k, ASYM_EQ)
            expected = -(ASYM_EQ.nu_plus + ASYM_EQ.nu_minus) * k * k
            assert np.trace(A) == pytest.approx(expected, rel=1e-13)

    def test_batch_matches_scalar(self):
        ks = np.array([[0.0, 0.3, 2.0], [5.0, 17.0, 40.0]])
        A = sp.symbol(ks, ASYM_EQ)
        assert A.shape == (2, 3, 4, 4)
        for idx in np.ndindex(ks.shape):
            assert np.array_equal(A[idx], sp.symbol(float(ks[idx]), ASYM_EQ))


SPLIT_SETS = {
    "default": {},
    "asym": {"A_minus": 2.0, "mu_minus": 0.7, "sigma_plus": 0.02},
    "bulk": {"lambda_plus": 0.5, "lambda_minus": 0.3},
    "complex-pair": {"sigma_plus": 1.0, "sigma_minus": 1.0},
}
SPLIT_EQS = {name: solve_equilibrium(ModelParams(**kw))
             for name, kw in SPLIT_SETS.items()}
# the spectrum subcommand's default grid
DEFAULT_KS = np.logspace(-3, 2, 400)


def shuffled_columns(a, seed):
    """a with the last axis of each row in its own seeded random order."""
    rng = np.random.default_rng(seed)
    order = rng.permuted(np.broadcast_to(np.arange(4), a.shape), axis=-1)
    return np.take_along_axis(a, order, axis=-1)


def table_lambdas(table):
    """The (nk, 4) labelled eigenvalues of a spectrum table."""
    lams = np.zeros((len(table["k"]), 4), dtype=complex)
    for i in range(4):
        lams.real[:, i] = table[f"re_lambda{i + 1}"]
        lams.imag[:, i] = table[f"im_lambda{i + 1}"]
    return lams


def table_repr(table):
    """repr of a table's columns as lists by sorted name: it round-trips
    floats exactly and lets the middle band's NaN errors compare equal."""
    return repr({name: np.asarray(table[name]).tolist()
                 for name in sorted(table)})


class TestAssignment:
    def test_nan_rejected(self):
        roots = np.array([np.nan, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sp._assign(roots, roots)

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ], ids=["sym", "asym"])
    def test_spectrum_sweep_labels_match_brute_force(self, eq):
        # the chained sweep of the spectrum subcommand's default grid, where
        # a changed label carries into every later row, against the per-k
        # sweep labelled by the permutation search below
        assert table_repr(sp.spectrum_table(eq, DEFAULT_KS)) \
            == table_repr(spectrum_table(eq, DEFAULT_KS))

    @pytest.mark.parametrize("ref, roots, want", [
        # the sound pair past its exceptional point
        ([-2 + 0.1j, -2 - 0.1j, -0.5, -30.0], [-2.1, -0.5, -30.0, -1.9],
         [-1.9, -2.1, -0.5, -30.0]),
        # the diffusive pair, where disc < 0 makes it a conjugate pair
        ([-5 + 3j, -5 - 3j, -1 + 0.1j, -1 - 0.1j],
         [-1.1, -5 - 3j, -0.9, -5 + 3j], [-5 + 3j, -5 - 3j, -0.9, -1.1]),
    ], ids=["sound", "diffusive"])
    def test_conjugate_reference_split(self, ref, roots, want):
        # a conjugate reference is equidistant from two real roots: the
        # member with Im > 0 takes the larger Re, in any input order
        ref, roots = np.array(ref), np.array(roots)
        for seed in range(8):
            got = sp._assign(shuffled_columns(roots, seed), ref)
            assert np.array_equal(got, want)
            assert np.array_equal(got, _assign(roots, ref))

    @pytest.mark.parametrize("name", SPLIT_SETS)
    def test_labels_ignore_root_order(self, name, monkeypatch):
        eq = SPLIT_EQS[name]
        table = sp.spectrum_table(eq, DEFAULT_KS)
        lams = table_lambdas(table)
        ref, roots = lams[:-1], lams[1:]
        want = sp._assign(roots, ref)
        for seed in range(3):
            assert np.array_equal(
                sp._assign(shuffled_columns(roots, seed), ref), want)
        # relabelling the reference relabels the result the same way
        order = shuffled_columns(np.broadcast_to(np.arange(4), ref.shape), 7)
        assert np.array_equal(
            sp._assign(roots, np.take_along_axis(ref, order, axis=-1)),
            np.take_along_axis(want, order, axis=-1))
        quartic_roots = sp._quartic_roots
        monkeypatch.setattr(sp, "_quartic_roots", lambda ks, eq: (
            shuffled_columns(quartic_roots(ks, eq), 11)))
        assert table_repr(sp.spectrum_table(eq, DEFAULT_KS)) \
            == table_repr(table)

    @pytest.mark.parametrize("name, k_split, lam12", [
        ("default", 4.18, (-6.877, -10.626)),
        ("asym", 6.27, (-13.982, -18.333)),
        ("bulk", 3.42, (-6.128, -7.795)),
    ], ids=["default", "asym", "bulk"])
    def test_split_convention(self, name, k_split, lam12):
        # on the first row after the sound pair turns real, lambda1 is the
        # real root with the larger Re (the slower decay)
        lams = table_lambdas(sp.spectrum_table(SPLIT_EQS[name], DEFAULT_KS))
        real = (lams[:, :2].imag == 0.0).all(axis=1)
        i = int(np.argmax(real))
        assert real[i:].all() and not real[:i].any()
        assert DEFAULT_KS[i] == pytest.approx(k_split, abs=0.01)
        assert lams[i, :2].real == pytest.approx(lam12, abs=1e-3)

    def test_default_sweep_keeps_its_labels_at_k_max(self, tmp_path):
        # the L1 cost tied wherever both reference roots lay on one side of
        # both new roots, and its tie order swapped lambda1 and lambda3 on
        # the last six rows of the default spectrum.csv
        assert main(["--out", str(tmp_path), "spectrum"]) == 0
        with open(tmp_path / "spectrum.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        gap = [float(r["re_lambda3"]) - float(r["re_lambda1"]) for r in rows]
        assert len(gap) == 400
        assert gap[393] == pytest.approx(4.085, abs=1e-3)
        assert np.abs(np.array(gap[394:]) - gap[393]).max() < 1e-2


class TestCharPoly:
    def test_zero_k(self):
        assert sp.char_poly_coeffs(0.0, SYM_EQ) == (0.0, 0.0, 0.0, 0.0)

    def test_symmetric_unit_k(self):
        c3, c2, c1, c0 = sp.char_poly_coeffs(1.0, SYM_EQ)
        assert c3 == pytest.approx(2.0, rel=1e-12)
        assert c2 == pytest.approx(5.02, rel=1e-12)
        assert c0 == pytest.approx(0.0401, rel=1e-12)

    def test_matches_determinant_expansion(self):
        rng = np.random.default_rng(7)
        for eq in (SYM_EQ, ASYM_EQ):
            for k in rng.uniform(1e-3, 20.0, size=20):
                coeffs = np.poly(sp.symbol(k, eq))  # oracle
                mine = (1.0,) + sp.char_poly_coeffs(k, eq)
                scale = np.abs(coeffs) + 1e-30
                assert np.all(np.abs(np.array(mine) - coeffs) / scale < 1e-11)


class TestEigenBranches:
    def test_low_k_example(self):
        lam = sp.branches(0.01, SYM_EQ)[0]
        approx = -0.5 * 0.01 ** 2 + 2j * 0.01
        assert abs(lam[0] - approx) / abs(lam[0]) < 1e-3
        assert lam[2].real == pytest.approx(-0.010102 * 1e-4, rel=1e-3)
        assert lam[3].real == pytest.approx(-0.98990 * 1e-4, rel=1e-3)

    def test_k_zero_degenerate(self):
        lam = sp.branches(0.0, SYM_EQ)[0]
        assert sp._degenerate(lam)
        assert np.all(lam == 0.0)

    def test_diffusive_product_vieta(self):
        # lam3*lam4 -> ((beta1 sig_m + beta4 sig_p)/(beta1+beta4)) k^4
        k = 1e-3
        lam = sp.branches(k, SYM_EQ)[0]
        prod = lam[2] * lam[3]
        assert prod.real == pytest.approx(0.01 * k ** 4, rel=1e-3)

    def test_roots_solve_quartic(self):
        ks = np.array([0.05, 0.7, 3.0, 40.0])
        for eq in (SYM_EQ, ASYM_EQ):
            for k, lam in zip(ks, sp.branches(ks, eq)):
                c3, c2, c1, c0 = sp.char_poly_coeffs(k, eq)
                res = np.polyval([1.0, c3, c2, c1, c0], lam)
                scale = max(abs(c0), abs(c1), abs(c2), 1.0)
                assert np.abs(res).max() < 1e-9 * scale


class TestExpansions:
    def test_low_freq_symmetric_formula(self):
        lam = sp.low_freq_expansion(0.02, SYM_EQ)
        assert lam[0] == pytest.approx(-0.5 * 4e-4 + 2j * 0.02, rel=1e-12)
        assert lam[1] == np.conj(lam[0])

    def test_low_freq_residual_slopes(self):
        # the diffusive-pair remainder needs asymmetric parameters: with
        # symmetric ones the quartic factors exactly and the residual is
        # pure round-off
        ks = np.logspace(-3, -1, 25)
        errs = np.abs(sp.branches(ks, ASYM_EQ)
                      - sp.low_freq_expansion(ks, ASYM_EQ))
        slope_osc = np.polyfit(np.log(ks), np.log(errs[:, 0]), 1)[0]
        slope_d3 = np.polyfit(np.log(ks), np.log(errs[:, 2]), 1)[0]
        slope_d4 = np.polyfit(np.log(ks), np.log(errs[:, 3]), 1)[0]
        assert slope_osc == pytest.approx(3.0, abs=0.2)
        assert slope_d3 == pytest.approx(4.0, abs=0.3)
        assert slope_d4 == pytest.approx(4.0, abs=0.3)

    def test_symmetric_diffusive_pair_exact(self):
        # symmetric parameters: quartic factors, tilde rates are exact
        ks = np.array([1e-3, 1e-2, 1e-1])
        lam = sp.branches(ks, SYM_EQ)[:, 2:]
        approx = sp.low_freq_expansion(ks, SYM_EQ)[:, 2:]
        assert (np.abs(lam - approx) < 1e-10 * np.abs(approx)).all()

    def test_high_freq_five_percent(self):
        # remainder of the k^2-leading formula is O(1); deviation measured
        # against the spectral scale max |lambda|
        for eq in (SYM_EQ, ASYM_EQ):
            for k in (50.0, 100.0):
                assert sp.high_freq_rel_err(k, eq).max() < 0.05

    def test_high_freq_remainder_is_order_one(self):
        # absolute deviation stays bounded as k doubles
        errs = []
        for k in (50.0, 100.0, 200.0, 400.0):
            approx = sp.high_freq_expansion(k, SYM_EQ)
            errs.append(max(np.min(np.abs(approx - lam))
                            for lam in sp.branches(k, SYM_EQ)[0]))
        assert max(errs) < 3.0 * min(errs) + 1.0

    def test_high_freq_monotone_improvement(self):
        errs = [sp.high_freq_rel_err(k, SYM_EQ).max()
                for k in (20.0, 40.0, 80.0, 160.0)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_high_freq_stability(self):
        assert np.all(sp.branches(50.0, SYM_EQ).real < 0.0)


class TestProjectors:
    def _sample_ks(self):
        rng = np.random.default_rng(11)
        return np.concatenate([
            rng.uniform(0.005, 0.1, 70),
            rng.uniform(0.1, 10.0, 80),
            rng.uniform(10.0, 60.0, 50),
        ])

    def test_projector_algebra_everywhere(self):
        checked = 0
        ks = self._sample_ks()
        for eq in (SYM_EQ, ASYM_EQ):
            lams = sp.branches(ks, eq)
            for k, lam, P, degenerate in zip(ks, lams,
                                             sp.projectors(ks, lams, eq),
                                             sp._degenerate(lams)):
                if degenerate:
                    continue
                I = np.eye(4)
                assert np.abs(P.sum(axis=0) - I).max() < 1e-8
                A = sp.symbol(float(k), eq)
                rec = np.einsum("i,ijk->jk", lam, P)
                assert np.abs(rec - A).max() < 1e-8 * max(1.0, np.abs(A).max())
                for i in range(4):
                    for j in range(4):
                        prod = P[i] @ P[j]
                        ref = P[i] if i == j else 0.0
                        assert np.abs(prod - ref).max() < 1e-8
                checked += 1
        assert checked >= 200

    def test_conjugate_pair_low_band(self):
        ks = np.array([0.01, 0.05, 0.09])
        lams = sp.branches(ks, SYM_EQ)
        for lam, P in zip(lams, sp.projectors(ks, lams, SYM_EQ)):
            assert lam[1] == pytest.approx(np.conj(lam[0]))
            assert np.abs(P[0] - np.conj(P[1])).max() < 1e-8

    def test_leading_projector_constants(self):
        # P1 entry (1,1) -> beta1 / (2(beta1+beta4)) as k -> 0
        for eq in (SYM_EQ, ASYM_EQ):
            P = sp.projectors(1e-3, sp.branches(1e-3, eq), eq)[0]
            lead = eq.beta1 / (2.0 * (eq.beta1 + eq.beta4))
            assert P[0][0, 0].real == pytest.approx(lead, rel=1e-2)

    def test_singular_entries_diverge_like_inverse_k(self):
        # k P(k) of the exact projectors tends to the series' 1/k part,
        # which sits in columns 2 and 4 of the diffusive pair: the (1,2)
        # entry of P3 diverges like a/k with a = -beta4/sqrt(disc)
        for eq in (SYM_EQ, ASYM_EQ):
            Pm1 = sp.leading_projectors(eq)[1]
            expected = -eq.beta4 / math.sqrt(eq.disc)
            assert Pm1[2, 0, 1] == pytest.approx(expected, rel=1e-14)
            assert np.all(Pm1[:2] == 0.0)
            assert np.all(Pm1[2:, :, [0, 2]] == 0.0)
            k = 1e-4
            P = sp.projectors(k, sp.branches(k, eq), eq)[0]
            assert (k * P[2, 0, 1]).real == pytest.approx(expected, rel=1e-3)

    def test_singular_combination_cancels(self):
        for eq in SPLIT_EQS.values():
            assert sp.singular_combination_residual(eq) < 1e-6

    def test_projectors_that_are_not_finite_are_a_parameter_error(self):
        # q+ overflows at sigma_plus = 1e300: the series has no exact
        # projectors to be checked against
        eq = solve_equilibrium(ModelParams(sigma_plus=1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not asymptotic"):
                sp.leading_projectors(eq)
            with pytest.raises(ParameterError, match="not asymptotic"):
                sp.singular_combination_residual(eq)


class TestLeadingProjectors:
    """The k-series P(k) = Pm1 / k + P0 + O(k) of the projectors."""

    @pytest.mark.parametrize("name", SPLIT_SETS)
    def test_series_matches_projectors_to_order_k(self, name):
        # every branch at k = 1e-3 and 1e-4: the remainder is O(k) (it
        # falls tenfold with k), and k P(k) - Pm1 is O(k) on its own, so
        # P0 and Pm1 are both the series' terms
        eq = SPLIT_EQS[name]
        P0, Pm1 = sp.leading_projectors(eq)
        errs = []
        for k in (1e-3, 1e-4):
            P = sp.projectors(k, sp.branches(k, eq), eq)[0]
            err = np.abs(P - Pm1 / k - P0).max(axis=(1, 2))
            assert (err <= 0.5 * k).all()
            assert (np.abs(k * P - Pm1).max(axis=(1, 2)) <= 2.0 * k).all()
            errs.append(err)
        assert (errs[0] >= 5.0 * errs[1]).all()

    @pytest.mark.parametrize("name", SPLIT_SETS)
    def test_partition_of_unity(self, name):
        # sum_l P_l(k) = I at every k: the k^0 terms sum to I and the
        # 1/k terms to zero
        P0, Pm1 = sp.leading_projectors(SPLIT_EQS[name])
        assert np.abs(P0.sum(axis=0) - np.eye(4)).max() <= 1e-15
        assert np.abs(Pm1.sum(axis=0)).max() <= 1e-15

    def test_complex_pair_is_conjugate(self):
        # at disc < 0 lam3_tilde = conj(lam4_tilde), and so are the
        # projectors; the sound pair is conjugate at every disc
        eq = SPLIT_EQS["complex-pair"]
        assert eq.disc < 0.0
        P0, Pm1 = sp.leading_projectors(eq)
        for P in (P0, Pm1):
            assert np.array_equal(P[2], np.conj(P[3]))
            assert np.array_equal(P[0], np.conj(P[1]))
        assert np.abs(P0[2].imag).max() > 0.1

    @pytest.mark.parametrize("name", ["default", "asym", "complex-pair"])
    def test_series_matches_40_digit_projectors(self, name):
        # the projectors of A(k) at k = 1e-8 in 40-digit arithmetic, each
        # the product over the other roots m of (A - lam_m) / (lam - lam_m);
        # float64 loses the diffusive pair there, whose gap is k^2
        mpmath = pytest.importorskip("mpmath")
        eq = SPLIT_EQS[name]
        p = eq.params
        P0, Pm1 = sp.leading_projectors(eq)
        ref = sp.low_freq_expansion(1e-8, eq)
        with mpmath.workdps(40):
            f = mpmath.mpf
            k = f("1e-8")
            # beta2 beta3 = beta1 beta4 holds in float64 to round-off only,
            # which at this k outweighs the k^6 term of det A that sets the
            # diffusive pair; the matrix takes the identity exactly
            b23 = mpmath.sqrt(f(eq.beta1) * f(eq.beta4))
            A = mpmath.matrix(4, 4)
            A[0, 1] = A[2, 3] = -k
            A[1, 0] = f(eq.beta1) * k + f(p.sigma_plus) * k ** 3
            A[1, 1] = -f(eq.nu_plus) * k ** 2
            A[1, 2] = A[3, 0] = b23 * k
            A[3, 2] = f(eq.beta4) * k + f(p.sigma_minus) * k ** 3
            A[3, 3] = -f(eq.nu_minus) * k ** 2
            lam = mpmath.eig(A, left=False, right=False)
            eye = mpmath.eye(4)
            for l in range(4):
                # the root nearest the branch's closed-form expansion
                i = min(range(4), key=lambda i: abs(complex(lam[i]) - ref[l]))
                P = eye
                for m in range(4):
                    if m != i:
                        P = P * (A - lam[m] * eye) / (lam[i] - lam[m])
                P = np.array(P.tolist(), dtype=complex)
                assert np.abs(P0[l] + Pm1[l] / 1e-8 - P).max() \
                    <= 1e-6 * max(1.0, np.abs(P).max())
                # and the k^0 term on its own, below the 1/k term's size
                assert np.abs(P - Pm1[l] / 1e-8 - P0[l]).max() \
                    <= 1e-6 * max(1.0, np.abs(P0[l]).max())

    @pytest.mark.parametrize("kw,miss", [
        (dict(A_plus=1e-50), 6.99), (dict(A_plus=1e-300), 10.0),
        (dict(mu_plus=1e50), 1.0), (dict(sigma_minus=1e50), 1.0),
        (dict(lambda_plus=1e50), 1.0)],
        ids=["a_plus_1e-50", "a_plus_1e-300", "mu_plus_1e50",
             "sigma_minus_1e50", "lambda_plus_1e50"])
    def test_unresolved_series_is_a_parameter_error(self, kw, miss):
        # the series misses the projectors at k = ETA1/2 by a relative
        # 1 to 10 here: the low band is not asymptotic
        eq = solve_equilibrium(ModelParams(**kw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError,
                               match=f"by {miss:.3g} .*not asymptotic"):
                sp.leading_projectors(eq)

    def test_double_diffusive_root_is_a_parameter_error(self):
        # disc = 0: lam3_tilde = lam4_tilde and d = -+beta1 sqrt(disc) = 0
        eq = SYM_EQ
        L = -(eq.beta1 * eq.nu_minus + eq.beta4 * eq.nu_plus) \
            / (2.0 * (eq.beta1 + eq.beta4))
        double = dataclasses.replace(eq, lam3_tilde=L, lam4_tilde=L)
        with pytest.raises(ParameterError, match="double root"):
            sp.leading_projectors(double)


def _sweep_files():
    """16 seeded random asymmetric files: A+- uniform on [0.5, 4], gamma+-
    on [1.1, 3], mu+- log-uniform on [0.1, 10], sigma+- on [1e-3, 1]; 4 of
    them have disc < 0."""
    rng = np.random.default_rng(41)
    files = []
    for _ in range(16):
        A, gamma = rng.uniform(0.5, 4.0, 2), rng.uniform(1.1, 3.0, 2)
        mu = 10.0 ** rng.uniform(-1, 1, 2)
        sigma = 10.0 ** rng.uniform(-3, 0, 2)
        files.append(ModelParams(
            A_plus=A[0], A_minus=A[1], gamma_plus=gamma[0],
            gamma_minus=gamma[1], mu_plus=mu[0], mu_minus=mu[1],
            sigma_plus=sigma[0], sigma_minus=sigma[1]))
    return files


def test_seeded_sweep_of_the_series():
    eqs = [solve_equilibrium(p) for p in _sweep_files()]
    assert sum(eq.disc < 0.0 for eq in eqs) >= 3
    for eq in eqs:
        for name, value in dataclasses.asdict(eq).items():
            if name not in ("params", "R_disc"):
                assert np.isfinite(value), name
        P0, Pm1 = sp.leading_projectors(eq)
        # the remainder is O(k): it falls tenfold from k = 1e-3 to 1e-4
        # (at most 17.5 k max(1, |P0|) on these files)
        errs = []
        for k in (1e-3, 1e-4):
            P = sp.projectors(k, sp.branches(k, eq), eq)[0]
            errs.append(np.abs(P - Pm1 / k - P0).max())
            assert errs[-1] <= 50.0 * k * max(1.0, np.abs(P0).max())
        assert errs[0] >= 5.0 * errs[1]
        # to the round-off of the terms (up to 6.4 here)
        eps = np.finfo(float).eps
        assert np.abs(P0.sum(axis=0) - np.eye(4)).max() \
            <= 8.0 * eps * max(1.0, np.abs(P0).max())
        assert np.abs(Pm1.sum(axis=0)).max() <= 8.0 * eps * np.abs(Pm1).max()
        assert sp.singular_combination_residual(eq) < 1e-6


def test_spectrum_on_the_sweep_files(tmp_path):
    # the default 400-point sweep on every file: finite, and every branch
    # decays (largest Re lambda -3.5e-9 here, Re lambda / |lambda| at
    # most -2.7e-5)
    keys = ("A_plus", "A_minus", "gamma_plus", "gamma_minus", "mu_plus",
            "mu_minus", "sigma_plus", "sigma_minus")
    for idx, p in enumerate(_sweep_files()):
        cfg = tmp_path / f"sweep{idx}.cfg"
        cfg.write_text("".join(f"{key} = {float(getattr(p, key))!r}\n"
                               for key in keys))
        out = tmp_path / f"out{idx}"
        assert main(["--params", str(cfg), "--out", str(out),
                     "spectrum"]) == 0, idx
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        re = np.array([[float(r[f"re_lambda{i}"]) for i in range(1, 5)]
                       for r in rows])
        im = np.array([[float(r[f"im_lambda{i}"]) for i in range(1, 5)]
                       for r in rows])
        assert np.isfinite(re).all() and np.isfinite(im).all()
        assert (re < 0.0).all(), idx
        assert (re / np.hypot(re, im)).max() <= -1e-6, idx


class TestMidBandGap:
    def test_positive_and_grid_stable(self):
        b1 = sp.mid_band_gap(SYM_EQ, n_grid=2000)
        b2 = sp.mid_band_gap(SYM_EQ, n_grid=4000)
        assert b1 > 0.0
        assert abs(b1 - b2) < 0.01 * b1

    def test_degenerate_parameter_case(self):
        eq = solve_equilibrium(ModelParams(A_minus=1.7))  # sig+=sig-, mu+=mu-
        assert sp.mid_band_gap(eq) > 0.0

    @pytest.mark.parametrize("kw", [dict(A_plus=1e-50), dict(A_minus=1e50),
                                    dict(mu_plus=1e50),
                                    dict(sigma_minus=1e50)],
                             ids=["a_plus_1e-50", "a_minus_1e50",
                                  "mu_plus_1e50", "sigma_minus_1e50"])
    def test_unresolved_gap_is_a_parameter_error(self, kw):
        # the grid's largest Re lambda is within the round-off of A(k) of
        # zero (eps |A(k)|_1 from 5e-14 to 3e35), so its sign is not known
        eq = solve_equilibrium(ModelParams(**kw))
        with pytest.raises(ParameterError, match="middle-band spectral gap"):
            sp.mid_band_gap(eq)

    def test_resolved_growth_is_returned(self, monkeypatch):
        # the spectrum of A(k) + I grows at 1 - b_mid, far above round-off:
        # the gap is a negative number for certify-all's inverted check,
        # not an error; the +1 goes in through the one root source
        b_mid = sp.mid_band_gap(SYM_EQ)
        roots = sp._quartic_roots
        monkeypatch.setattr(sp, "_quartic_roots",
                            lambda ks, eq: roots(ks, eq) + 1.0)
        assert sp.mid_band_gap(SYM_EQ) == pytest.approx(b_mid - 1.0,
                                                        abs=1e-12)


class TestSemigroup:
    def test_identity_at_t_zero(self):
        S = sp.decompose_symbol(np.array([0.7]), SYM_EQ).semigroup(0.0)[0]
        assert np.abs(S - np.eye(4)).max() < 1e-12

    def test_dual_path_agreement(self):
        rng = np.random.default_rng(3)
        for eq in (SYM_EQ, ASYM_EQ):
            for _ in range(50):
                k = rng.uniform(1e-3, 20.0)
                t = rng.uniform(1e-3, 10.0)
                S1 = sp.decompose_symbol(np.array([k]), eq).semigroup(t)[0]
                S2 = scipy.linalg.expm(t * sp.symbol(k, eq))
                assert np.abs(S1 - S2).max() < 1e-8

    def test_low_band_decay_rate(self):
        # oscillatory part (sound-pair projection) decays like e^{-b1 k^2 t}
        k = 0.05
        lam = sp.branches(k, SYM_EQ)[0]
        P = sp.projectors(k, lam[None], SYM_EQ)[0]
        ts = np.linspace(200.0, 2000.0, 12)
        vals = []
        for t in ts:
            S_osc = (np.exp(lam[0] * t) * P[0]
                     + np.exp(lam[1] * t) * P[1])
            vals.append(np.abs(S_osc).max())
        slope = np.polyfit(ts, np.log(vals), 1)[0]
        assert slope == pytest.approx(-SYM_EQ.b1 * k * k, rel=0.05)

    def test_batch_matches_scalar(self):
        ks = np.array([0.02, 0.4, 3.0, 15.0])
        B = sp.decompose_symbol(ks, ASYM_EQ).semigroup(1.7)
        for i, k in enumerate(ks):
            S = scipy.linalg.expm(1.7 * sp.symbol(k, ASYM_EQ))
            assert np.abs(B[i] - S).max() < 1e-9

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ, SPLIT_EQS["bulk"],
                                    SPLIT_EQS["complex-pair"]],
                             ids=["sym", "asym", "bulk", "complex-pair"])
    def test_decomposition_matches_expm(self, eq):
        # the grid and times include the range decay_slope_table relies
        # on: 800 log-spaced k in [1e-4, 10] up to t = 1e4
        ks = np.concatenate([[0.0], np.logspace(-3, 1.3, 23),
                             np.logspace(-4, 1, 800)])
        dec = sp.decompose_symbol(ks, eq)
        assert len(dec.bad) == 0             # A(0) = 0 needs no expm
        assert dec.A_bad.shape == (0, 4, 4)
        for t in (0.0, 0.3, 2.0, 25.0, 1e2, 1e3, 1e4):
            B = dec.semigroup(t)
            assert np.array_equal(B[0], np.eye(4))
            S = scipy.linalg.expm(t * sp.symbol(ks, eq))
            scale = np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
            assert (np.abs(B - S).max(axis=(1, 2)) < 1e-9 * scale).all()

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ, SPLIT_EQS["bulk"],
                                    SPLIT_EQS["complex-pair"]],
                             ids=["sym", "asym", "bulk", "complex-pair"])
    def test_small_k_matches_expm(self, eq):
        # the polished roots hold the diffusive pair ~ k^2 to relative
        # round-off: at most 3.2e-8 on [1e-9, 1e-4], and below 1e-9 the
        # s test sends every mode to expm
        mid, low = np.geomspace(1e-9, 1e-4, 200), np.geomspace(1e-12, 1e-9, 64)
        dec_mid, dec_low = (sp.decompose_symbol(ks, eq) for ks in (mid, low))
        assert np.array_equal(dec_low.bad, np.arange(low.size))
        for t in (1.0, 100.0, 1e4):
            S = scipy.linalg.expm(t * sp.symbol(mid, eq))
            scale = np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
            err = np.abs(dec_mid.semigroup(t) - S).max(axis=(1, 2))
            assert (err <= 1e-7 * scale).all()
            assert np.array_equal(dec_low.semigroup(t),
                                  scipy.linalg.expm(t * sp.symbol(low, eq)))

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ], ids=["sym", "asym"])
    def test_entry_matches_semigroup(self, eq):
        # one entry without the full product, the k = 0 mode exactly I
        ks = np.concatenate([[0.0], np.linspace(0.05, 12.0, 97)])
        dec = sp.decompose_symbol(ks, eq)
        assert len(dec.bad) == 0
        for t in (0.0, 0.3, 7.0, 100.0):
            S = dec.semigroup(t)
            assert np.array_equal(S[0], np.eye(4))
            scale = np.abs(S).max()
            for i in range(4):
                for j in range(4):
                    got = dec.entry(i, j, t)
                    assert got.shape == ks.shape
                    assert got[0] == S[0, i, j]
                    assert np.abs(got - S[:, i, j]).max() <= 1e-14 * scale

    def test_ill_conditioned_modes_fall_back(self):
        # exactly the modes whose s = |w^T v| / (|v| |w|) at the polished
        # roots is below 1 / COND_MAX fall back; s ~ k there, so all of
        # k in [1e-12, 1e-9] does and k = 0.5 does not
        ks = np.append(np.geomspace(1e-12, 1e-9, 64), 0.5)
        dec = sp.decompose_symbol(ks, SYM_EQ)
        s = eigenvalue_s(ks, SYM_EQ).min(axis=1)
        below = np.flatnonzero(s < (1.0 - 1e-9) / sp.COND_MAX)
        above = np.flatnonzero(s > (1.0 + 1e-9) / sp.COND_MAX)
        assert below.size + above.size == ks.size
        assert np.array_equal(dec.bad, below)
        assert np.array_equal(dec.bad, np.arange(ks.size - 1))
        for t in (1.0, 100.0):
            S = scipy.linalg.expm(t * sp.symbol(ks[dec.bad], SYM_EQ))
            assert np.abs(dec.semigroup(t)[dec.bad] - S).max() < 1e-14
            assert np.abs(dec.entry(1, 2, t)[dec.bad]
                          - S[:, 1, 2]).max() < 1e-14

    def test_singular_eigenvectors_fall_back(self):
        # at sigma_minus = 1e100 eig returns exactly singular eigenvector
        # matrices on some nodes of the reconstructor's middle grid and its
        # oracle sends every node to expm; the closed forms' s fails on
        # the same nodes, and the expm route then overflows
        eq = solve_equilibrium(ModelParams(sigma_minus=1e100))
        ks = composite_gl(0.5 * sp.ETA1, 1.2 * sp.K_CUT, 256, 64).nodes
        dec = sp.decompose_symbol(ks, eq)
        oracle = eig_inv_decomposition(ks, eq)
        zero = np.flatnonzero(np.linalg.det(oracle.V) == 0.0)
        assert zero.size > 0
        assert np.array_equal(dec.bad, oracle.bad)
        assert np.array_equal(dec.bad, np.arange(ks.size))
        with np.errstate(invalid="ignore", over="ignore"):
            s = eigenvalue_s(ks, eq)
        assert not (s.min(axis=1) >= 1.0 / sp.COND_MAX).any()
        with pytest.raises(ParameterError):
            dec.entry(1, 1, 1.0)

    def test_scalar_identity_at_k_zero(self):
        dec = sp.decompose_symbol(np.array([0.0]), SYM_EQ)
        for t in (0.0, 1.0, 1e3):
            S = dec.semigroup(t)[0]
            assert S.dtype == complex
            assert np.array_equal(S, np.eye(4))

    def test_entry_boundedness(self):
        # no entry blow-up on a broad (k, t) sweep
        for k in (0.01, 0.1, 1.0, 10.0):
            dec = sp.decompose_symbol(np.array([k]), SYM_EQ)
            for t in (0.1, 1.0, 10.0, 100.0):
                S = dec.semigroup(t)[0]
                assert np.abs(S).max() < 1.0 + 10.0 * k * t


# The eig + inv decomposition, verbatim as spectral computed it before the
# closed-form eigenvectors.  It is the oracle of decompose_symbol.

@dataclass(frozen=True)
class EigInvDecomposition:
    """The t-independent part of e^{t A(k)} on a k-grid.

    A = V diag(lam) V^-1 except on the modes in bad (an eigenvector matrix
    whose 1-norm condition number exceeds 1e8); those keep their symbols
    A_bad for scaling-and-squaring.  k = 0 has A = 0: lam = 0 and V = I.
    """

    lam: np.ndarray          # (nk, 4)
    V: np.ndarray            # (nk, 4, 4)
    V_inv: np.ndarray        # (nk, 4, 4)
    bad: np.ndarray          # indices of the expm modes
    A_bad: np.ndarray        # (len(bad), 4, 4)

    def semigroup(self, t: float) -> np.ndarray:
        """e^{t A(k)} on the grid, shape (nk, 4, 4)."""
        sp.check_growth(self.lam, t)
        out = (self.V * np.exp(self.lam * t)[:, None, :]) @ self.V_inv
        for idx, A in zip(self.bad, self.A_bad):
            out[idx] = sp._expm(t * A)
        return out

    def entry(self, i: int, j: int, t: float) -> np.ndarray:
        """Entry (i, j) of e^{t A(k)} on the grid, shape (nk,), without the
        full product."""
        sp.check_growth(self.lam, t)
        out = (self.V[:, i, :] * np.exp(self.lam * t)
               * self.V_inv[:, :, j]).sum(axis=1)
        for idx, A in zip(self.bad, self.A_bad):
            out[idx] = sp._expm(t * A)[i, j]
        return out


def eig_inv_decomposition(ks: np.ndarray,
                          eq: EquilibriumState) -> EigInvDecomposition:
    """Batched eigendecomposition of A(k) and its conditioning test."""
    ks = np.asarray(ks, dtype=float)
    A = sp.symbol(ks, eq)
    lam, V = np.linalg.eig(A)
    zero = ks == 0.0
    lam[zero] = 0.0
    V[zero] = np.eye(4)
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        # an exactly singular V (a defective symbol, e.g. a capillarity
        # near 1e100) gets a NaN inverse and so joins the expm modes;
        # a determinant that underflows sends an invertible V there too
        V_inv = np.full_like(V, np.nan)
        ok = np.abs(np.linalg.det(V)) > 0.0
        V_inv[ok] = np.linalg.inv(V[ok])
    V_inv[zero] = np.eye(4)
    # within a factor 4 of the 2-norm condition number for 4x4 matrices
    cond = np.abs(V).sum(axis=1).max(axis=1) \
        * np.abs(V_inv).sum(axis=1).max(axis=1)
    bad = np.nonzero(~np.isfinite(cond) | (cond > 1e8))[0]
    return EigInvDecomposition(lam, V, V_inv, bad, A[bad])


def closed_form_vectors(ks, lam, eq):
    """The closed-form right and left eigenvectors at eigenvalues lam
    (nk, 4): V[n, i, l] = v_l[i] and W[n, j, l] = w_l[j]."""
    k = np.asarray(ks, dtype=float)[:, None]
    return sp._vectors(k, lam, sp._q_plus(k, lam, eq), eq)


def eigenvalue_s(ks, eq):
    """s = |w^T v| / (|v| |w|) of each eigenvalue of A(k), (nk, 4), at
    the roots decompose_symbol takes."""
    lam = sp._quartic_roots(ks, eq)
    V, W = closed_form_vectors(ks, lam, eq)
    return np.abs((V * W).sum(axis=1)) / (np.linalg.norm(V, axis=1)
                                          * np.linalg.norm(W, axis=1))


# the parameter sets the closed forms are checked at: the defaults, unequal
# phases, disc < 0 (a complex diffusive pair) and bulk viscosity
CLOSED_FORM_SETS = {
    "default": SYM_EQ,
    "asym": ASYM_EQ,
    "complex-pair": solve_equilibrium(ModelParams(sigma_plus=1.0,
                                                  sigma_minus=1.0)),
    "bulk": solve_equilibrium(ModelParams(
        mu_minus=2.0, lambda_plus=0.5, lambda_minus=1.5, sigma_plus=0.02,
        A_minus=2.0, gamma_minus=1.6)),
}


class TestClosedFormEigenvectors:
    @pytest.mark.parametrize("name", CLOSED_FORM_SETS)
    def test_eigenvectors_match_eig(self, name):
        # A v = lam v and w^T A = lam w^T, and v, w parallel to eig's right
        # eigenvectors and to the rows of their inverse
        eq = CLOSED_FORM_SETS[name]
        ks = np.logspace(-3, np.log10(12.0), 200)
        A = sp.symbol(ks, eq)
        lam, E = np.linalg.eig(A)
        V, W = closed_form_vectors(ks, lam, eq)
        nA = np.abs(A).max(axis=(1, 2))[:, None]
        nV = np.linalg.norm(V, axis=1)
        nW = np.linalg.norm(W, axis=1)
        right = np.linalg.norm(A @ V - V * lam[:, None, :], axis=1)
        left = np.linalg.norm(np.swapaxes(A, 1, 2) @ W
                              - W * lam[:, None, :], axis=1)
        # round-off of the eigenvalues: at most 6.4e-13 (bulk viscosity,
        # k = 10.9), where eig's own inverse rows reach 3e-13 (defaults)
        assert (right <= 1e-11 * nA * nV).all()
        assert (left <= 1e-11 * nA * nW).all()
        E_inv = np.linalg.inv(E)
        cos_v = np.abs(np.einsum("nil,nil->nl", E.conj(), V)) \
            / (np.linalg.norm(E, axis=1) * nV)
        cos_w = np.abs(np.einsum("nli,nil->nl", E_inv.conj(), W)) \
            / (np.linalg.norm(E_inv, axis=2) * nW)
        assert np.abs(cos_v - 1.0).max() < 1e-8
        assert np.abs(cos_w - 1.0).max() < 1e-8

    @pytest.mark.parametrize("name", CLOSED_FORM_SETS)
    def test_decomposition_matches_eig_inv_oracle(self, name):
        # the semigroup and all 16 entries on the reconstructor's middle
        # grid, within 1e-12 of each t-slice's maximum
        eq = CLOSED_FORM_SETS[name]
        ks = composite_gl(0.5 * sp.ETA1, 1.2 * sp.K_CUT, 256, 64).nodes
        dec = sp.decompose_symbol(ks, eq)
        oracle = eig_inv_decomposition(ks, eq)
        assert len(dec.bad) == len(oracle.bad) == 0
        for t in (1.0, 2.0, 10.0, 50.0, 100.0, 300.0):
            want = oracle.semigroup(t)
            tol = 1e-12 * np.abs(want).max()
            assert np.abs(dec.semigroup(t) - want).max() <= tol
            for i in range(4):
                for j in range(4):
                    assert np.abs(dec.entry(i, j, t)
                                  - oracle.entry(i, j, t)).max() <= tol

    def test_projectors_match_lagrange_products(self):
        # projectors' v w^T / (w^T v) against the Lagrange products
        # prod_{j != i} (A - lam_j) / (lam_i - lam_j) they replaced
        ks = np.array([0.02, 0.3, 2.0, 9.0, 40.0])
        for eq in CLOSED_FORM_SETS.values():
            lams = sp.branches(ks, eq)
            for k, lam, Ps in zip(ks, lams, sp.projectors(ks, lams, eq)):
                A = sp.symbol(k, eq).astype(complex)
                I = np.eye(4, dtype=complex)
                for i in range(4):
                    P = I
                    for j in range(4):
                        if j != i:
                            P = P @ (A - lam[j] * I) / (lam[i] - lam[j])
                    assert np.abs(Ps[i] - P).max() <= 1e-9 * np.abs(P).max()


class TestSpectrumRows:
    def test_sweep_structure(self):
        ks = np.logspace(-2, 1.5, 40)
        table = sp.spectrum_table(SYM_EQ, ks)
        assert list(table) == SPECTRUM_COLUMNS
        assert all(len(col) == 40 for col in table.values())
        bands = set(table["band"].tolist())
        assert bands == {"low", "middle", "high"}
        low = table["band"] == "low"
        assert np.isfinite(table["expansion_err1"][low]).all()

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ], ids=["sym", "asym"])
    def test_rows_follow_the_eigen_branches_chain(self, eq):
        # the first row is labelled as branches labels it, and each later
        # row's labels and flag are those of the oracle's per-k labelling
        # chained over the grid, each k against the last non-degenerate one
        ks = np.logspace(-3, 2, 120)
        table = sp.spectrum_table(eq, ks)
        lams = table_lambdas(table)
        assert np.array_equal(lams[:1], sp.branches(ks[0], eq))
        prev = None
        for k, band, flag, row_lam in zip(ks.tolist(), table["band"].tolist(),
                                          table["degenerate"].tolist(), lams):
            lam, _, degenerate = _labelled_roots(k, eq, prev)
            if not degenerate:
                prev = lam
            assert (band, flag) == (band_of(k), int(degenerate))
            assert np.array_equal(row_lam, lam)


# ---------------------------------------------------------------------------
# The per-k sweep: np.roots and one _assign call per k, verbatim as spectral
# computed it before the batched sweep, with _assign a search over every
# permutation under the stated rule.  It is the oracle of spectrum_table,
# whose columns spectrum_table below takes from its rows in the CSV order.

ComplexArray = np.ndarray


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


def _assign(roots: ComplexArray, reference: ComplexArray) -> ComplexArray:
    """Permute the (4,) roots to the least total squared distance to the
    reference labels.

    Both sides are sorted by decreasing Re, then decreasing Im; every
    total within 1e-14 relative of the least is tied, and the first tied
    permutation of the sorted sides in lexicographic order wins.
    """
    r = sorted(roots, key=lambda z: (-z.real, -z.imag))
    order = sorted(range(4), key=lambda i: (-reference[i].real,
                                            -reference[i].imag))
    totals = {}
    for perm in itertools.permutations(range(4)):
        total = 0.0
        for i, j in enumerate(perm):
            d = r[j] - reference[order[i]]
            total += d.real * d.real + d.imag * d.imag
        totals[perm] = total
    if any(math.isnan(total) for total in totals.values()):
        raise ValueError("cost matrix contains invalid numeric entries")
    best = min(totals.values())
    perm = next(p for p, total in totals.items()
                if total <= best * (1.0 + 1e-14))
    out = np.empty(4, dtype=complex)
    for i, j in enumerate(perm):
        out[order[i]] = r[j]
    return out


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


def spectrum_rows(eq: EquilibriumState, k_grid: np.ndarray) -> list[dict]:
    """Continuity-chained sweep producing one report row per k."""
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


# the spectrum.csv header: the oracle of spectrum_table's column order
SPECTRUM_COLUMNS = (["k"] + [f"re_lambda{i}" for i in range(1, 5)]
                    + [f"im_lambda{i}" for i in range(1, 5)]
                    + ["band", "degenerate"]
                    + [f"expansion_err{i}" for i in range(1, 5)])


def spectrum_table(eq: EquilibriumState, k_grid: np.ndarray) -> dict:
    """The per-k oracle's rows as a table in the CSV order."""
    rows = spectrum_rows(eq, k_grid)
    return {name: np.array([row[name] for row in rows])
            for name in SPECTRUM_COLUMNS}


class TestBatchedSweep:
    @pytest.mark.parametrize("cfg, k_range", [
        ("", ()),
        # bulk viscosity and unequal phases
        ("mu_minus = 2.0\nlambda_plus = 0.5\nlambda_minus = 1.5\n"
         "sigma_plus = 0.02\na_minus = 2.0\ngamma_minus = 1.6\n", ()),
        # disc < 0: the diffusive pair is complex
        ("sigma_plus = 1.0\nsigma_minus = 1.0\n", ()),
        # underflowing coefficients: np.roots strips them and appends zero
        # roots (all four at k < 1e-162, c1 and c0 above)
        ("", (1e-200, 1e-110)),
        # only c0 underflows
        ("", (1e-76, 1e-40)),
    ], ids=["default", "asym", "complex-pair", "tiny-k", "c0-underflow"])
    def test_csv_matches_per_k_sweep(self, cfg, k_range, tmp_path,
                                     monkeypatch):
        if k_range:
            # the spectrum subcommand refuses a --k-min whose coefficients
            # underflow, so the sweep meets these k only when called
            # directly: on the subcommand's 400-point grid
            ks = np.logspace(math.log10(k_range[0]), math.log10(k_range[1]),
                             400)
            assert table_repr(sp.spectrum_table(SYM_EQ, ks)) \
                == table_repr(spectrum_table(SYM_EQ, ks))
            return
        params = tmp_path / "params.cfg"
        params.write_text(cfg)
        argv = ["--params", str(params), "spectrum"]
        assert main(["--out", str(tmp_path / "batched"), *argv]) == 0
        monkeypatch.setattr(sp, "spectrum_table", spectrum_table)
        assert main(["--out", str(tmp_path / "per_k"), *argv]) == 0
        assert (tmp_path / "batched" / "spectrum.csv").read_bytes() \
            == (tmp_path / "per_k" / "spectrum.csv").read_bytes()

    def test_one_eigvals_call_per_sweep(self, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or eigvals(a))
        sp.spectrum_table(SYM_EQ, np.logspace(-3, 2, 400))
        assert shapes == [(400, 4, 4)]

    def test_overflowing_newton_step_is_skipped(self, tmp_path):
        # between k ~ 1e-108 and 1e-77 the polish's terms underflow and
        # pv / dv overflows; the per-k sweep ended in a ValueError there
        ks = np.logspace(-200, -100, 400)
        with pytest.raises(ValueError), np.errstate(over="ignore",
                                                    invalid="ignore"):
            spectrum_rows(SYM_EQ, ks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = sp.spectrum_table(SYM_EQ, ks)
        lams = np.array([table[f"{part}_lambda{i}"] for part in ("re", "im")
                         for i in range(1, 5)])
        assert np.isfinite(lams).all()
