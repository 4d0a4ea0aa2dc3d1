"""Spectral certification tests for the compressible 4x4 symbol.

Oracles: numpy's own characteristic polynomial of the assembled matrix
(np.poly), batched eigensolves, scipy's scaling-and-squaring matrix
exponential as the independent semigroup route, and scipy's
linear_sum_assignment for the root labelling.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from twofluid.cli import main
from twofluid.greens import composite_gl
from twofluid.model import EquilibriumState, ModelParams, solve_equilibrium
from twofluid import spectral as sp
from twofluid.spectral import (DEGENERACY_REL, _lsap, band_of,
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


def scipy_assign(roots, reference):
    """Root labelling by scipy, one (4,) row at a time."""
    cost = np.abs(roots[None, :] - reference[:, None])
    _, cols = linear_sum_assignment(cost)
    return roots[cols]


@st.composite
def tie_heavy_costs(draw):
    """4x4 costs with many ties: small integers, or one zero entry."""
    if draw(st.booleans()):
        vals = draw(st.lists(st.integers(0, 3), min_size=16, max_size=16))
        return np.array(vals, dtype=float).reshape(4, 4)
    vals = draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
    cost = np.array(vals).reshape(4, 4)
    cost[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = 0.0
    return cost


class TestAssignment:
    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_costs())
    def test_port_matches_scipy(self, cost):
        _, cols = linear_sum_assignment(cost)
        assert sp._lsap(cost.tolist()) == list(cols)

    def test_constant_cost_gives_identity(self):
        assert sp._lsap([[1.0] * 4] * 4) == [0, 1, 2, 3]

    def test_early_exit_and_port(self, monkeypatch):
        calls = []
        port = sp._lsap
        monkeypatch.setattr(sp, "_lsap",
                            lambda cost: calls.append(cost) or port(cost))
        roots = np.array([3.0, 1j, -1j, -2.0])
        # every label has its own strict nearest root: the row argmins
        ref = np.array([1j, -1.9, 2.9, -1j])
        assert np.array_equal(sp._assign(roots, ref), roots[[1, 3, 0, 2]])
        assert calls == []
        # two labels share a nearest root: the shortest augmenting path
        ref = np.array([2.9, 3.1, 0.0, -2.0])
        got = sp._assign(roots, ref)
        assert len(calls) == 1
        assert np.array_equal(got, scipy_assign(roots, ref))
        # a tied row takes the port too, and a batch sends only that row
        ref = np.array([0.0, 1j, -1j, -2.0])
        batch = sp._assign(np.stack([roots, roots]),
                           np.stack([ref, roots + 0.1]))
        assert len(calls) == 2
        assert np.array_equal(batch[0], scipy_assign(roots, ref))
        assert np.array_equal(batch[1], roots)

    def test_nan_rejected(self):
        roots = np.array([np.nan, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sp._assign(roots, roots)

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ], ids=["sym", "asym"])
    def test_spectrum_sweep_labels_match_scipy(self, eq, monkeypatch):
        # the chained sweep of the spectrum subcommand's default grid, where
        # a changed label carries into every later row, against the per-k
        # sweep labelled by scipy; repr round-trips floats exactly and lets
        # the middle band's NaN errors compare equal
        ks = np.logspace(-3, 2, 400)
        calls = []
        port = sp._lsap
        monkeypatch.setattr(sp, "_lsap",
                            lambda cost: calls.append(cost) or port(cost))
        rows = sp.spectrum_rows(eq, ks)
        assert len(calls) > 0     # some labels need the augmenting path
        monkeypatch.setitem(globals(), "_assign", scipy_assign)
        assert repr(rows) == repr(spectrum_rows(eq, ks))


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
        pt = sp.eigen_branches(0.01, SYM_EQ, force_projectors=True)
        lam1 = pt.lambdas[0]
        approx = -0.5 * 0.01 ** 2 + 2j * 0.01
        assert abs(lam1 - approx) / abs(lam1) < 1e-3
        assert pt.lambdas[2].real == pytest.approx(-0.010102 * 1e-4, rel=1e-3)
        assert pt.lambdas[3].real == pytest.approx(-0.98990 * 1e-4, rel=1e-3)

    def test_k_zero_degenerate(self):
        pt = sp.eigen_branches(0.0, SYM_EQ)
        assert pt.degenerate_flag
        assert np.all(pt.lambdas == 0.0)

    def test_diffusive_product_vieta(self):
        # lam3*lam4 -> ((beta1 sig_m + beta4 sig_p)/(beta1+beta4)) k^4
        k = 1e-3
        pt = sp.eigen_branches(k, SYM_EQ, force_projectors=True)
        prod = pt.lambdas[2] * pt.lambdas[3]
        assert prod.real == pytest.approx(0.01 * k ** 4, rel=1e-3)

    def test_roots_solve_quartic(self):
        for eq in (SYM_EQ, ASYM_EQ):
            for k in (0.05, 0.7, 3.0, 40.0):
                c3, c2, c1, c0 = sp.char_poly_coeffs(k, eq)
                pt = sp.eigen_branches(k, eq)
                res = np.polyval([1.0, c3, c2, c1, c0], pt.lambdas)
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
        errs = np.empty((25, 4))
        for i, k in enumerate(ks):
            pt = sp.eigen_branches(k, ASYM_EQ, force_projectors=True)
            errs[i] = np.abs(pt.lambdas - sp.low_freq_expansion(k, ASYM_EQ))
        slope_osc = np.polyfit(np.log(ks), np.log(errs[:, 0]), 1)[0]
        slope_d3 = np.polyfit(np.log(ks), np.log(errs[:, 2]), 1)[0]
        slope_d4 = np.polyfit(np.log(ks), np.log(errs[:, 3]), 1)[0]
        assert slope_osc == pytest.approx(3.0, abs=0.2)
        assert slope_d3 == pytest.approx(4.0, abs=0.3)
        assert slope_d4 == pytest.approx(4.0, abs=0.3)

    def test_symmetric_diffusive_pair_exact(self):
        # symmetric parameters: quartic factors, tilde rates are exact
        for k in (1e-3, 1e-2, 1e-1):
            pt = sp.eigen_branches(k, SYM_EQ, force_projectors=True)
            approx = sp.low_freq_expansion(k, SYM_EQ)
            for i in (2, 3):
                assert abs(pt.lambdas[i] - approx[i]) \
                    < 1e-10 * abs(approx[i])

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
            pt = sp.eigen_branches(k, SYM_EQ)
            approx = sp.high_freq_expansion(k, SYM_EQ)
            errs.append(max(np.min(np.abs(approx - lam))
                            for lam in pt.lambdas))
        assert max(errs) < 3.0 * min(errs) + 1.0

    def test_high_freq_monotone_improvement(self):
        errs = [sp.high_freq_rel_err(k, SYM_EQ).max()
                for k in (20.0, 40.0, 80.0, 160.0)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_high_freq_stability(self):
        pt = sp.eigen_branches(50.0, SYM_EQ)
        assert np.all(pt.lambdas.real < 0.0)


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
        for eq in (SYM_EQ, ASYM_EQ):
            for k in self._sample_ks():
                pt = sp.eigen_branches(float(k), eq)
                if pt.projectors is None:
                    continue
                P = pt.projectors
                I = np.eye(4)
                assert np.abs(P.sum(axis=0) - I).max() < 1e-8
                A = sp.symbol(float(k), eq)
                rec = np.einsum("i,ijk->jk", pt.lambdas, P)
                assert np.abs(rec - A).max() < 1e-8 * max(1.0, np.abs(A).max())
                for i in range(4):
                    for j in range(4):
                        prod = P[i] @ P[j]
                        ref = P[i] if i == j else 0.0
                        assert np.abs(prod - ref).max() < 1e-8
                checked += 1
        assert checked >= 200

    def test_conjugate_pair_low_band(self):
        for k in (0.01, 0.05, 0.09):
            pt = sp.eigen_branches(k, SYM_EQ, force_projectors=True)
            assert pt.lambdas[1] == pytest.approx(np.conj(pt.lambdas[0]))
            assert np.abs(pt.projectors[0] - np.conj(pt.projectors[1])).max() \
                < 1e-8

    def test_leading_projector_constants(self):
        # P1 entry (1,1) -> beta1 / (2(beta1+beta4)) as k -> 0
        for eq in (SYM_EQ, ASYM_EQ):
            pt = sp.eigen_branches(1e-3, eq, force_projectors=True)
            lead = eq.beta1 / (2.0 * (eq.beta1 + eq.beta4))
            assert pt.projectors[0][0, 0].real == pytest.approx(lead, rel=1e-2)

    def test_singular_entries_diverge_like_inverse_k(self):
        # (1,2) entries of P3 fit a/k with a -> -beta4/R_disc
        for eq in (SYM_EQ, ASYM_EQ):
            a3, _ = sp.singular_projector_coeffs(eq, 1e-3)
            expected = -eq.beta4 / eq.R_disc
            assert a3[0, 1].real == pytest.approx(expected, rel=1e-2)
            assert abs(a3[0, 1].imag) < 1e-6 * abs(expected)

    def test_singular_combination_cancels(self):
        for eq in (SYM_EQ, ASYM_EQ):
            assert sp.singular_combination_residual(eq, 1e-3) < 1e-6


class TestMidBandGap:
    def test_positive_and_grid_stable(self):
        b1 = sp.mid_band_gap(SYM_EQ, n_grid=2000)
        b2 = sp.mid_band_gap(SYM_EQ, n_grid=4000)
        assert b1 > 0.0
        assert abs(b1 - b2) < 0.01 * b1

    def test_degenerate_parameter_case(self):
        eq = solve_equilibrium(ModelParams(A_minus=1.7))  # sig+=sig-, mu+=mu-
        assert sp.mid_band_gap(eq) > 0.0


class TestSemigroup:
    def test_identity_at_t_zero(self):
        S = sp.semigroup(0.7, 0.0, SYM_EQ)
        assert np.abs(S - np.eye(4)).max() < 1e-12

    def test_dual_path_agreement(self):
        rng = np.random.default_rng(3)
        for eq in (SYM_EQ, ASYM_EQ):
            for _ in range(50):
                k = rng.uniform(1e-3, 20.0)
                t = rng.uniform(1e-3, 10.0)
                S1 = sp.semigroup(k, t, eq)
                S2 = scipy.linalg.expm(t * sp.symbol(k, eq))
                assert np.abs(S1 - S2).max() < 1e-8

    def test_low_band_decay_rate(self):
        # oscillatory part (sound-pair projection) decays like e^{-b1 k^2 t}
        k = 0.05
        pt = sp.eigen_branches(k, SYM_EQ, force_projectors=True)
        ts = np.linspace(200.0, 2000.0, 12)
        vals = []
        for t in ts:
            S_osc = (np.exp(pt.lambdas[0] * t) * pt.projectors[0]
                     + np.exp(pt.lambdas[1] * t) * pt.projectors[1])
            vals.append(np.abs(S_osc).max())
        slope = np.polyfit(ts, np.log(vals), 1)[0]
        assert slope == pytest.approx(-SYM_EQ.b1 * k * k, rel=0.05)

    def test_batch_matches_scalar(self):
        ks = np.array([0.02, 0.4, 3.0, 15.0])
        B = sp.semigroup_batch(ks, 1.7, ASYM_EQ)
        for i, k in enumerate(ks):
            S = scipy.linalg.expm(1.7 * sp.symbol(k, ASYM_EQ))
            assert np.abs(B[i] - S).max() < 1e-9

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ], ids=["sym", "asym"])
    def test_decomposition_matches_expm(self, eq):
        ks = np.concatenate([[0.0], np.logspace(-3, 1.3, 23)])
        dec = sp.decompose_symbol(ks, eq)
        assert len(dec.bad) == 0             # A(0) = 0 needs no expm
        assert dec.A_bad.shape == (0, 4, 4)
        for t in (0.0, 0.3, 2.0, 25.0):
            B = dec.semigroup(t)
            assert np.array_equal(B[0], np.eye(4))
            assert np.array_equal(B, sp.semigroup_batch(ks, t, eq))
            for i, k in enumerate(ks):
                S = scipy.linalg.expm(t * sp.symbol(k, eq))
                scale = max(1.0, np.abs(S).max())
                assert np.abs(B[i] - S).max() < 1e-9 * scale

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
        # the diffusive pair merges as k -> 0, so the eigenvector matrix at
        # k = 1e-10 has condition number above 1e8 and takes the expm route
        ks = np.array([1e-10, 0.5])
        dec = sp.decompose_symbol(ks, SYM_EQ)
        assert np.linalg.cond(dec.V[0]) > 1e8
        assert list(dec.bad) == [0]
        for t in (1.0, 100.0):
            S = scipy.linalg.expm(t * sp.symbol(ks[0], SYM_EQ))
            assert np.abs(dec.semigroup(t)[0] - S).max() < 1e-14

    def test_singular_eigenvectors_fall_back(self):
        # at sigma_minus = 1e100 eig returns exactly singular eigenvector
        # matrices on some nodes of the reconstructor's middle grid
        eq = solve_equilibrium(ModelParams(sigma_minus=1e100))
        ks = composite_gl(0.5 * sp.ETA1, 1.2 * sp.K_CUT, 256, 64).nodes
        dec = sp.decompose_symbol(ks, eq)
        # an exactly singular V has a zero pivot, so a zero determinant
        zero = np.flatnonzero(np.linalg.det(dec.V) == 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(dec.V[zero])
        assert set(zero.tolist()) <= set(dec.bad.tolist())
        assert np.isnan(dec.V_inv[zero]).all()

    def test_scalar_identity_at_k_zero(self):
        for t in (0.0, 1.0, 1e3):
            S = sp.semigroup(0.0, t, SYM_EQ)
            assert S.dtype == complex
            assert np.array_equal(S, np.eye(4))

    def test_entry_boundedness(self):
        # no entry blow-up on a broad (k, t) sweep
        for k in (0.01, 0.1, 1.0, 10.0):
            for t in (0.1, 1.0, 10.0, 100.0):
                S = sp.semigroup(k, t, SYM_EQ)
                assert np.abs(S).max() < 1.0 + 10.0 * k * t


class TestSpectrumRows:
    def test_sweep_structure(self):
        ks = np.logspace(-2, 1.5, 40)
        rows = sp.spectrum_rows(SYM_EQ, ks)
        assert len(rows) == 40
        bands = {r["band"] for r in rows}
        assert bands == {"low", "middle", "high"}
        low = [r for r in rows if r["band"] == "low"]
        assert all(np.isfinite(r["expansion_err1"]) for r in low)

    @pytest.mark.parametrize("eq", [SYM_EQ, ASYM_EQ], ids=["sym", "asym"])
    def test_rows_follow_the_eigen_branches_chain(self, eq):
        # the sweep labels without building projectors; its labels and
        # flags are those of eigen_branches chained the same way
        ks = np.logspace(-3, 2, 120)
        prev = None
        for k, row in zip(ks, sp.spectrum_rows(eq, ks)):
            pt = sp.eigen_branches(k, eq, prev=prev)
            if not pt.degenerate_flag:
                prev = pt
            assert (row["band"], row["degenerate"]) \
                == (pt.band, int(pt.degenerate_flag))
            lams = [complex(row[f"re_lambda{i}"], row[f"im_lambda{i}"])
                    for i in range(1, 5)]
            assert np.array_equal(lams, pt.lambdas)


# ---------------------------------------------------------------------------
# The per-k sweep: np.roots and one _assign call per k, verbatim as spectral
# computed it before the batched sweep.  It is the oracle of spectrum_rows.

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
        ("", ("--k-min", "1e-200", "--k-max", "1e-110")),
        # only c0 underflows
        ("", ("--k-min", "1e-76", "--k-max", "1e-40")),
    ], ids=["default", "asym", "complex-pair", "tiny-k", "c0-underflow"])
    def test_csv_matches_per_k_sweep(self, cfg, k_range, tmp_path,
                                     monkeypatch):
        params = tmp_path / "params.cfg"
        params.write_text(cfg)
        argv = ["--params", str(params), "spectrum", *k_range]
        assert main(["--out", str(tmp_path / "batched"), *argv]) == 0
        monkeypatch.setattr(sp, "spectrum_rows", spectrum_rows)
        assert main(["--out", str(tmp_path / "per_k"), *argv]) == 0
        assert (tmp_path / "batched" / "spectrum.csv").read_bytes() \
            == (tmp_path / "per_k" / "spectrum.csv").read_bytes()

    def test_one_eigvals_call_per_sweep(self, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or eigvals(a))
        sp.spectrum_rows(SYM_EQ, np.logspace(-3, 2, 400))
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
            rows = sp.spectrum_rows(SYM_EQ, ks)
        lams = np.array([[r[f"{part}_lambda{i}"] for part in ("re", "im")
                          for i in range(1, 5)] for r in rows])
        assert np.isfinite(lams).all()
