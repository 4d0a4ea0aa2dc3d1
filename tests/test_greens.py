"""Tests for the physical-space Green-function reconstruction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import erf

from twofluid.model import ModelParams, solve_equilibrium
from twofluid import greens, spectral
from twofluid.waveconv import WavePattern

SYM_EQ = solve_equilibrium(ModelParams())
ASYM_EQ = solve_equilibrium(ModelParams(A_minus=2.0, mu_minus=0.7,
                                        sigma_plus=0.02))


@pytest.fixture(scope="module")
def sym_recon():
    return greens.GreenReconstructor(SYM_EQ)


@pytest.fixture(scope="module")
def asym_recon():
    return greens.GreenReconstructor(ASYM_EQ)


class TestCutoffs:
    def test_shared_band_edges(self, sym_recon):
        # spectral owns the edges; the reconstructor's grids follow them
        assert spectral.band_of(spectral.ETA1) == "low"
        assert spectral.band_of(spectral.K_CUT) == "high"
        assert spectral.band_of(0.5 * (spectral.ETA1 + spectral.K_CUT)) \
            == "middle"
        # the low grid covers [1e-10, ETA1]
        assert sym_recon.kl[-1] < spectral.ETA1
        assert sym_recon.rules[0].weights.sum() == pytest.approx(
            spectral.ETA1 - 1e-10, rel=1e-14)
        k = np.linspace(0.0, 2.0 * spectral.K_CUT, 4001)
        mu = sym_recon._mid_window(k)
        outside = (k <= 0.5 * spectral.ETA1) | (k >= 1.2 * spectral.K_CUT)
        assert np.all(mu[outside] == 0.0)
        inside = (k >= spectral.ETA1) & (k <= spectral.K_CUT)
        assert np.all(mu[inside] == 1.0)

    def test_plateaus(self):
        k = np.array([0.0, 0.04, 0.05, 0.1, 0.2])
        chi = greens.chi_low(k)
        assert chi[0] == 1.0 and chi[1] == 1.0 and chi[2] == 1.0
        assert chi[3] == 0.0 and chi[4] == 0.0

    def test_range_and_interior(self):
        k = np.linspace(0.0, 0.2, 401)
        chi = greens.chi_low(k)
        assert np.all((chi >= 0.0) & (chi <= 1.0))
        mid = (k >= 0.06) & (k <= 0.09)
        assert np.all((chi[mid] > 0.0) & (chi[mid] < 1.0))

    @given(lo=st.floats(0.01, 1.0), width=st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, lo, width):
        k = np.linspace(0.0, lo + 2 * width, 257)
        b = greens.smooth_bump(k, lo, lo + width)
        assert np.all(np.diff(b) <= 1e-12)


class TestEnvelopes:
    def test_diffusion_closed_form(self):
        env = WavePattern("D", a=1.5, p=1.5)
        assert envclose(env, 0.0, 3.0, 4.0 ** -1.5)
        assert envclose(env, 2.0, 3.0, 4.0 ** -1.5 * 2.0 ** -1.5)

    def test_huygens_peaks_on_front(self):
        env = WavePattern("H", a=2.0, p=2.0, speed=2.0)
        t = 9.0
        rs = np.linspace(0.0, 50.0, 501)
        vals = env.value(rs, t)
        assert rs[np.argmax(vals)] == pytest.approx(2.0 * t, abs=0.1)

    def test_riesz_iv_is_d11(self):
        env = WavePattern("R4")
        assert env.value(3.0, 4.0) == \
            pytest.approx(1.0 / (5.0 * (1.0 + 9.0 / 5.0)))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            WavePattern("X", a=1.0, p=1.0)

    def test_core_front_overlap_counts_in_both(self):
        # at t = 1, c = 2 the core r <= sqrt 2 and the front |r - 2| <= sqrt 2
        # overlap on [2 - sqrt 2, sqrt 2]; the report counts such a point in
        # both regions (a first-match split would leave it out of "front")
        c, t0 = 2.0, 1.0
        env = [WavePattern("D", a=1.5, p=1.5)]

        def magnitude(rs, t):
            w = math.sqrt(1.0 + t)
            overlap = (t == t0) & (rs <= w) & (np.abs(rs - c * t) <= w)
            return env[0].value(rs, t) * np.where(overlap, 10.0, 1.0)

        rep = greens._certify("overlap", magnitude, env, c, t_lo=t0,
                              t_hi=4.0, n_t=2, nr=64)
        assert rep.C_by_region["core"] == pytest.approx(10.0, rel=1e-12)
        assert rep.C_by_region["front"] == pytest.approx(10.0, rel=1e-12)
        assert rep.C_by_region["elsewhere"] == pytest.approx(1.0, rel=1e-12)


def _low_band(factor, fhat, rs):
    """radial_inverse of fhat under chi_low, on 96 panels up to ETA1."""
    return greens.radial_inverse(
        factor, lambda k: fhat(k) * greens.chi_low(k), rs,
        k_max=spectral.ETA1, n_panels=96)


def envclose(env, r, t, val):
    return env.value(r, t) == pytest.approx(val, rel=1e-12)


class TestRadialTransforms:
    """Closed-form heat-semigroup oracles for each tensor factor."""

    rs = np.linspace(0.0, 10.0, 41)

    def _kern(self, factor, profile, t):
        return greens.radial_inverse(factor, lambda k: profile(k, t), self.rs)

    def test_scalar_heat_kernel(self):
        for t in (0.5, 1.0, 10.0):
            kern = self._kern("scalar", lambda k, tt: np.exp(-k * k * tt), t)
            exact = (4 * math.pi * t) ** -1.5 * np.exp(-self.rs ** 2 / (4 * t))
            assert np.abs(kern["amp"] - exact).max() < 1e-12

    def test_scalar_origin_value(self):
        kern = self._kern("scalar", lambda k, tt: np.exp(-k * k * tt), 1.0)
        assert kern["amp"][0] == pytest.approx(
            (4 * math.pi) ** -1.5, rel=1e-12)

    def test_vector_gradient_of_heat(self):
        # i xi e^{-|xi|^2 t} inverts to grad of the heat kernel
        for t in (0.5, 2.0):
            kern = self._kern("riesz_vector",
                              lambda k, tt: k * np.exp(-k * k * tt), t)
            exact = -(self.rs / (2 * t)) * (4 * math.pi * t) ** -1.5 \
                * np.exp(-self.rs ** 2 / (4 * t))
            assert np.abs(kern["amp"] - exact).max() < 1e-12
            assert kern["amp"][0] == 0.0

    def test_matrix_heat_riesz(self):
        # xi xi^T/|xi|^2 e^{-|xi|^2 t}: potential is erf(r/2 sqrt t)/(4 pi r)
        t = 1.5
        kern = self._kern("riesz_matrix", lambda k, tt: np.exp(-k * k * tt), t)
        a = 1.0 / (2.0 * math.sqrt(t))
        r = self.rs[1:]
        G = erf(a * r) / (4 * math.pi * r)
        g = (2 / math.sqrt(math.pi)) * a * np.exp(-(a * r) ** 2)
        gp = (2 / math.sqrt(math.pi)) * (-2 * a ** 3 * r) \
            * np.exp(-(a * r) ** 2)
        Gp = g / (4 * math.pi * r) - erf(a * r) / (4 * math.pi * r ** 2)
        Gpp = gp / (4 * math.pi * r) - 2 * g / (4 * math.pi * r ** 2) \
            + 2 * erf(a * r) / (4 * math.pi * r ** 3)
        assert np.abs(kern["long"][1:] + Gpp).max() < 1e-12
        assert np.abs(kern["trans"][1:] + Gp / r).max() < 1e-12
        at0 = (math.sqrt(math.pi) / 4) * t ** -1.5 / (6 * math.pi ** 2)
        assert kern["long"][0] == pytest.approx(at0, rel=1e-10)
        assert kern["trans"][0] == pytest.approx(at0, rel=1e-10)

    def test_cutoff_grid_heat_kernel(self):
        # at t = 2e4 the heat profile is down to e^-50 where chi_low leaves
        # 1, so the low-band transform meets the same closed forms
        t = 2.0e4
        rs = np.linspace(0.0, 6.0 * math.sqrt(t), 41)
        heat = (4 * math.pi * t) ** -1.5 * np.exp(-rs ** 2 / (4 * t))
        kern = _low_band("scalar", lambda k: np.exp(-k * k * t), rs)
        assert np.abs(kern["amp"] - heat).max() < 1e-12 * heat.max()
        kern = _low_band("riesz_vector", lambda k: k * np.exp(-k * k * t), rs)
        grad = -(rs / (2 * t)) * heat
        assert np.abs(kern["amp"] - grad).max() \
            < 1e-12 * np.abs(grad).max()

    def test_complement_sums_with_riesz(self):
        # complement + riesz_matrix = scalar, componentwise
        t = 0.7
        prof = lambda k, tt: np.exp(-k * k * tt) * (1 + k * k)
        s = self._kern("scalar", prof, t)["amp"]
        m = self._kern("riesz_matrix", prof, t)
        c = self._kern("complement", prof, t)
        assert np.abs(m["long"] + c["long"] - s).max() < 1e-13
        assert np.abs(m["trans"] + c["trans"] - s).max() < 1e-13


# ---------------------------------------------------------------------------
# reference oracle: the per-factor radial transforms the one-pass _transform
# replaced, kept verbatim (one sinc, sin or cos table per moment).

def _scalar_values(k, w, p, rs):
    M = np.sinc(np.outer(k, rs) / np.pi)
    return (w * k * k * p) @ M / (2.0 * math.pi ** 2)


def _vector_values(k, w, p, rs):
    rs = np.asarray(rs, dtype=float)
    out = np.zeros(rs.shape, dtype=np.result_type(p, float))
    pos = rs > 0.0
    r = rs[pos]
    kr = np.outer(k, r)
    cos_t = (w * p * k) @ np.cos(kr)
    sin_t = (w * p) @ np.sin(kr)
    out[pos] = (cos_t / r - sin_t / r ** 2) / (2.0 * math.pi ** 2)
    return out


def _matrix_values(k, w, p, rs):
    """Longitudinal and transverse amplitudes of the xi xi^T/|xi|^2 factor."""
    rs = np.asarray(rs, dtype=float)
    dtype = np.result_type(p, float)
    long = np.zeros(rs.shape, dtype=dtype)
    trans = np.zeros(rs.shape, dtype=dtype)
    at0 = (w * k * k * p).sum() / (6.0 * math.pi ** 2)
    long[~(rs > 0.0)] = at0
    trans[~(rs > 0.0)] = at0
    pos = rs > 0.0
    r = rs[pos]
    kr = np.outer(k, r)
    sin_kr = np.sin(kr)
    sin_k = (w * p * k) @ sin_kr         # int p k sin(kr)
    sin_m = (w * p / k) @ sin_kr         # int (p/k) sin(kr)
    del sin_kr
    cos_0 = (w * p) @ np.cos(kr)         # int p cos(kr)
    Gp = (cos_0 / r - sin_m / r ** 2) / (2.0 * math.pi ** 2)
    Gpp = (-sin_k / r - 2.0 * cos_0 / r ** 2 + 2.0 * sin_m / r ** 3) \
        / (2.0 * math.pi ** 2)
    long[pos] = -Gpp
    trans[pos] = -Gp / r
    return long, trans


def _reference_transform(factor, k, w, p, rs):
    if factor == "scalar":
        return {"amp": _scalar_values(k, w, p, rs)}
    if factor in ("riesz_vector", "riesz_vector_t"):
        return {"amp": _vector_values(k, w, p, rs)}
    lo, tr = _matrix_values(k, w, p, rs)
    if factor == "riesz_matrix":
        return {"long": lo, "trans": tr}
    s = _scalar_values(k, w, p, rs)
    return {"long": s - lo, "trans": s - tr}


FACTORS = ("scalar", "riesz_vector", "riesz_vector_t", "riesz_matrix",
           "complement")


class TestOnePassTransform:
    """The one-pass _transform against the per-factor reference."""

    @staticmethod
    def _close(got, want):
        assert set(got) == set(want)
        for name in want:
            scale = np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= 1e-11 * scale

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0, greens.T_MAX])
    def test_every_factor_on_the_green_grid(self, sym_recon, factor, t):
        # t = T_MAX reaches the widest oscillation the grids are kept for
        rec = sym_recon
        k = rec.k_all
        w = np.concatenate([rule.weights for rule in rec.rules])
        p = rec.entry_profile(1, 2, t)[0]
        rs = np.linspace(0.0, 4.0 * rec.eq.c * t, 96)
        self._close(greens._transform(factor, rec.rules, p, rs),
                    _reference_transform(factor, k, w, p, rs))

    @pytest.mark.parametrize("factor", FACTORS)
    def test_complex_profile(self, factor):
        rule = greens.composite_gl(1e-6, 8.0, 40, 16)
        k, w = rule.nodes, rule.weights
        p = np.exp(-(0.3 + 1.0j) * k * k) * (1.0 + 0.5j * k)
        rs = np.linspace(0.0, 12.0, 50)
        got = greens._transform(factor, (rule,), p, rs)
        assert all(np.iscomplexobj(v) for v in got.values())
        self._close(got, _reference_transform(factor, k, w, p, rs))

    @pytest.mark.parametrize("i", [2, 4])
    def test_heat_joins_the_matrix_pass(self, asym_recon, i):
        # riesz_matrix(p) + complement(h), each transformed on its own
        rec = asym_recon
        k, t = rec.k_all, 20.0
        w = np.concatenate([rule.weights for rule in rec.rules])
        p = rec.entry_profile(i, i, t)[0]
        nu1 = rec.eq.nu1_plus if i == 2 else rec.eq.nu1_minus
        h = np.exp(-nu1 * k ** 2 * t) * rec.window
        rs = np.linspace(0.0, 4.0 * rec.eq.c * t, 80)
        m = _reference_transform("riesz_matrix", k, w, p, rs)
        c = _reference_transform("complement", k, w, h, rs)
        want = {name: m[name] + c[name] for name in m}
        self._close(greens._transform("riesz_matrix", rec.rules, p, rs,
                                      heat=h), want)
        self._close(rec.entry_values(i, i, rs, t), want)

    def test_unknown_factor_rejected(self):
        rule = greens.composite_gl(0.1, 1.0, 2, 4)
        with pytest.raises(ValueError):
            greens._transform("tensor", (rule,), np.ones_like(rule.nodes),
                              [1.0])

    def test_one_transform_path(self, sym_recon, monkeypatch):
        # radial_inverse and entry_values both reach the panel sums
        calls = []
        panel_sums = greens._trig_sums

        def counted(rules, rows, r):
            calls.append(sum(g.nodes.size for g in rules))
            return panel_sums(rules, rows, r)

        monkeypatch.setattr(greens, "_trig_sums", counted)
        rs = np.linspace(0.0, 20.0, 9)
        _low_band("scalar", lambda k: np.exp(-k * k), rs)
        sym_recon.entry_values(2, 2, rs, 1.0)
        assert calls == [96 * 32, sym_recon.k_all.size]


def _composite_gl_nodes_weights(a, b, n_panels, n_nodes):
    """composite_gl's nodes and weights before it exposed its panels."""
    x, w = leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@pytest.mark.parametrize("a,b,n_panels,n_nodes", [
    (1e-10, spectral.ETA1, 64, 32),
    (0.5 * spectral.ETA1, 1.2 * spectral.K_CUT, 256, 64),
    (1e-12, 40.0, 200, 32),
    (1e-6, 8.0, 40, 16),
    (0.1, 1.0, 2, 4),
])
def test_composite_gl_panel_structure(a, b, n_panels, n_nodes):
    rule = greens.composite_gl(a, b, n_panels, n_nodes)
    nodes, weights = _composite_gl_nodes_weights(a, b, n_panels, n_nodes)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    # node (p, j) = mid[p] + half x[j], up to the rounding of the panel
    # edges: within one unit in the last place of the interval end
    x, w = leggauss(n_nodes)
    assert np.array_equal(rule.x, x)
    assert rule.mid.shape == (n_panels,)
    rebuilt = (rule.mid[:, None] + rule.half * x[None, :]).ravel()
    assert np.abs(rebuilt - nodes).max() <= np.spacing(max(abs(a), abs(b)))
    assert np.abs(np.tile(rule.half * w, n_panels) - weights).max() \
        <= 1e-13 * weights.max()


class TestCoefficientMatrices:
    def test_time_zero_identity(self):
        for eq in (SYM_EQ, ASYM_EQ):
            MP, MM, M3r, M3s, M4r, M4s = greens.coefficient_matrices(eq)
            assert np.abs(MP + M3r + M4r - np.eye(4)).max() < 1e-12
            assert np.abs(M3s + M4s).max() == 0.0

    def test_weighted_rows_kill_singular_parts(self):
        for eq in (SYM_EQ, ASYM_EQ):
            _, _, _, M3s, _, _ = greens.coefficient_matrices(eq)
            combo = eq.beta1 * M3s[0] + eq.beta2 * M3s[2]
            assert np.abs(combo).max() < 1e-14

    def test_leading_matrices_match_projectors(self):
        # spectral projectors at small k agree with the constant matrices
        # up to O(k) corrections
        k = 1e-3
        for eq in (SYM_EQ, ASYM_EQ):
            MP, MM, M3r, M3s, M4r, M4s = greens.coefficient_matrices(eq)
            pt = spectral.eigen_branches(k, eq, force_projectors=True)
            P1, P3, P4 = pt.projectors[0], pt.projectors[2], pt.projectors[3]
            assert np.abs(2 * P1.real - MP).max() < 5e-3
            assert np.abs(P3 - (M3r + M3s / k)).max() < 5e-3 / k * 1e-2
            assert np.abs(P4 - (M4r + M4s / k)).max() < 5e-3 / k * 1e-2

    def test_entry_structure(self):
        assert greens.tensor_kind(1, 1) == "scalar"
        assert greens.tensor_kind(1, 2) == "riesz_vector_t"
        _, _, _, M3s, _, M4s = greens.coefficient_matrices(SYM_EQ)
        assert M3s[0, 1] != 0.0 and M4s[0, 1] != 0.0    # 1/k singular part
        assert greens.tensor_kind(2, 2) == "riesz_matrix"


class TestReconstruction:
    def test_fft_oracle(self, sym_recon):
        # independent 3-D FFT of the same band-limited symbol
        n, dx, t = 128, 0.25, 2.0
        fx = 2 * math.pi * np.fft.fftfreq(n, d=dx)
        KX, KY, KZ = np.meshgrid(fx, fx, fx, indexing="ij")
        K = np.sqrt(KX ** 2 + KY ** 2 + KZ ** 2)
        rs = np.arange(1, 41) * dx
        for (i, j, vector) in ((1, 1, False), (1, 2, True)):
            P = sym_recon.full_profile(i, j, K, t).astype(complex)
            if vector:
                P = P * (1j * KX / np.where(K > 0, K, 1.0))
                P[0, 0, 0] = 0.0
            kern3 = np.fft.ifftn(P) / dx ** 3
            assert np.abs(kern3.imag).max() < 1e-12
            fvals = kern3[1:41, 0, 0].real
            rvals = sym_recon.entry_values(i, j, rs, t)["amp"]
            peak = np.abs(fvals).max()
            sel = np.abs(fvals) > 0.3 * peak
            assert np.abs(fvals - rvals)[sel].max() / peak < 1e-6

    @pytest.mark.parametrize("recon", ["sym_recon", "asym_recon"])
    @pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2),
                                     (4, 4), (2, 4)])
    def test_single_pass_matches_banded_sum(self, recon, i, j, request):
        # reference: each band transformed on its own grid, the shear
        # entries adding the windowed heat profile under the complement
        rec = request.getfixturevalue(recon)
        kind = greens.tensor_kind(i, j)
        rs = np.linspace(0.0, 800.0, 64)
        for t in (1.0, 10.0, 100.0):
            low, mid = rec.rules
            p = rec.entry_profile(i, j, t)[0]
            bands = ((low, p[:low.nodes.size], rec.chi_l),
                     (mid, p[low.nodes.size:], rec.mu_m))
            want: dict = {}
            for rule, p, window in bands:
                terms = [greens._transform(kind, (rule,), p, rs)]
                if kind == "riesz_matrix" and i == j:
                    nu1 = rec.eq.nu1_plus if i == 2 else rec.eq.nu1_minus
                    h = np.exp(-nu1 * rule.nodes ** 2 * t) * window
                    terms.append(greens._transform("complement", (rule,), h,
                                                   rs))
                for term in terms:
                    for name, v in term.items():
                        want[name] = want.get(name, 0.0) + v
            got = rec.entry_values(i, j, rs, t)
            assert set(got) == set(want)
            scale = max(np.abs(v).max() for v in want.values())
            for name in want:
                assert np.abs(got[name] - want[name]).max() <= 1e-11 * scale

    @pytest.mark.parametrize("recon", ["sym_recon", "asym_recon"])
    def test_batched_labels_match_per_node_loop(self, recon, request):
        # branch_lambdas as it was: one linear_sum_assignment per node
        rec = request.getfixturevalue(recon)
        raw = np.linalg.eigvals(spectral.symbol(rec.kl, rec.eq))
        ref = spectral.low_freq_expansion(rec.kl, rec.eq)
        want = np.empty_like(raw)
        for i in range(len(rec.kl)):
            cost = np.abs(raw[i][None, :] - ref[i][:, None])
            _, cols = linear_sum_assignment(cost)
            want[i] = raw[i][cols]
        assert np.array_equal(greens.branch_lambdas(rec.kl, rec.eq), want)
        assert np.array_equal(rec.lam_l, want)

    @pytest.mark.parametrize("recon", ["sym_recon", "asym_recon"])
    def test_mid_semigroup_matches_fresh_batch(self, recon, request):
        rec = request.getfixturevalue(recon)
        for t in (0.5, 7.0, 100.0):
            want = spectral.semigroup_batch(rec.km, t, rec.eq).real
            for i in range(1, 5):
                for j in range(1, 5):
                    got = rec.mid.entry(i - 1, j - 1, t).real
                    assert got.shape == (len(rec.km),)
                    assert np.abs(got - want[:, i - 1, j - 1]).max() \
                        <= 1e-12 * np.abs(want).max()

    def test_no_per_time_state(self):
        rec = greens.GreenReconstructor(SYM_EQ, low_panels=8, mid_panels=16)
        before = {name: (id(v), getattr(v, "nbytes", None))
                  for name, v in vars(rec).items()}
        rs = np.linspace(0.0, 40.0, 16)
        for t in (1.0, 2.5, 10.0, 10.0 + 1e-9, 33.0):
            rec.entry_values(2, 2, rs, t)
            rec.entry_profile(2, 2, t)
        after = {name: (id(v), getattr(v, "nbytes", None))
                 for name, v in vars(rec).items()}
        assert after == before
        assert not any(isinstance(v, dict) for v in vars(rec).values())

    def test_realness(self, sym_recon):
        rs = np.linspace(0.0, 50.0, 64)
        for (i, j) in ((1, 1), (1, 2), (2, 2), (3, 2)):
            for arr in sym_recon.entry_values(i, j, rs, 5.0).values():
                assert not np.iscomplexobj(arr)
                assert np.all(np.isfinite(arr))

    def test_transpose_entry_parity(self, sym_recon):
        # (2,1) carries -i xi-hat, (1,2) carries +i xi-hat; for symmetric
        # parameters the scalar profiles coincide up to the sign pattern
        # of the coefficient matrices, so magnitudes stay finite and real
        rs = np.linspace(0.0, 30.0, 64)
        m12 = sym_recon.entry_magnitude(1, 2, rs, 3.0)
        m21 = sym_recon.entry_magnitude(2, 1, rs, 3.0)
        assert np.all(np.isfinite(m12)) and np.all(np.isfinite(m21))

    def test_high_frequency_mass_decays(self, sym_recon):
        # L^2 mass of the symbol above the cutoff dies at the slow
        # viscous-capillary rate of the band edge
        eq = SYM_EQ
        K = spectral.K_CUT
        ks = np.linspace(K, 1.2 * K, 64)
        b_hf = np.abs(np.linalg.eigvals(
            spectral.symbol(np.array([K]), eq)).real).min()
        ts = np.linspace(0.5, 2.0, 7)
        mass = []
        for t in ts:
            S = spectral.semigroup_batch(ks, t, eq).real
            mass.append(np.trapezoid(ks ** 2 * S[:, 0, 0] ** 2, ks))
        rate = -np.polyfit(ts, np.log(mass), 1)[0]
        assert rate >= 1.7 * b_hf


class TestWavePatterns:
    def test_riesz_iv_amplitude_decay(self):
        # peak of the 1/k singular part of G12 falls off like (1+t)^-1
        eq = SYM_EQ
        _, _, _, M3s, _, M4s = greens.coefficient_matrices(eq)

        def prof(k, t):
            lam = greens.branch_lambdas(k, eq)
            return (M3s[0, 1] * np.exp(lam[:, 2] * t).real
                    + M4s[0, 1] * np.exp(lam[:, 3] * t).real) / k

        # the power law needs the slow diffusive mode localized inside the
        # band, i.e. t well beyond 1/(|lam3_tilde| eta1^2) ~ 1e4
        ts = np.array([3e4, 6e4, 1.2e5, 2.4e5, 4.8e5])
        peaks = []
        for t in ts:
            rs = np.linspace(0.0, 25 * math.sqrt(1 + t), 600)
            kern = _low_band("riesz_vector", lambda k: prof(k, t), rs)
            peaks.append(np.abs(kern["amp"]).max())
        slope = -np.polyfit(np.log(1 + ts), np.log(peaks), 1)[0]
        assert 0.85 <= slope <= 1.1

    def test_ring_moves_at_sound_speed(self, sym_recon):
        rec = sym_recon
        eq = SYM_EQ
        MP, MM, _, _, _, _ = greens.coefficient_matrices(eq)

        def ringpos(t):
            damp = np.exp(rec.lam_l[:, 0].real * t)
            p = (MP[0, 1] * damp * np.cos(rec.lam_l[:, 0].imag * t)
                 + MM[0, 1] * damp * np.sin(rec.lam_l[:, 0].imag * t)) \
                * rec.chi_l
            rs = np.linspace(0.5, 2.5 * eq.c * t, 3000)
            vals = np.abs(greens._transform("riesz_vector", rec.rules[:1],
                                            p, rs)["amp"])
            return rs[np.argmax(vals)]

        ts = np.array([200.0, 400.0, 800.0, 1600.0])
        pos = np.array([ringpos(t) for t in ts])
        speed = np.polyfit(ts, pos, 1)[0]
        assert speed == pytest.approx(eq.c, rel=0.02)
        # offsets stay within the wave-packet width sqrt(2 b1 t) plus the
        # band-limiting resolution scale
        for t, r in zip(ts, pos):
            assert abs(r - eq.c * t) <= 2 * math.sqrt(2 * eq.b1 * t) + 35.0


class TestEnvelopeCertification:
    def test_riesz_iv_entry_passes(self, sym_recon):
        rep = greens.verify_entry_envelope(
            sym_recon, 1, 2,
            [WavePattern("R4"),
             WavePattern("H", a=2.0, p=2.0, speed=SYM_EQ.c)])
        assert rep.passed
        assert rep.trend_ratio <= 2.0
        assert set(rep.C_by_region) == {"core", "front", "elsewhere"}
        assert rep.to_json()["pass"] is True

    def test_velocity_entry_passes(self, sym_recon):
        rep = greens.verify_entry_envelope(
            sym_recon, 2, 2,
            [WavePattern("D", a=1.5, p=1.5),
             WavePattern("H", a=2.0, p=2.0, speed=SYM_EQ.c)])
        assert rep.passed

    def test_too_strong_envelope_fails(self, sym_recon):
        # G12 cannot satisfy the faster-decaying velocity-entry bound;
        # its deficiency grows like the half power of t left over from
        # the Riesz-IV part
        rep = greens.verify_entry_envelope(
            sym_recon, 1, 2,
            [WavePattern("D", a=1.5, p=1.5),
             WavePattern("H", a=2.0, p=2.0, speed=SYM_EQ.c)])
        assert not rep.passed
        assert 0.3 <= rep.growth_slope <= 0.65

    def test_cancellation_combination(self, asym_recon):
        rep = greens.verify_cancellation(asym_recon)
        assert rep.passed
        bad = greens.verify_cancellation(asym_recon, swap_weights=True)
        assert not bad.passed
        assert bad.C_est > 5 * rep.C_est

    def test_kernel_csv_rows(self, sym_recon):
        rows = greens.kernel_csv_rows(sym_recon, 1, 1, [1.0, 4.0], nr=16)
        assert len(rows) == 32
        assert set(rows[0]) == {"r", "t", "value"}
        assert all(np.isfinite(row["value"]) for row in rows)
