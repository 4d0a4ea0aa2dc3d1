"""Tests for the wave-pattern convolution certifications."""

from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

from twofluid import greens, waveconv as wc
from twofluid.model import ParameterError

C_SND = 2.0


# ---------------------------------------------------------------------------
# reference oracle: the depth-first, one-panel-at-a-time quadrature the
# breadth-first batched engine replaced, kept verbatim.  Both accept the
# same panels, so they agree to round-off (only the summation order moved).

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)


def _panel(f, lo, hi):
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    c8 = half * (_GL8[1] @ f(mid + half * _GL8[0]))
    c16 = half * (_GL16[1] @ f(mid + half * _GL16[0]))
    return c16, abs(c16 - c8)


def _ref_adaptive_quad(f, a: float, b: float, splits=(), rel_tol: float = 1e-7,
                       abs_tol: float = 0.0, max_depth: int = 14) -> float:
    """Adaptive panel quadrature with forced splits at interior points."""
    pts = sorted({a, b} | {s for s in splits if a < s < b})
    panels = [(lo, hi, 0) for lo, hi in zip(pts[:-1], pts[1:])]
    rough = sum(_panel(f, lo, hi)[0] for lo, hi, _ in panels)
    scale = rel_tol * abs(rough) + abs_tol
    total = 0.0
    stack = list(panels)
    while stack:
        lo, hi, depth = stack.pop()
        val, err = _panel(f, lo, hi)
        if err <= scale * (hi - lo) / (b - a) or depth >= max_depth:
            total += val
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total


def _ref_adaptive_quad_to_inf(f, a: float, U0: float, splits=(),
                              rel_tol: float = 1e-7, abs_tol: float = 0.0,
                              max_doublings: int = 48) -> float:
    total = _ref_adaptive_quad(f, a, U0, splits, rel_tol, abs_tol)
    lo = U0
    for _ in range(max_doublings):
        hi = 2.0 * lo
        inc = _ref_adaptive_quad(f, lo, hi, (), rel_tol, abs_tol)
        total += inc
        if abs(inc) <= 0.5 * (rel_tol * abs(total) + abs_tol):
            return total
        lo = hi
    raise RuntimeError("tail of radial integral did not converge")


def _ref_angular_reduce(r: float, F, G, F_prim=None, splits=(),
                        U0: float = 64.0, rel_tol: float = 1e-7,
                        abs_tol: float = 1e-13) -> float:
    if r < 1e-9:
        integrand = lambda u: 4.0 * math.pi * u * u * F(u) * G(u)
        return _ref_adaptive_quad_to_inf(integrand, 0.0, U0, splits,
                                         rel_tol, abs_tol)

    if F_prim is None:
        inner = lambda u: _ref_inner_integral(F, r, u)
    else:
        def inner(u):
            return F_prim(r + u) - F_prim(np.abs(r - u))

    integrand = lambda u: (2.0 * math.pi / r) * u * G(u) * inner(u)
    return _ref_adaptive_quad_to_inf(integrand, 0.0, max(U0, 2.0 * r),
                                     splits, rel_tol, abs_tol)


def _ref_inner_integral(F, r: float, u) -> np.ndarray:
    """int_{|r-u|}^{r+u} z F(z) dz at each entry of the array u, by
    48-point Gauss-Legendre."""
    zg = np.polynomial.legendre.leggauss(48)
    out = np.empty_like(u)
    for idx, uu in np.ndenumerate(u):
        lo, hi = abs(r - uu), r + uu
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        zz = mid + half * zg[0]
        out[idx] = half * (zg[1] @ (zz * F(zz)))
    return out


def angular_reduce(r: float, F, G, F_int=None, splits=(),
                   U0: float = 64.0, rel_tol: float = 1e-7,
                   abs_tol: float = 1e-13) -> float:
    """The batched angular reduction at one radius r, with radial functions
    F(z), G(u) and the inner integral F_int(r, u); without F_int, the
    reference's 48-point Gauss-Legendre inner integral."""
    if F_int is None:
        F_int = lambda x, u: _ref_inner_integral(F, float(r), u)
    out = wc._angular_batch(
        np.array([float(r)]), lambda z, j: F(z), lambda u, j: G(u),
        lambda x, u, j: F_int(x, u),
        np.array([list(splits)], dtype=float).reshape(1, -1),
        np.array([float(U0)]), rel_tol, np.array([float(abs_tol)]),
        wc.QuadStats())
    return float(out[0])


def _ref_eval_spacetime_conv(case, r: float, t: float,
                             rel_tol: float = 1e-7) -> float:
    if t <= 0.0:
        return 0.0
    g, s = case.green_pattern, case.source_pattern
    c = case.speed
    abs_tol = 1e-10 / (1.0 + t)

    def space_value(sg: float, ss: float) -> float:
        splits = [x for x in (c * ss, abs(r - c * sg), r + c * sg)
                  if x > 0.0]
        U0 = max(64.0, r + c * t + 8.0 * math.sqrt(1.0 + t))
        return _ref_angular_reduce(
            r, lambda z: g.spatial(z, sg), lambda u: s.spatial(u, ss),
            F_prim=lambda z: g.z_primitive(z, sg), splits=splits,
            U0=U0, rel_tol=rel_tol, abs_tol=abs_tol)

    if case.spatial_only:
        return space_value(t, 0.0)

    def tau_integrand(taus):
        out = np.empty_like(taus)
        for idx, tau in enumerate(taus):
            pref = g.time_factor(t - tau) * s.time_factor(tau)
            out[idx] = pref * space_value(t - tau, tau)
        return out

    t_end = case.tau_cap * t
    splits = {t / 4.0, t / 2.0, 3.0 * t / 4.0}
    for peak in (r / c, t - r / c):
        if 0.0 < peak < t_end:
            splits.add(peak)
    return _ref_adaptive_quad(tau_integrand, 0.0, t_end,
                              sorted(x for x in splits if 0.0 < x < t_end),
                              rel_tol=1e-5, abs_tol=abs_tol, max_depth=8)


class TestWavePattern:
    def test_r4_alias(self):
        p = wc.WavePattern("R4")
        assert p.a == 1.0 and p.p == 1.0
        d = wc.WavePattern("D", a=1.0, p=1.0)
        rs = np.linspace(0.0, 30.0, 50)
        assert np.allclose(p.value(rs, 7.0), d.value(rs, 7.0))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            wc.WavePattern("X")

    def test_huygens_center(self):
        p = wc.WavePattern("H", a=2.0, p=2.0, speed=C_SND)
        t = 9.0
        rs = np.linspace(0.0, 40.0, 801)
        vals = p.value(rs, t)
        assert rs[np.argmax(vals)] == pytest.approx(C_SND * t, abs=0.1)

    @given(r=st.floats(0.0, 100.0), t=st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_everywhere(self, r, t):
        for p in (wc.WavePattern("D", a=1.5, p=1.5),
                  wc.WavePattern("H", a=2.0, p=8.0, speed=C_SND),
                  wc.WavePattern("algebraic", r_alg=2.0)):
            assert p.value(r, t) > 0.0


class TestPrimitives:
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, 8.0])
    def test_even_primitive_oracle(self, q):
        for w in (-3.0, -0.4, 0.7, 2.0, 10.0):
            exact, _ = quad(lambda s: (1 + s * s) ** (-q), 0.0, w)
            assert wc._even_primitive(w, q) == pytest.approx(exact, rel=1e-10,
                                                             abs=1e-12)

    def test_even_primitive_rejects_other_exponents(self):
        with pytest.raises(ValueError):
            wc._even_primitive(1.0, 1.9)

    @pytest.mark.parametrize("pattern", [
        wc.WavePattern("D", a=1.0, p=1.0),
        wc.WavePattern("D", a=2.0, p=1.5),
        wc.WavePattern("H", a=4.0, p=2.0, speed=C_SND),
        wc.WavePattern("H", a=2.0, p=8.0, speed=C_SND),
        wc.WavePattern("algebraic", r_alg=2.0),
    ])
    def test_z_primitive_matches_quadrature(self, pattern):
        s = 5.0
        for z1, z2 in ((0.0, 3.0), (2.0, 17.5), (9.0, 11.0)):
            exact, _ = quad(lambda z: z * pattern.spatial(z, s), z1, z2,
                            limit=200)
            got = pattern.z_primitive(z2, s) - pattern.z_primitive(z1, s)
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("pattern", [
        wc.WavePattern("D", a=2.0, p=2.0),
        wc.WavePattern("D", a=2.0, p=1.5),
        wc.WavePattern("R4"),
        wc.WavePattern("algebraic", r_alg=2.0),
    ])
    def test_z_integral_without_cancellation(self, pattern):
        # at u << r the two ends' primitives agree to 1e-9 and their
        # difference lost that much (measured up to 4e-9); the oracle
        # integrates over z = r + u x, x in [-1, 1], so no end is rounded
        s = 5.0
        for r, u in ((3.0, 0.5), (40.0, 1e-6), (1e3, 1e-4)):
            exact, _ = quad(lambda x: u * (r + u * x)
                            * pattern.spatial(r + u * x, s), -1.0, 1.0,
                            epsrel=1e-14)
            assert pattern.z_integral(r, u, s) == pytest.approx(exact,
                                                                rel=1e-14)
        exact, _ = quad(lambda z: z * pattern.spatial(z, s), 2.5, 3.5,
                        epsrel=1e-14)
        assert pattern.z_integral(0.5, 3.0, s) == pytest.approx(exact,
                                                                rel=1e-14)


class TestAngularReduce:
    def test_gaussian_self_convolution(self):
        # e^{-|x|^2} * e^{-|x|^2} = (pi/2)^{3/2} e^{-|x|^2/2}
        F = lambda z: np.exp(-z * z)
        for r in (0.0, 0.5, 1.0, 2.5):
            got = angular_reduce(r, F, F, U0=16.0)
            exact = (math.pi / 2.0) ** 1.5 * math.exp(-r * r / 2.0)
            assert got == pytest.approx(exact, rel=1e-8)

    def test_support_bound(self):
        # sharp bumps at radius 1 convolve to nothing beyond radius 2
        F = lambda z: np.exp(-((z - 1.0) / 0.1) ** 8)
        inside = angular_reduce(1.5, F, F, U0=8.0)
        outside = angular_reduce(2.6, F, F, U0=8.0)
        assert inside > 1e-3
        assert abs(outside) < 1e-10 * inside

    def test_small_r_limit(self):
        F = lambda z: np.exp(-z * z)
        G = lambda z: (1.0 + z * z) ** -3.0
        exact, _ = quad(lambda u: 4 * math.pi * u * u * F(u) * G(u),
                        0.0, 30.0)
        for r in (0.0, 1e-3):
            assert angular_reduce(r, F, G, U0=16.0) == \
                pytest.approx(exact, rel=1e-6)

    def test_i1_closed_form(self):
        # int (1+|y|^2)^{-2} dy = pi^2
        alg = wc.WavePattern("algebraic", r_alg=2.0)
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        got = angular_reduce(0.0, one, lambda u: alg.spatial(u, 0.0))
        assert got == pytest.approx(math.pi ** 2, rel=1e-6)


class TestRegions:
    def test_examples(self):
        assert wc.region_tag(1.0, 8.0, C_SND) == "D1"
        assert wc.region_tag(16.5, 8.0, C_SND) == "D2"
        assert wc.region_tag(30.0, 8.0, C_SND) == "D3"
        assert wc.region_tag(5.0, 8.0, C_SND) == "D4"
        assert wc.region_tag(12.0, 8.0, C_SND) == "D5"

    def test_overlap_is_first_match(self):
        # at t = 1 the core and the front overlap on [2 - sqrt 2, sqrt 2]
        assert wc.region_tag(1.0, 1.0, C_SND) == "D1"
        core, front = wc.core_front_masks(np.array([1.0, 2.0]), 1.0, C_SND)
        assert core.tolist() == [True, False]
        assert front.tolist() == [True, True]

    def test_boundaries_deterministic(self):
        t = 8.0
        w = math.sqrt(1.0 + t)
        assert wc.region_tag(w, t, C_SND) == "D1"
        assert wc.region_tag(C_SND * t - w, t, C_SND) == "D2"

    @given(r=st.floats(0.0, 300.0), t=st.floats(4.0, 64.0))
    @settings(max_examples=100, deadline=None)
    def test_always_tagged(self, r, t):
        assert wc.region_tag(r, t, C_SND) in ("D1", "D2", "D3", "D4", "D5")

    def test_sample_radii(self):
        rs = wc.sample_radii(16.0, C_SND)
        assert 0.0 in rs and 32.0 in rs
        assert len(rs) == len(set(rs))
        assert all(r >= 0.0 for r in rs)


class TestSpacetimeConv:
    def test_zero_time(self):
        cases = wc.make_cases(C_SND)
        for case in cases.values():
            assert wc.eval_spacetime_conv(case, 3.0, 0.0) == 0.0

    def test_k4_brute_force_oracle(self):
        case = wc.make_cases(C_SND)["K4"]
        r, t = 5.0, 8.0

        def inner(tau):
            g = lambda z: case.green_pattern.spatial(z, t - tau)
            s = lambda u: case.source_pattern.spatial(u, tau)
            f = lambda u: 4 * math.pi * u * u * g(u) * s(u) if r == 0 else None
            val, _ = quad(
                lambda u: (2 * math.pi / r) * u * s(u) * quad(
                    lambda z: z * g(z), abs(r - u), r + u, limit=100)[0],
                0.0, 500.0, points=[C_SND * tau], limit=300)
            return case.green_pattern.time_factor(t - tau) \
                * case.source_pattern.time_factor(tau) * val

        brute, _ = quad(inner, 0.0, t, points=[t / 4, t / 2, 3 * t / 4],
                        limit=100, epsabs=1e-10)
        mine = wc.eval_spacetime_conv(case, r, t)
        assert mine == pytest.approx(brute, rel=1e-6)

    def test_k4_near_field_example(self):
        case = wc.make_cases(C_SND)["K4"]
        v = wc.eval_spacetime_conv(case, 0.0, 10.0)
        assert 0.0 < v < 100.0 / 11.0

    def test_monotone_in_source(self):
        # pointwise-larger source can only increase the convolution
        cases = wc.make_cases(C_SND)
        k4 = cases["K4"]
        from dataclasses import replace
        fat = replace(k4, source_pattern=wc.WavePattern(
            "H", a=4.0, p=1.5, speed=C_SND))
        v0 = wc.eval_spacetime_conv(k4, 3.0, 8.0)
        v1 = wc.eval_spacetime_conv(fat, 3.0, 8.0)
        assert v1 >= v0

    def test_swap_symmetry(self):
        # the space-time convolution commutes: swapping the two factors
        # (the tau -> t - tau substitution) leaves the value unchanged
        D1 = wc.WavePattern("D", a=2.0, p=2.0)
        D2 = wc.WavePattern("D", a=3.0, p=3.0)
        v0 = wc.eval_spacetime_conv(
            wc.ConvCase("fwd", D1, D2, (D1,), speed=C_SND), 4.0, 6.0)
        v1 = wc.eval_spacetime_conv(
            wc.ConvCase("rev", D2, D1, (D1,), speed=C_SND), 4.0, 6.0)
        assert v0 == pytest.approx(v1, rel=1e-6)


class TestReferenceOracle:
    """The batched engine against the depth-first copy above, 1e-12 rel."""

    @pytest.mark.parametrize("t", [4.0, 16.0])
    def test_k4_points(self, t):
        case = wc.make_cases(C_SND)["K4"]
        rs = wc.sample_radii(t, C_SND)
        assert rs[0] == 0.0
        got = wc.eval_spacetime_conv(case, rs, t)
        for r, val in zip(rs, got):
            assert val == pytest.approx(_ref_eval_spacetime_conv(case, r, t),
                                        rel=1e-12)

    def test_k3_point_at_depth_cap(self):
        case = wc.make_cases(C_SND)["K3"]
        r, t = math.sqrt(65.0), 64.0
        stats = wc.QuadStats()
        got = wc.eval_spacetime_conv(case, r, t, stats=stats)
        assert stats.depth_cap_hits > 0
        assert got == pytest.approx(_ref_eval_spacetime_conv(case, r, t),
                                    rel=1e-12)

    def test_spatial_only_case(self):
        case = wc.make_cases(C_SND)["I1"]
        rep = wc.verify_case(case)
        for row in rep["samples"]:
            ref = _ref_eval_spacetime_conv(case, row["r"], row["t"])
            assert row["lhs"] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.7, 5.0])
    def test_angular_reduce_without_primitive(self, r):
        g = wc.WavePattern("H", a=2.0, p=2.0, speed=C_SND)
        s = wc.WavePattern("D", a=3.0, p=3.0)
        F = lambda z: g.spatial(z, 3.0)
        G = lambda u: s.spatial(u, 1.0)
        splits = (C_SND * 3.0, abs(r - C_SND * 3.0))
        got = angular_reduce(r, F, G, splits=splits, abs_tol=1e-12)
        ref = _ref_angular_reduce(r, F, G, splits=splits, abs_tol=1e-12)
        assert got == pytest.approx(ref, rel=1e-12)
        exact = angular_reduce(r, F, G, F_int=lambda x, u: g.z_integral(
            x, u, 3.0), splits=splits, abs_tol=1e-12)
        assert got == pytest.approx(exact, rel=1e-7)


def _difference_form(pattern, r, u, s):
    """The inner integral as the difference of the primitive at its ends,
    as the angular reduction took it before WavePattern.z_integral."""
    return pattern.z_primitive(r + u, s) - pattern.z_primitive(abs(r - u), s)


class TestInnerIntegral:
    @pytest.mark.parametrize("c", [C_SND, math.sqrt(6.0)])
    @pytest.mark.parametrize("name", ["I1", "I2", "K1", "K2", "K4", "K5",
                                      "N12_log"])
    def test_matches_difference_form(self, name, c, monkeypatch):
        # the D-kind Green patterns: every sample within 1e-12 relative
        # (measured 3e-15) and the same panels
        case = wc.make_cases(c)[name]
        assert case.green_pattern.kind in ("D", "R4")
        rep = wc.verify_case(case)
        monkeypatch.setattr(wc.WavePattern, "z_integral", _difference_form)
        ref = wc.verify_case(case)
        assert rep["quadrature"] == ref["quadrature"]
        for row, want in zip(rep["samples"], ref["samples"]):
            assert row["lhs"] == pytest.approx(want["lhs"], rel=1e-12)

    def test_unresolved_quadrature_is_a_parameter_error(self):
        # at c = 1.4e25 (a_minus = 1e50) K1 accepts 12.8 % of its panels at
        # the depth cap; the difference form accepted 45 %
        case = wc.make_cases(1.4142135623730951e25)["K1"]
        with pytest.raises(ParameterError, match="depth cap"):
            wc.verify_case(case)


class TestVerifyCases:
    @pytest.mark.parametrize("name", ["I1", "I2", "I3", "K1", "K2", "K4"])
    def test_case_passes(self, name):
        rep = wc.verify_case(wc.make_cases(C_SND)[name])
        assert rep["trend_ratio"] <= 2.0, (rep["trend_ratio"],
                                           rep["c_est_by_region"])
        assert all(np.isfinite(v) for v in rep["c_est_by_region"].values())
        assert {"D1", "D2", "D3"} <= set(rep["c_est_by_region"])
        assert rep["schema"] == 1
        assert {"r", "t", "region", "lhs", "bound", "ratio"} \
            == set(rep["samples"][0])

    def test_repeat_calls_bitwise(self):
        case = wc.make_cases(C_SND)["K4"]
        a = wc.verify_case(case)
        b = wc.verify_case(case)
        assert a == b

    def test_batch_matches_single_points(self):
        case = wc.make_cases(C_SND)["K4"]
        rep = wc.verify_case(case, t_list=(4.0, 16.0))
        for row in rep["samples"]:
            one = wc.eval_spacetime_conv(case, row["r"], row["t"])
            assert isinstance(one, float)
            assert one == pytest.approx(row["lhs"], rel=1e-13)

    def test_each_time_evaluated_once(self):
        # a repeated time adds no samples and no panels, and the samples
        # come in increasing t whatever the order of t_list
        case = wc.make_cases(C_SND)["I1"]
        ref = wc.verify_case(case, t_list=(4.0, 16.0, 64.0))
        for t_list in [(4.0, 16.0, 64.0, 64.0), (64.0, 4.0, 16.0, 4.0)]:
            assert wc.verify_case(case, t_list=t_list) == ref

    def test_quadrature_counters(self):
        rep = wc.verify_case(wc.make_cases(C_SND)["K4"])
        quad = rep["quadrature"]
        assert quad["panels"] > 0
        assert quad["depth_cap_hits"] == 0
        assert quad["depth_cap_share"] == 0.0

    def test_non_finite_point_rejected(self):
        case = wc.make_cases(C_SND)["K4"]
        with pytest.raises(ValueError):
            wc.eval_spacetime_conv(case, 1.0, float("nan"))

    @pytest.mark.parametrize("t_list", [(64.0,), (64.0, 64.0), ()])
    def test_single_time_rejected(self, t_list):
        # one time gives a growth ratio of 1 by construction
        with pytest.raises(ValueError):
            wc.verify_case(wc.false_case(C_SND), t_list=t_list)

    @pytest.mark.parametrize("t_list", [(4.0, 1e4), (4.0, 1e300),
                                        (0.0, 16.0), (-4.0, 16.0),
                                        (4.0, math.nan)])
    def test_times_outside_range_rejected(self, t_list):
        with pytest.raises(ValueError, match="must lie in"):
            wc.verify_case(wc.make_cases(C_SND)["I1"], t_list=t_list)
        wc.verify_case(wc.make_cases(C_SND)["I1"], t_list=(100.0, wc.T_MAX))

    def test_non_finite_ratio_is_a_parameter_error(self, monkeypatch):
        # a zero bound gives an infinite ratio, a NaN bound a NaN one
        for bound in (0.0, math.nan):
            monkeypatch.setattr(wc, "bound_value",
                                lambda case, r, t, b=bound: b)
            with np.errstate(divide="ignore"), \
                    pytest.raises(ParameterError, match="not finite"):
                wc.verify_case(wc.make_cases(C_SND)["I1"])

    def test_false_case_fails(self):
        rep = wc.verify_case(wc.false_case(C_SND))
        assert rep["trend_ratio"] > 2.0

    def test_false_case_near_field_exponent(self):
        # without the Riesz-IV term, the near-field deficiency grows like
        # the half power of t (measured on a late window where the slowly
        # saturating transient has mostly relaxed)
        case = wc.false_case(C_SND)
        t_list = (4096.0, 16384.0, 65536.0)
        maxes = []
        for t in t_list:
            rats = [wc.eval_spacetime_conv(case, r, t)
                    / wc.bound_value(case, r, t)
                    for r in (0.0, math.sqrt(1.0 + t))]
            maxes.append(max(rats))
        slope = np.polyfit(np.log1p(t_list), np.log(maxes), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.15)


@pytest.fixture(scope="module")
def table():
    return wc.log_obstruction([64.0 * 4 ** k for k in range(6)], c=C_SND)


class TestLogObstruction:
    def test_log_growth_fit(self, table):
        assert table["fit_slope"] > 0.0
        assert table["correlation"] > 0.99

    def test_unrefined_grows_refined_saturates(self, table):
        n12 = [row["n12_scaled"] for row in table["rows"]]
        n1 = [row["n1_scaled"] for row in table["rows"]]
        d12 = np.diff(n12)
        d1 = np.diff(n1)
        # genuine log: increments per quadrupling approach a constant
        assert d12[-1] / d12[0] > 1.2
        assert d12[-1] / d12[-2] < 1.1
        # refined source: increments collapse toward zero
        assert d1[-1] / d1[0] < 0.6
        assert np.all(np.diff(d1[1:]) < 0.0)
        assert table["refined_saturation"] == d1[-1] / d1[0]

    def test_pointwise_domination(self):
        table = wc.log_obstruction([4.0], c=C_SND)
        row = table["rows"][0]
        assert row["n12"] > row["n1"]
        # one time has no fit and no increments
        assert set(table) == {"rows", "fit_slope", "correlation",
                              "refined_saturation"}
        assert math.isnan(table["refined_saturation"])


class TestRieszPotential:
    def test_gaussian_oracle(self):
        rs = np.linspace(1e-4, 10.0, 200)
        got = wc.riesz_gradient(lambda s: np.exp(-s * s), rs)
        exact = (math.sqrt(math.pi) / 4.0 * erf(rs)
                 - 0.5 * rs * np.exp(-rs ** 2)) / rs ** 2
        assert np.abs(got - exact).max() < 1e-8

    def test_far_field_exponent(self):
        pat = wc.WavePattern("D", a=0.0, p=2.0)
        rs = np.logspace(1.7, 2.7, 40)
        g = wc.riesz_gradient(lambda s: pat.spatial(s, 0.0), rs)
        slope = np.polyfit(np.log(rs), np.log(g), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_scaling_slope(self):
        ts = [1.0, 4.0, 16.0, 64.0, 256.0]
        rep = wc.riesz_potential_check(wc.WavePattern("D", a=0.0, p=2.0), ts)
        assert rep["ratio"] <= 2.0
        slope = np.polyfit(np.log1p(ts), np.log(rep["sup_by_t"]), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_rejects_thin_pattern(self):
        with pytest.raises(ValueError):
            wc.riesz_potential_check(wc.WavePattern("D", a=0.0, p=1.0), [1.0])


def test_waveconv_imports_nothing_from_greens():
    # greens builds on the waveconv patterns, never the other way round
    tree = ast.parse(pathlib.Path(wc.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(n.split(".")[-1] == "greens" for n in names), \
            ast.dump(node)


class TestDoubleRiesz:
    """The double-Riesz bound, certified in greens through its one radial
    transform."""

    def test_heat_family_stable(self):
        rep = greens.double_riesz_check([1.0, 4.0, 16.0, 64.0, 100.0])
        assert rep["ratio"] <= 2.0
        assert np.isfinite(rep["C_est"])

    def test_profile_exponent(self):
        t = 4.0
        b = 1.0 + t
        rs = np.linspace(0.0, 30.0 * math.sqrt(b), 600)
        vals = greens.radial_inverse("riesz_matrix",
                                     lambda k: np.exp(-k * k * b), rs)
        amp = np.maximum(np.abs(vals["long"]), np.abs(vals["trans"]))
        u = 1.0 + rs ** 2 / b
        sel = (u > 20.0) & (amp > 0.0)
        slope = np.polyfit(np.log(u[sel]), np.log(amp[sel]), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_band_limited_input(self):
        fhat = lambda k: greens.smooth_bump(k, 0.3, 0.5) \
            * (1.0 - greens.smooth_bump(k, 0.1, 0.2))
        rs = np.linspace(0.0, 40.0, 100)
        a = greens.radial_inverse("riesz_matrix", fhat, rs, k_max=1.0)
        b = greens.radial_inverse("riesz_matrix", fhat, rs, k_max=40.0)
        assert np.abs(a["long"] - b["long"]).max() < 1e-10
        assert np.abs(a["trans"] - b["trans"]).max() < 1e-10
