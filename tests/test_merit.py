import math

import numpy as np
import pytest

from rwl1.merit import WeightClamp, WeightScheme, merit_value, weights

from oracles import (cwb_weight_hp, gradient_check, w1_merit_hp, w1_weight_hp, w2_weight_hp,
                     zl_merit_hp, zl_weight_hp)

ABS = WeightClamp("abs")
NONE = WeightClamp("none")


class TestSchemeValidation:
    def test_known_kinds_only(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            WeightScheme("slp")

    @pytest.mark.parametrize("kind", ["zl", "w1", "w2"])
    @pytest.mark.parametrize("p", [0.0, -0.3, 1.5])
    def test_p_range(self, kind, p):
        with pytest.raises(ValueError, match="p must be"):
            WeightScheme(kind, p=p)

    def test_q_range(self):
        with pytest.raises(ValueError, match="q must be"):
            WeightScheme("w2", p=0.5, q=1.01)

    @pytest.mark.parametrize("kind,p,q", [("l1", None, None), ("cwb", None, None),
                                          ("zl", 0.3, None), ("w1", 0.3, None), ("w2", 0.3, 0.7)])
    def test_unused_parameters_stored_as_none(self, kind, p, q):
        scheme = WeightScheme(kind, p=0.3, q=0.7)
        assert (scheme.p, scheme.q) == (p, q)
        if p is None:  # ignored values are not checked and do not tell schemes apart
            assert WeightScheme(kind, p=5.0, q=-1.0) == WeightScheme(kind)

    def test_clamp_validation(self):
        with pytest.raises(ValueError):
            WeightClamp("magnitude")
        with pytest.raises(ValueError):
            WeightClamp("floor", floor=0.0)
        for floor in (math.nan, math.inf):
            with pytest.raises(ValueError, match="floor must be > 0 and finite"):
                WeightClamp("floor", floor=floor)


class TestWeights:
    def test_cwb_direct_evaluation(self):
        w = weights(WeightScheme("cwb"), [0.0, 1.0], 0.01)
        np.testing.assert_allclose(w, [100.0, 1.0 / 1.01], rtol=1e-14)
        assert w[1] == pytest.approx(float(cwb_weight_hp(1.0, 0.01)), rel=1e-14)

    def test_zl_direct_evaluation(self):
        w = weights(WeightScheme("zl", p=0.5), [0.0], 1.0)
        np.testing.assert_allclose(w, [1.5], rtol=1e-14)
        assert w[0] == pytest.approx(float(zl_weight_hp(0.0, 1.0, 0.5)), rel=1e-14)

    def test_uniform_ignores_x(self):
        w = weights(WeightScheme("l1"), [-4.0, 0.0, 2.5], 0.3)
        np.testing.assert_array_equal(w, np.ones(3))

    def test_w1_negative_raw_abs_clamped(self):
        # inner argument 0.01 + 0.01**0.05 ~ 0.804 < 1 makes the raw weight negative
        scheme = WeightScheme("w1", p=0.05)
        raw = weights(scheme, [0.0], 0.01, NONE)
        assert raw[0] < 0
        clamped = weights(scheme, [0.0], 0.01, ABS)
        expected = abs(float(w1_weight_hp(0.0, 0.01, 0.05)))
        assert expected == pytest.approx(28.3865494216, rel=1e-9)  # frozen from the hp oracle
        assert clamped[0] == pytest.approx(expected, rel=1e-12)

    def test_w1_small_component_outweighs_large(self):
        scheme = WeightScheme("w1", p=0.05)
        at_zero = weights(scheme, [0.0], 0.01, ABS)[0]
        at_one = weights(scheme, [1.0], 0.01, ABS)[0]
        assert at_zero > at_one

    def test_w2_matches_hp_oracle(self):
        w = weights(WeightScheme("w2", p=0.4, q=0.3), [2.0], 0.5)
        assert w[0] == pytest.approx(float(w2_weight_hp(2.0, 0.5, 0.4, 0.3)), rel=1e-13)

    def test_floor_clamp(self):
        scheme = WeightScheme("w1", p=0.05)
        w = weights(scheme, [0.0], 0.01, WeightClamp("floor", floor=1e-6))
        assert w[0] == pytest.approx(1e-6)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps"):
            weights(WeightScheme("cwb"), [1.0], 0.0)

    def test_positivity_under_clamping(self, rng_np):
        for _ in range(200):
            dim = int(rng_np.integers(1, 8))
            x = rng_np.choice([0.0, 1e-9, 1e-3, 1.0, 40.0], size=dim) * rng_np.choice([-1, 1], size=dim)
            eps = float(10.0 ** rng_np.uniform(-6, 1))
            p = float(rng_np.uniform(0.01, 0.99))
            q = float(rng_np.uniform(0.01, 0.99))
            for scheme in [WeightScheme("l1"), WeightScheme("cwb"), WeightScheme("zl", p=p),
                           WeightScheme("w1", p=p), WeightScheme("w2", p=p, q=q)]:
                for clamp in [ABS, WeightClamp("floor", floor=1e-10)]:
                    w = weights(scheme, x, eps, clamp)
                    assert np.all(w > 0), (scheme, clamp, x, eps)

    @pytest.mark.parametrize("kind", ["cwb", "zl"])
    def test_anti_monotone_in_magnitude(self, kind):
        grid = np.arange(0.0, 5.01, 0.1)
        for eps in [0.01, 0.1, 1.0]:
            w = weights(WeightScheme(kind, p=0.3), grid, eps, NONE)
            assert np.all(np.diff(w) < 0), (kind, eps)


class TestMeritValue:
    def test_zl_unit_argument(self):
        assert merit_value(WeightScheme("zl", p=0.5), [0.0], 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_zl_matches_hp(self):
        got = merit_value(WeightScheme("zl", p=0.3), [1.0, -2.0, 0.5], 0.1)
        assert got == pytest.approx(float(zl_merit_hp([1.0, -2.0, 0.5], 0.1, 0.3)), rel=1e-13)

    def test_w1_undefined_in_the_gap(self):
        assert merit_value(WeightScheme("w1", p=0.05), [0.0], 0.01) is None

    def test_w1_defined_value(self):
        got = merit_value(WeightScheme("w1", p=0.5), [5.0], 0.01)
        expected = float(w1_merit_hp([5.0], 0.01, 0.5))
        assert expected == pytest.approx(0.6834843265, rel=1e-9)  # frozen from the hp oracle
        assert got == pytest.approx(expected, rel=1e-12)

    def test_w2_undefined_marker(self):
        assert merit_value(WeightScheme("w2", p=0.4, q=0.4), [0.0], 0.01) is None

    def test_l1_and_cwb_surrogates(self):
        assert merit_value(WeightScheme("l1"), [1.0, -2.0], 0.5) == pytest.approx(3.0)
        got = merit_value(WeightScheme("cwb"), [0.0, 1.0], 0.01)
        assert got == pytest.approx(math.log(0.01) + math.log(1.01), rel=1e-13)

    def test_zl_concavity_on_positive_orthant(self):
        # second central difference along each coordinate is nonpositive
        scheme = WeightScheme("zl", p=0.3)
        h = 1e-3
        for eps in [0.01, 0.1, 1.0]:
            for xi in np.arange(0.1, 5.01, 0.1):
                x = np.array([xi, 2.0])
                up = merit_value(scheme, x + np.array([h, 0.0]), eps)
                mid = merit_value(scheme, x, eps)
                dn = merit_value(scheme, x - np.array([h, 0.0]), eps)
                assert (up - 2 * mid + dn) / h**2 <= 1e-8

    def test_zl_nonzero_count_limit_trend(self):
        # n - F_eps(x)/log(eps) approaches the nonzero count as eps shrinks;
        # convergence is O(1/|log eps|), so the tight band needs a very small eps
        scheme = WeightScheme("zl", p=0.05)
        x = [1.0, 0.0, 2.0]
        vals = {}
        for eps in [1e-10, 1e-30, 1e-50]:
            vals[eps] = 3.0 - merit_value(scheme, x, eps) / math.log(eps)
        assert abs(vals[1e-50] - 2.0) < 0.05
        assert abs(vals[1e-50] - 2.0) < abs(vals[1e-30] - 2.0) < abs(vals[1e-10] - 2.0)


class TestGradientCheck:
    def test_zl_example(self):
        assert gradient_check(WeightScheme("zl", p=0.3), [1.0, 2.0], 0.1, h=1e-5) < 1e-6

    def test_w2_example(self):
        assert gradient_check(WeightScheme("w2", p=0.4, q=0.3), [2.0], 0.5, h=1e-5) < 1e-6

    def test_cwb_example(self):
        assert gradient_check(WeightScheme("cwb"), [1.0], 0.01, h=1e-6) < 1e-7

    def test_all_schemes_on_seeded_points(self, rng_np):
        schemes = [WeightScheme("cwb"), WeightScheme("zl", p=0.3),
                   WeightScheme("w1", p=0.4), WeightScheme("w2", p=0.35, q=0.45)]
        for _ in range(50):
            dim = int(rng_np.integers(1, 7))
            x = rng_np.uniform(0.5, 5.0, size=dim)
            for eps in [0.01, 0.1, 1.0]:
                for scheme in schemes:
                    assert gradient_check(scheme, x, eps, h=1e-5) < 1e-5

    def test_requires_x_above_h(self):
        with pytest.raises(ValueError, match="x_i > h"):
            gradient_check(WeightScheme("cwb"), [1e-7], 0.01, h=1e-5)
        with pytest.raises(ValueError, match="h must be > 0"):
            gradient_check(WeightScheme("cwb"), [1.0], 0.01, h=0.0)

    def test_undefined_merit_raises(self):
        # u = 0.05 gives s = 0.05 + 0.05**0.05 ~ 0.911 < 1: merit undefined
        with pytest.raises(ValueError, match="undefined"):
            gradient_check(WeightScheme("w1", p=0.05), [0.04], 0.01, h=1e-5)
