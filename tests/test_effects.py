import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from cnma.effects import (
    EffectEstimate,
    _normal_cdf,
    contrast_vector,
    derive_relative_effect,
    sucra,
)
from cnma.errors import CnmaError, UnknownComponent
from cnma.network import Treatment, parse_treatment

COMPONENTS = ("E", "A", "B", "C", "D")
# single-component effects relative to E
D_VS_E = np.array([0.0, 1.2, 0.9, 0.8, 0.7])


class TestAdditiveEffect:
    # against E, whose own entry is 0, a treatment's effect is its components' sum
    @staticmethod
    def effect_vs_e(label):
        return contrast_vector(parse_treatment("E"), parse_treatment(label), COMPONENTS) @ D_VS_E

    def test_two_components(self):
        assert self.effect_vs_e("A+C") == pytest.approx(2.0)

    def test_single_component(self):
        assert self.effect_vs_e("B") == pytest.approx(0.9)

    def test_three_components(self):
        assert self.effect_vs_e("A+C+D") == pytest.approx(2.7)

    def test_missing_component(self):
        with pytest.raises(UnknownComponent):
            self.effect_vs_e("Z")


class TestDeriveRelativeEffect:
    def test_displayed_formula(self):
        # effect of "1+2" vs "3" is d1 + d2 - d3
        d = np.array([0.4, 0.3, 0.2])
        est = derive_relative_effect(
            d,
            np.zeros((3, 3)),
            parse_treatment("c3"),
            parse_treatment("c1+c2"),
            ("c1", "c2", "c3"),
        )
        assert est.point == pytest.approx(0.4 + 0.3 - 0.2)

    def test_comparator_equals_target(self):
        est = derive_relative_effect(
            D_VS_E,
            np.eye(5),
            parse_treatment("A+C"),
            parse_treatment("C+A"),
            COMPONENTS,
        )
        assert est.point == 0.0
        assert est.se == 0.0

    def test_consistency_from_table(self):
        est = derive_relative_effect(
            D_VS_E,
            np.zeros((5, 5)),
            parse_treatment("B"),
            parse_treatment("C"),
            COMPONENTS,
        )
        assert est.point == pytest.approx(-0.1)

    def test_posterior_draws_interval(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(loc=D_VS_E, scale=0.01, size=(4000, 5))
        est = derive_relative_effect(
            draws.mean(axis=0),
            draws,
            parse_treatment("E"),
            parse_treatment("A"),
            COMPONENTS,
        )
        assert est.source == "posterior"
        assert est.lower < est.point < est.upper
        assert est.point == pytest.approx(1.2, abs=0.01)

    @staticmethod
    def draws_of_a(values):
        """Draws whose A-versus-E effect takes ``values``."""
        draws = np.zeros((len(values), 5))
        draws[:, 1] = values
        return draws

    @staticmethod
    def relative_a(second, level=0.95):
        return derive_relative_effect(
            D_VS_E, second, parse_treatment("E"), parse_treatment("A"), COMPONENTS, level
        )

    def test_posterior_interval_interpolates_linearly(self):
        # type-7 positions on {1..1000}: 1 + 999 p at p = 0.025 and 0.975
        est = self.relative_a(self.draws_of_a(np.arange(1.0, 1001.0)))
        assert (est.lower, est.upper) == pytest.approx((25.975, 975.025), abs=1e-9)
        assert type(est.lower) is type(est.upper) is float

    def test_single_draw(self):
        est = self.relative_a(self.draws_of_a([7.3]), level=0.754)
        assert est.lower == est.upper == 7.3
        assert est.se == 0.0

    def test_covariance_interval_is_floats(self):
        est = self.relative_a(np.eye(5) / 2)  # var(d_A - d_E) = 1
        assert (est.lower, est.upper) == pytest.approx((1.2 - 1.959964, 1.2 + 1.959964))
        assert type(est.lower) is type(est.upper) is float

    def test_covariance_interval_quantile_matches_ndtri_in_the_tails(self):
        # with point 0 and se 1 the upper bound is the normal quantile itself,
        # taken from the standard library; scipy's ndtri is the reference
        levels = np.concatenate([
            np.logspace(-9, -1, 60), np.linspace(0.1, 0.9, 60), 1.0 - np.logspace(-1, -9, 60)
        ])
        for level in levels:
            est = derive_relative_effect(
                np.zeros(5), np.eye(5) / 2, parse_treatment("E"), parse_treatment("A"),
                COMPONENTS, level,
            )
            assert est.upper == pytest.approx(ndtri(1.0 - (1.0 - level) / 2.0), rel=0, abs=4e-15)

    def test_negative_contrast_variance_rejected(self):
        # a covariance of -I gives var(d_B - d_A) = -2, which is no variance
        with pytest.raises(CnmaError, match="negative variance"):
            derive_relative_effect(
                np.array([0.0, 0.3]), -np.eye(2), parse_treatment("A"),
                parse_treatment("B"), ("A", "B"),
            )

    def test_rounding_level_negative_variance_reads_as_zero(self):
        # w'Sw = 1 - 2 + (1 - 2^-53) = -1.1e-16, rounding error of a singular S
        cov = np.array([[1.0, 1.0], [1.0, np.nextafter(1.0, 0.0)]])
        est = derive_relative_effect(
            np.array([0.0, 0.3]), cov, parse_treatment("A"), parse_treatment("B"), ("A", "B")
        )
        assert est.se == 0.0
        assert est.lower == est.upper == est.point == 0.3

    def test_non_finite_covariance_named_as_such(self):
        # a NaN fails the symmetry test, so it is caught before the split
        # between covariance and draws
        with pytest.raises(CnmaError, match="cov_or_draws must be finite"):
            derive_relative_effect(
                np.array([0.0, 0.3]), np.array([[1.0, 0.0], [0.0, np.nan]]),
                parse_treatment("A"), parse_treatment("B"), ("A", "B"),
            )

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -1.0, np.nan])
    @pytest.mark.parametrize("path", ["covariance", "draws"])
    def test_level_outside_unit_interval_rejected(self, path, level):
        second = np.eye(5) if path == "covariance" else self.draws_of_a(np.arange(200.0))
        with pytest.raises(CnmaError, match="level"):
            self.relative_a(second, level)

    @pytest.mark.parametrize("values", [[], [0.1, np.nan], [np.inf, 0.2], [-np.inf]])
    def test_empty_or_non_finite_draws_rejected(self, values):
        with pytest.raises(CnmaError, match="draws"):
            self.relative_a(self.draws_of_a(values))

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("path", ["covariance", "draws"])
    def test_d_of_wrong_length_rejected(self, path, size):
        second = np.eye(5) if path == "covariance" else self.draws_of_a(np.arange(200.0))
        with pytest.raises(CnmaError, match="one entry per component"):
            derive_relative_effect(
                np.zeros(size), second, parse_treatment("E"), parse_treatment("A"), COMPONENTS
            )

    @pytest.mark.parametrize("shape", [(5,), (10, 4), (4, 4), (10, 6)])
    def test_second_argument_of_wrong_shape_rejected(self, shape):
        with pytest.raises(CnmaError, match="cov_or_draws"):
            self.relative_a(np.zeros(shape))

    def test_consistency_closure(self):
        cov = np.zeros((5, 5))
        treats = [parse_treatment(x) for x in ("A", "B+C", "D")]
        for k in treats:
            for l in treats:
                for m in treats:
                    kl = derive_relative_effect(D_VS_E, cov, k, l, COMPONENTS).point
                    lm = derive_relative_effect(D_VS_E, cov, l, m, COMPONENTS).point
                    km = derive_relative_effect(D_VS_E, cov, k, m, COMPONENTS).point
                    assert kl + lm == pytest.approx(km, abs=1e-12)


def test_normal_cdf_matches_ndtr_in_the_tails():
    # the standard library's erfc gives the CDF that P-scores use; scipy's
    # ndtr is the reference, down to 1e-316 in the lower tail
    z = np.linspace(-38.0, 38.0, 20001)
    np.testing.assert_allclose(_normal_cdf(z), ndtr(z), rtol=0, atol=2.3e-16)


class TestSucra:
    def test_deterministic_ranks(self):
        draws = np.tile([3.0, 2.0, 1.0], (200, 1))
        scores = sucra(draws, [parse_treatment(x) for x in "ABC"], "higher-better")
        assert list(scores.values()) == pytest.approx([1.0, 0.5, 0.0])

    def test_symmetric_toss_up(self):
        draws = np.zeros((200, 2))
        draws[:100, 0] = 1.0
        draws[100:, 1] = 1.0
        scores = sucra(draws, [parse_treatment(x) for x in "AB"])
        assert list(scores.values()) == pytest.approx([0.5, 0.5])

    def test_scores_average_to_half(self):
        rng = np.random.default_rng(1)
        draws = rng.normal(size=(500, 6))
        scores = sucra(draws, [parse_treatment(f"t{i}") for i in range(6)])
        assert np.mean(list(scores.values())) == pytest.approx(0.5, abs=1e-12)

    def test_lower_better_flips(self):
        draws = np.tile([3.0, 1.0], (150, 1))
        scores = sucra(draws, [parse_treatment(x) for x in "AB"], "lower-better")
        assert scores[parse_treatment("B")] == pytest.approx(1.0)

    def test_needs_enough_draws(self):
        with pytest.raises(CnmaError):
            sucra(np.zeros((10, 2)), [parse_treatment(x) for x in "AB"])

    @pytest.mark.parametrize(
        "labels, shape", [("A", (200, 1)), ("AB", (200, 3)), ("AB", (200,)), ("AB", (2, 100, 2))]
    )
    def test_bad_draw_shape_or_too_few_treatments(self, labels, shape):
        with pytest.raises(CnmaError, match="treatments"):
            sucra(np.zeros(shape), [parse_treatment(x) for x in labels])

    def test_ordering(self):
        draws = np.tile([1.0, 3.0, 2.0], (120, 1))
        scores = sucra(draws, [parse_treatment(x) for x in "ABC"])
        a, b, c = (scores[parse_treatment(x)] for x in "ABC")
        assert b > c > a

    @pytest.mark.parametrize("direction", ["higher-better", "lower-better"])
    def test_tied_draws_take_average_ranks(self, direction):
        from scipy.stats import rankdata

        rng = np.random.default_rng(4)
        draws = rng.integers(0, 3, size=(300, 5)).astype(float)
        scores = sucra(draws, [parse_treatment(f"t{i}") for i in range(5)], direction)
        signed = -draws if direction == "higher-better" else draws
        mean_rank = rankdata(signed, axis=1, method="average").mean(axis=0)
        assert np.array_equal(list(scores.values()), (5 - mean_rank) / 4)

    @pytest.mark.parametrize("direction", ["higher_better", "Higher-better", "lower", ""])
    def test_unknown_direction_rejected(self, direction):
        draws = np.tile([1.0, 2.0], (150, 1))
        with pytest.raises(CnmaError, match="direction"):
            sucra(draws, [parse_treatment(x) for x in "AB"], direction)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_rejected(self, bad):
        draws = np.tile([1.0, 2.0], (150, 1))
        draws[7, 1] = bad
        with pytest.raises(CnmaError, match="finite"):
            sucra(draws, [parse_treatment(x) for x in "AB"])

    @pytest.mark.parametrize("labels", ["ABA", "ABB", "AA", "ABCA"])
    def test_repeated_treatment_rejected(self, labels):
        # one score per column: a repeated treatment would collapse two
        draws = np.random.default_rng(2).normal(size=(150, len(labels)))
        with pytest.raises(CnmaError, match=f"'{labels[-1]}' is listed more than once"):
            sucra(draws, [parse_treatment(x) for x in labels])


@st.composite
def anchored_effects(draw):
    """Component order, effects d with anchor Y's entry 0, a component Z and
    a combination X of >= 2 components (X may hold Y or Z)."""
    k = draw(st.integers(2, 6))
    components = tuple(f"c{i}" for i in range(k))
    d = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)))
    y, z = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    d[y] = 0.0
    x = draw(st.lists(st.sampled_from(components), min_size=2, max_size=k, unique=True))
    return components, d, components[y], components[z], x


@settings(max_examples=100, deadline=None)
@given(anchored_effects())
@example((COMPONENTS, D_VS_E, "E", "B", ["A", "C"]))  # residual 0.9
@example((COMPONENTS, D_VS_E, "E", "B", ["A", "C", "D"]))  # residual 1.8
@example((COMPONENTS, D_VS_E, "E", "B", ["E", "A"]))  # X holds the anchor Y
@example((("E", "A", "Z"), np.array([0.0, 1.2, 0.0]), "E", "Z", ["Z", "A"]))  # d_Z = d_Y
def test_additivity_anchored_at_y_misses_at_any_other_anchor(case):
    # the paper's identity: under additivity anchored at Y, the additivity
    # residual at a single-component anchor Z is (|X| - 1) |d_YZ| for every
    # combination X, so Y is the only anchor at which additivity holds
    components, d, y, z, x = case
    y, z, x = Treatment((y,)), Treatment((z,)), Treatment(tuple(x))

    def residual(anchor):
        def effect(target):
            return contrast_vector(anchor, target, components) @ d

        return abs(effect(x) - sum(effect(Treatment((c,))) for c in x.components))

    d_yz = contrast_vector(y, z, components) @ d
    assert residual(z) == pytest.approx((x.size - 1) * abs(d_yz), rel=1e-9, abs=1e-12)
    assert residual(y) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.001, 3.0), min_size=4, max_size=4, unique=True))
def test_composition_orderings(raw):
    # single-component effects ordered E < D < C < B < A (values vs E)
    d_ed, d_ec, d_eb, d_ea = sorted(raw)
    comps = ("E", "A", "B", "C", "D")
    d = np.array([0.0, d_ea, d_eb, d_ec, d_ed])
    cd = parse_treatment("C+D")
    c, b, dd = parse_treatment("C"), parse_treatment("B"), parse_treatment("D")

    # anchor E: the combination beats both of its components
    eff_cd = contrast_vector(parse_treatment("E"), cd, comps) @ d
    assert eff_cd > max(d_ec, d_ed)

    # anchor B: relative to B, the combination falls below both components
    d_vs_b = d - d_eb
    rel = derive_relative_effect(d_vs_b, np.zeros((5, 5)), b, cd, comps).point
    rel_c = derive_relative_effect(d_vs_b, np.zeros((5, 5)), b, c, comps).point
    rel_d = derive_relative_effect(d_vs_b, np.zeros((5, 5)), b, dd, comps).point
    assert rel < min(rel_c, rel_d)

    # anchor D: adding D changes nothing relative to D
    d_vs_d = d - d_ed
    rel_cd = derive_relative_effect(d_vs_d, np.zeros((5, 5)), dd, cd, comps).point
    rel_c_only = derive_relative_effect(d_vs_d, np.zeros((5, 5)), dd, c, comps).point
    assert rel_cd == pytest.approx(rel_c_only, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    # five draws of five components would form a square array, which
    # derive_relative_effect reads as a covariance when it is symmetric
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50).filter(lambda v: len(v) != 5),
    st.floats(0.01, 0.99),
)
def test_posterior_interval_within_range_of_draws(values, level):
    draws = TestDeriveRelativeEffect.draws_of_a(values)
    est = TestDeriveRelativeEffect.relative_a(draws, level)
    assert min(values) <= est.lower and est.upper <= max(values)
