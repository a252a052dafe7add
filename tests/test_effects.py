import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnma.effects import (
    EffectEstimate,
    additive_effect,
    derive_relative_effect,
    sucra,
    verify_unique_anchor,
)
from cnma.errors import CnmaError, UnknownComponent
from cnma.network import parse_treatment

COMPONENTS = ("E", "A", "B", "C", "D")
# single-component effects relative to E
D_VS_E = np.array([0.0, 1.2, 0.9, 0.8, 0.7])


class TestAdditiveEffect:
    def test_two_components(self):
        assert additive_effect(D_VS_E, parse_treatment("A+C"), COMPONENTS) == (
            pytest.approx(2.0)
        )

    def test_single_component(self):
        assert additive_effect(D_VS_E, parse_treatment("B"), COMPONENTS) == (
            pytest.approx(0.9)
        )

    def test_three_components(self):
        assert additive_effect(D_VS_E, parse_treatment("A+C+D"), COMPONENTS) == (
            pytest.approx(2.7)
        )

    def test_missing_component(self):
        with pytest.raises(UnknownComponent):
            additive_effect(D_VS_E, parse_treatment("Z"), COMPONENTS)


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


class TestSucra:
    def test_deterministic_ranks(self):
        draws = np.tile([3.0, 2.0, 1.0], (200, 1))
        report = sucra(
            draws, [parse_treatment(x) for x in "ABC"], "higher-better"
        )
        assert list(report.scores.values()) == pytest.approx([1.0, 0.5, 0.0])

    def test_symmetric_toss_up(self):
        draws = np.zeros((200, 2))
        draws[:100, 0] = 1.0
        draws[100:, 1] = 1.0
        report = sucra(draws, [parse_treatment(x) for x in "AB"])
        assert list(report.scores.values()) == pytest.approx([0.5, 0.5])

    def test_scores_average_to_half(self):
        rng = np.random.default_rng(1)
        draws = rng.normal(size=(500, 6))
        report = sucra(draws, [parse_treatment(f"t{i}") for i in range(6)])
        assert np.mean(list(report.scores.values())) == pytest.approx(0.5, abs=1e-12)

    def test_lower_better_flips(self):
        draws = np.tile([3.0, 1.0], (150, 1))
        report = sucra(draws, [parse_treatment(x) for x in "AB"], "lower-better")
        assert report.scores[parse_treatment("B")] == pytest.approx(1.0)

    def test_needs_enough_draws(self):
        with pytest.raises(CnmaError):
            sucra(np.zeros((10, 2)), [parse_treatment(x) for x in "AB"])

    def test_ordering(self):
        draws = np.tile([1.0, 3.0, 2.0], (120, 1))
        report = sucra(draws, [parse_treatment(x) for x in "ABC"])
        assert [t.label for t in report.ordering()] == ["B", "C", "A"]

    @pytest.mark.parametrize("direction", ["higher-better", "lower-better"])
    def test_tied_draws_take_average_ranks(self, direction):
        from scipy.stats import rankdata

        rng = np.random.default_rng(4)
        draws = rng.integers(0, 3, size=(300, 5)).astype(float)
        report = sucra(draws, [parse_treatment(f"t{i}") for i in range(5)], direction)
        signed = -draws if direction == "higher-better" else draws
        mean_rank = rankdata(signed, axis=1, method="average").mean(axis=0)
        assert np.array_equal(list(report.scores.values()), (5 - mean_rank) / 4)

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


class TestVerifyUniqueAnchor:
    def effects_vs_e(self):
        # additivity holds with E as the anchor; multis are component sums
        vals = {
            parse_treatment("A"): 1.2,
            parse_treatment("B"): 0.9,
            parse_treatment("C"): 0.8,
            parse_treatment("D"): 0.7,
            parse_treatment("A+C"): 2.0,
            parse_treatment("A+C+D"): 2.7,
        }
        return vals

    def test_two_component_residual(self):
        check = verify_unique_anchor(
            self.effects_vs_e(),
            parse_treatment("E"),
            parse_treatment("B"),
            [parse_treatment("A+C")],
        )
        assert check.residuals[parse_treatment("A+C")] == pytest.approx(
            0.9, abs=1e-12
        )
        assert check.matches_identity

    def test_three_component_residual(self):
        check = verify_unique_anchor(
            self.effects_vs_e(),
            parse_treatment("E"),
            parse_treatment("B"),
            [parse_treatment("A+C+D")],
        )
        assert check.residuals[parse_treatment("A+C+D")] == pytest.approx(
            1.8, abs=1e-12
        )
        assert check.max_residual == pytest.approx(1.8, abs=1e-12)

    def test_degenerate_anchor_zero_residual(self):
        vals = self.effects_vs_e()
        z = parse_treatment("Z")
        vals[z] = 0.0  # Z indistinguishable from Y in effect
        vals[parse_treatment("Z+A")] = 1.2  # additive under anchor E
        check = verify_unique_anchor(
            vals, parse_treatment("E"), z, [parse_treatment("Z+A")]
        )
        assert check.max_residual == pytest.approx(0.0, abs=1e-12)

    def test_rejects_single_component_multi(self):
        with pytest.raises(CnmaError):
            verify_unique_anchor(
                self.effects_vs_e(),
                parse_treatment("E"),
                parse_treatment("B"),
                [parse_treatment("A")],
            )


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
    eff_cd = additive_effect(d, cd, comps)
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
