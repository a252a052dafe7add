import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnma.errors import (
    CnmaError,
    DuplicateComponent,
    EmptyNetwork,
    EventsExceedTotal,
    ZeroCell,
)
from cnma.network import (
    ArmRecord,
    ContrastBlock,
    Network,
    Study,
    Treatment,
    arm_to_contrast,
    build_network,
    parse_treatment,
)
from dense import block_covariance


def two_arm(study_id, label_a, label_b, r=(10, 20), n=(50, 50)):
    return Study(
        id=study_id,
        arms=(
            ArmRecord(parse_treatment(label_a), r[0], n[0]),
            ArmRecord(parse_treatment(label_b), r[1], n[1]),
        ),
    )


class TestParseTreatment:
    def test_multicomponent(self):
        t = parse_treatment("A+C+D")
        assert t.components == ("A", "C", "D")
        assert t.size == 3

    def test_single(self):
        assert parse_treatment("E").components == ("E",)

    def test_duplicate_component(self):
        with pytest.raises(DuplicateComponent):
            parse_treatment("A+A")

    def test_empty_token(self):
        with pytest.raises(CnmaError):
            parse_treatment("A++B")

    def test_empty_label(self):
        with pytest.raises(CnmaError):
            parse_treatment("   ")

    def test_whitespace_trimmed(self):
        assert parse_treatment(" A + C ").components == ("A", "C")

    def test_custom_separator(self):
        assert parse_treatment("Edu/Rel", separator="/").components == ("Edu", "Rel")

    def test_equality_ignores_label(self):
        assert parse_treatment("C+A") == parse_treatment("A+C")
        assert hash(parse_treatment("C+A")) == hash(parse_treatment("A+C"))

    def test_roundtrip_on_canonical_labels(self):
        for label in ["A", "A+C", "Beh+Cog+Edu"]:
            assert Treatment(parse_treatment(label).components).label == label


class TestBuildNetwork:
    def test_single_two_arm_study(self):
        net = build_network([two_arm("s1", "E", "A")])
        assert net.n_components == 2
        assert net.n_studies == 1
        assert net.connected

    def test_component_first_appearance_order(self):
        net = build_network([two_arm("s1", "E", "A+C"), two_arm("s2", "B", "A")])
        assert net.components == ("E", "A", "C", "B")

    def test_explicit_component_order_with_extras(self):
        net = build_network(
            [two_arm("s1", "E", "A")], components=("Z", "A", "E", "Q")
        )
        assert net.components == ("Z", "A", "E", "Q")

    def test_disconnected_flag(self):
        net = build_network([two_arm("s1", "E", "A"), two_arm("s2", "C", "D")])
        assert not net.connected

    def test_treatments_in_first_appearance_order(self):
        net = build_network([two_arm("s1", "E", "C+A"), two_arm("s2", "A+C", "B")])
        assert net.treatments == tuple(parse_treatment(t) for t in ("E", "A+C", "B"))
        # the first arm of a treatment gives it its label
        assert net.treatments[1].label == "C+A"

    def test_fields_are_the_studies_and_components(self):
        # everything else a network reports follows from these two
        assert [f.name for f in dataclasses.fields(Network)] == ["studies", "components"]

    def test_duplicate_study_ids(self):
        with pytest.raises(CnmaError):
            build_network([two_arm("s1", "E", "A"), two_arm("s1", "A", "B")])

    def test_no_studies(self):
        with pytest.raises(EmptyNetwork):
            build_network([])

    def test_study_requires_two_arms(self):
        with pytest.raises(CnmaError):
            Study(id="s", arms=(ArmRecord(parse_treatment("A"), 1, 10),))

    def test_study_rejects_repeated_treatment(self):
        with pytest.raises(CnmaError):
            Study(
                id="s",
                arms=(
                    ArmRecord(parse_treatment("A+C"), 1, 10),
                    ArmRecord(parse_treatment("C+A"), 2, 10),
                ),
            )

    def test_events_exceed_total(self):
        with pytest.raises(EventsExceedTotal):
            ArmRecord(parse_treatment("A"), 11, 10)

    @pytest.mark.parametrize(
        "events, total", [(2.5, 10), (2.0, 10), (True, 10), (2, 10.0), (2, True), ("2", 10)]
    )
    def test_arm_counts_must_be_integers(self, events, total):
        with pytest.raises(CnmaError, match="must be an integer"):
            ArmRecord(parse_treatment("A"), events, total)

    def test_arm_counts_accept_numpy_integers(self):
        arm = ArmRecord(parse_treatment("A"), np.int64(2), np.int32(10))
        assert (arm.events, arm.total) == (2, 10)


class TestConnectivity:
    def test_transitive_single_group(self):
        net = build_network([two_arm("s1", "E", "A"), two_arm("s2", "A", "B")])
        assert net.connected
        assert set(net.treatments) == {
            parse_treatment("E"),
            parse_treatment("A"),
            parse_treatment("B"),
        }

    def test_two_groups(self):
        net = build_network([two_arm("s1", "E", "A"), two_arm("s2", "C", "D")])
        assert not net.connected
        assert len(net.treatments) == 4

    def test_joined_by_a_multi_arm_study(self):
        three_arm = Study(
            id="s3",
            arms=tuple(ArmRecord(parse_treatment(t), 5, 20) for t in ("B", "D", "E")),
        )
        net = build_network(
            [two_arm("s1", "E", "A"), two_arm("s2", "C", "D"), two_arm("s4", "F", "G"),
             three_arm]
        )
        assert not net.connected
        assert build_network(net.studies[:2] + net.studies[3:]).connected


class TestArmToContrast:
    def test_hand_values(self):
        block = arm_to_contrast(two_arm("s1", "P", "T", r=(10, 20), n=(50, 50)))
        assert block.y_star[0] == pytest.approx(0.98083, abs=1e-5)
        assert block.se[0] == pytest.approx(0.45644, abs=1e-5)
        assert block.se_baseline == pytest.approx(math.sqrt(1 / 10 + 1 / 40), abs=1e-9)

    def test_symmetric_arms_zero_logor(self):
        block = arm_to_contrast(two_arm("s1", "P", "T", r=(10, 10), n=(50, 50)))
        assert block.y_star[0] == pytest.approx(0.0, abs=1e-12)
        # each arm contributes 1/10 + 1/40 = 0.125 to the variance
        assert block.se[0] == pytest.approx(math.sqrt(2 * 0.125), abs=1e-12)

    def test_zero_cell_error_policy(self):
        with pytest.raises(ZeroCell):
            arm_to_contrast(two_arm("s1", "P", "T", r=(0, 5), n=(50, 50)))

    def test_zero_cell_continuity(self):
        block = arm_to_contrast(
            two_arm("s1", "P", "T", r=(0, 5), n=(50, 50)), zero_cell_policy="cc05"
        )
        expected = math.log((5.5 / 45.5) / (0.5 / 50.5))
        assert block.y_star[0] == pytest.approx(expected, abs=1e-12)

    def test_baseline_override(self):
        study = two_arm("s1", "P", "T", r=(10, 20), n=(50, 50))
        block = arm_to_contrast(study, baseline_arm=1)
        assert block.y_star[0] == pytest.approx(-0.98083, abs=1e-5)
        assert block.treatments == study.treatments

    def test_three_arm_consistency(self):
        study = Study(
            id="s",
            arms=(
                ArmRecord(parse_treatment("P"), 10, 50),
                ArmRecord(parse_treatment("A"), 20, 50),
                ArmRecord(parse_treatment("B"), 30, 50),
            ),
        )
        block = arm_to_contrast(study)
        direct = math.log((30 / 20) / (20 / 30))
        assert block.y_star[1] - block.y_star[0] == pytest.approx(direct, abs=1e-12)

    def test_covariance_shape(self):
        study = Study(
            id="s",
            arms=(
                ArmRecord(parse_treatment("P"), 10, 50),
                ArmRecord(parse_treatment("A"), 20, 50),
                ArmRecord(parse_treatment("B"), 30, 50),
            ),
        )
        cov = block_covariance(arm_to_contrast(study))
        assert cov.shape == (2, 2)
        assert cov[0, 1] == pytest.approx(1 / 10 + 1 / 40)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestContrastBlock:
    @staticmethod
    def three_arm(**overrides):
        fields = dict(
            study_id="s",
            baseline_arm=0,
            y_star=np.array([0.4, -0.2]),
            se=np.array([0.3, 0.35]),
            se_baseline=0.2,
            treatments=tuple(parse_treatment(t) for t in ("P", "A", "B")),
        )
        fields.update(overrides)
        return ContrastBlock(**fields)

    def test_valid_block(self):
        assert self.three_arm().n_arms == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("y_star", np.array([np.nan, -0.2])),
            ("y_star", np.array([0.4, np.inf])),
            ("y_star", np.array([-np.inf, -0.2])),
            ("se", np.array([0.3, np.inf])),
            ("se", np.array([np.nan, 0.35])),
            ("se_baseline", np.nan),
            ("se_baseline", np.inf),
        ],
    )
    def test_non_finite_entries_rejected(self, field, value):
        with pytest.raises(CnmaError, match="finite"):
            self.three_arm(**{field: value})


@settings(max_examples=50, deadline=None)
@given(
    r1=st.integers(1, 49),
    r2=st.integers(1, 49),
    n=st.integers(50, 200),
)
def test_arm_swap_antisymmetry(r1, r2, n):
    study = two_arm("s1", "P", "T", r=(r1, r2), n=(n, n))
    fwd = arm_to_contrast(study, baseline_arm=0)
    rev = arm_to_contrast(study, baseline_arm=1)
    assert fwd.y_star[0] == pytest.approx(-rev.y_star[0], abs=1e-12)
    assert fwd.se[0] == pytest.approx(rev.se[0], abs=1e-12)
