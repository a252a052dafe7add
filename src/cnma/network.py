"""Domain model: treatments built from components, studies, networks, contrasts.

Treatments compare equal when their component sets are equal; the label is
display-only. Component indices are assigned in first-appearance order when a
network is built and stay frozen for that network, so every design matrix in
the package refers to one shared column order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CnmaError,
    DuplicateComponent,
    EmptyNetwork,
    EventsExceedTotal,
    NotPositiveDefinite,
    UnknownComponent,
    ZeroCell,
)

DEFAULT_SEPARATOR = "+"

ZERO_CELL_POLICIES = ("error", "cc05")


@dataclass(frozen=True)
class Treatment:
    """A treatment protocol: a non-empty set of component labels.

    ``components`` is stored sorted; equality and hashing ignore the display
    label, so two treatments are the same iff their component sets are.
    """

    components: tuple[str, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.components) == 0:
            raise CnmaError("treatment must have at least one component")
        if len(set(self.components)) != len(self.components):
            raise DuplicateComponent(f"duplicate component in {self.components}")
        if tuple(sorted(self.components)) != self.components:
            object.__setattr__(self, "components", tuple(sorted(self.components)))
        if not self.label:
            object.__setattr__(self, "label", DEFAULT_SEPARATOR.join(self.components))

    @property
    def size(self) -> int:
        return len(self.components)


def parse_treatment(label: str, separator: str = DEFAULT_SEPARATOR) -> Treatment:
    """Parse a composite label like ``"A+C+D"`` into a Treatment.

    Tokens are split on ``separator`` and whitespace-trimmed. Empty tokens and
    repeated components are rejected.
    """
    if not label or not label.strip():
        raise CnmaError("empty treatment label")
    tokens = [tok.strip() for tok in label.split(separator)]
    if any(tok == "" for tok in tokens):
        raise CnmaError(f"empty component token in {label!r}")
    if len(set(tokens)) != len(tokens):
        raise DuplicateComponent(f"duplicate component token in {label!r}")
    return Treatment(components=tuple(sorted(tokens)), label=label.strip())


@dataclass(frozen=True)
class ArmRecord:
    treatment: Treatment
    events: int
    total: int

    def __post_init__(self):
        for name in ("events", "total"):
            value = getattr(self, name)
            # numpy integers are integers and bool is not; a plain int skips
            # the abstract-class check, which costs more than the rest of
            # the validation
            if type(value) is not int and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise CnmaError(f"arm {name} must be an integer, got {value!r}")
        if self.total < 1:
            raise CnmaError(f"arm total must be >= 1, got {self.total}")
        if self.events < 0:
            raise CnmaError(f"arm events must be >= 0, got {self.events}")
        if self.events > self.total:
            raise EventsExceedTotal(f"events {self.events} > total {self.total}")


@dataclass(frozen=True)
class Study:
    id: str
    arms: tuple[ArmRecord, ...]

    def __post_init__(self):
        if len(self.arms) < 2:
            raise CnmaError(f"study {self.id!r} needs >= 2 arms")
        if len({arm.treatment for arm in self.arms}) != len(self.arms):
            raise CnmaError(f"study {self.id!r} repeats a treatment")

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @property
    def treatments(self) -> tuple[Treatment, ...]:
        return tuple(arm.treatment for arm in self.arms)


@dataclass(frozen=True)
class Network:
    """All studies plus the frozen component order.

    The treatment list and connectivity follow from the studies, so they are
    computed from them on first use and never stored apart from them.
    """

    studies: tuple[Study, ...]
    components: tuple[str, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_studies(self) -> int:
        return len(self.studies)

    @cached_property
    def treatments(self) -> tuple[Treatment, ...]:
        """Every treatment of the studies, in first-appearance order."""
        return tuple(dict.fromkeys(t for study in self.studies for t in study.treatments))

    # no fit reads this (rank decides); bench/synth.py and its tests still do
    @cached_property
    def connected(self) -> bool:
        """Whether the treatments form one group closed under "co-appear in
        a study"."""
        # each treatment's group: the treatments joined to it by the studies so far
        group: dict[Treatment, set[Treatment]] = {}
        for study in self.studies:
            merged = set().union(*(group.get(t, {t}) for t in study.treatments))
            for t in merged:
                group[t] = merged
        return bool(group) and len(group[self.treatments[0]]) == len(group)

    def component_index(self, label: str) -> int:
        try:
            return self.components.index(label)
        except ValueError:
            raise UnknownComponent(f"component {label!r} not in network") from None


def build_network(studies, components=None) -> Network:
    """Assemble a Network from studies.

    Component indices follow first appearance (scanning studies, arms, then
    each treatment's sorted components) unless an explicit ``components``
    order is given; an explicit order may include extra, unreferenced
    components but must cover every referenced one.
    """
    studies = tuple(studies)
    if not studies:
        raise EmptyNetwork("no studies")
    seen_ids = set()
    for study in studies:
        if study.id in seen_ids:
            raise CnmaError(f"duplicate study id {study.id!r}")
        seen_ids.add(study.id)

    referenced: list[str] = []
    for study in studies:
        for arm in study.arms:
            for comp in arm.treatment.components:
                if comp not in referenced:
                    referenced.append(comp)

    if components is None:
        component_order = tuple(referenced)
    else:
        component_order = tuple(components)
        if len(set(component_order)) != len(component_order):
            raise DuplicateComponent("component list has duplicates")
        missing = [c for c in referenced if c not in component_order]
        if missing:
            raise UnknownComponent(f"components {missing} referenced but not listed")
    return Network(studies=studies, components=component_order)


@dataclass(frozen=True)
class ContrastBlock:
    """Per-study independent contrasts against a common baseline arm.

    ``y_star[j]`` is the log-odds ratio of non-baseline arm j versus the
    baseline arm; ``se[j]`` its standard error; ``se_baseline`` the standard
    error of the baseline arm's raw log-odds (the shared covariance term for
    multi-arm studies).
    """

    study_id: str
    baseline_arm: int
    y_star: np.ndarray
    se: np.ndarray
    se_baseline: float
    treatments: tuple[Treatment, ...]

    def __post_init__(self):
        y = np.asarray(self.y_star, dtype=float)
        se = np.asarray(self.se, dtype=float)
        object.__setattr__(self, "y_star", y)
        object.__setattr__(self, "se", se)
        a = len(self.treatments)
        if a < 2:
            raise CnmaError("contrast block needs >= 2 treatments")
        if not 0 <= self.baseline_arm < a:
            raise CnmaError("baseline arm out of range")
        if y.shape != (a - 1,) or se.shape != (a - 1,):
            raise CnmaError("contrast block dimension mismatch")
        finite = np.isfinite(y).all() and np.isfinite(se).all()
        if not (finite and math.isfinite(self.se_baseline)):
            raise CnmaError(f"study {self.study_id!r}: contrast entries must be finite")
        if np.any(se <= 0):
            raise CnmaError("contrast standard errors must be positive")
        if self.se_baseline < 0:
            raise CnmaError("se_baseline must be >= 0")
        if self.se_baseline**2 >= float(np.min(se) ** 2):
            raise NotPositiveDefinite(
                f"study {self.study_id!r}: se_baseline^2 must be < every se^2"
            )

    @property
    def n_arms(self) -> int:
        return len(self.treatments)


def _cells(arm: ArmRecord, corrected: bool) -> tuple[float, float]:
    if corrected:
        return arm.events + 0.5, arm.total - arm.events + 0.5
    return float(arm.events), float(arm.total - arm.events)


def arm_to_contrast(
    study: Study, baseline_arm: int = 0, zero_cell_policy: str = "error"
) -> ContrastBlock:
    """Convert arm-level counts to baseline contrasts (log-odds ratios).

    y*_j = log[(r_j/(n_j-r_j)) / (r_b/(n_b-r_b))],
    SE_j = sqrt(1/r_j + 1/(n_j-r_j) + 1/r_b + 1/(n_b-r_b)),
    se_baseline = sqrt(1/r_b + 1/(n_b-r_b)).

    Under ``cc05``, 0.5 is added to every cell of the study whenever any cell
    is zero (study-wide so the shared baseline terms stay coherent across the
    contrasts of a multi-arm study). Under ``error``, a zero cell raises.
    """
    if zero_cell_policy not in ZERO_CELL_POLICIES:
        raise CnmaError(f"unknown zero-cell policy {zero_cell_policy!r}")
    if not 0 <= baseline_arm < study.n_arms:
        raise CnmaError("baseline arm out of range")

    has_zero = any(
        arm.events == 0 or arm.events == arm.total for arm in study.arms
    )
    if has_zero and zero_cell_policy == "error":
        raise ZeroCell(f"study {study.id!r} has a zero cell")
    corrected = has_zero and zero_cell_policy == "cc05"

    base = study.arms[baseline_arm]
    rb, sb = _cells(base, corrected)
    base_logodds_var = 1.0 / rb + 1.0 / sb

    y, se = [], []
    for j, arm in enumerate(study.arms):
        if j == baseline_arm:
            continue
        r, s = _cells(arm, corrected)
        y.append(math.log((r / s) / (rb / sb)))
        se.append(math.sqrt(1.0 / r + 1.0 / s + base_logodds_var))

    return ContrastBlock(
        study_id=study.id,
        baseline_arm=baseline_arm,
        y_star=np.array(y),
        se=np.array(se),
        se_baseline=math.sqrt(base_logodds_var),
        treatments=study.treatments,
    )
