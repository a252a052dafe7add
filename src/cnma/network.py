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
        # a string is a sequence of one-letter components, never what is meant
        if isinstance(self.components, str):
            raise CnmaError(f"components must be a sequence of labels, got {self.components!r}")
        if len(self.components) == 0:
            raise CnmaError("treatment must have at least one component")
        if not all(isinstance(comp, str) for comp in self.components):
            raise CnmaError(f"component labels must be strings, got {self.components!r}")
        if len(set(self.components)) != len(self.components):
            raise DuplicateComponent(f"duplicate component in {self.label or self.components!r}")
        if tuple(sorted(self.components)) != self.components:
            object.__setattr__(self, "components", tuple(sorted(self.components)))
        if not self.label:
            object.__setattr__(self, "label", DEFAULT_SEPARATOR.join(self.components))

    @property
    def size(self) -> int:
        return len(self.components)


def parse_treatment(label: str, separator: str = DEFAULT_SEPARATOR) -> Treatment:
    """Parse a composite label like ``"A+C+D"`` into a Treatment.

    Tokens are split on ``separator`` and whitespace-trimmed. Empty tokens are
    rejected here, repeated components by ``Treatment``.
    """
    if not isinstance(label, str) or not label.strip():
        raise CnmaError(f"treatment label must be a non-empty string, got {label!r}")
    tokens = tuple(tok.strip() for tok in label.split(separator))
    if any(tok == "" for tok in tokens):
        raise CnmaError(f"empty component token in {label!r}")
    return Treatment(components=tokens, label=label.strip())


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: numpy integers are and bool is not."""
    # a plain int skips the abstract-class check, the costliest step here
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: numpy numbers are and bool is not."""
    return type(value) is float or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    )


def _check_treatments(treatments, owner: str, owner_id: str) -> None:
    """Raise CnmaError unless ``treatments`` holds >= 2 Treatments, none
    repeated; the message names the owner, say ``study 's1'``."""
    if len(treatments) < 2:
        raise CnmaError(f"{owner} {owner_id!r} needs >= 2 treatments")
    for t in treatments:
        if not isinstance(t, Treatment):
            raise CnmaError(f"{owner} {owner_id!r}: {t!r} is not a Treatment")
    if len(set(treatments)) != len(treatments):
        raise CnmaError(f"{owner} {owner_id!r} repeats a treatment")


@dataclass(frozen=True)
class ArmRecord:
    """One arm of a study: its treatment and its event and subject counts."""

    treatment: Treatment
    events: int
    total: int

    def __post_init__(self):
        if not isinstance(self.treatment, Treatment):
            raise CnmaError(f"arm treatment must be a Treatment, got {self.treatment!r}")
        for name in ("events", "total"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise CnmaError(f"arm {name} must be an integer, got {value!r}")
        if self.total < 1:
            raise CnmaError(f"arm total must be >= 1, got {self.total}")
        if self.events < 0:
            raise CnmaError(f"arm events must be >= 0, got {self.events}")
        if self.events > self.total:
            raise EventsExceedTotal(f"events {self.events} > total {self.total}")


@dataclass(frozen=True)
class Study:
    """A study: an id and >= 2 arms, each with a treatment of its own."""

    id: str
    arms: tuple[ArmRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        if not all(isinstance(arm, ArmRecord) for arm in self.arms):
            raise CnmaError(f"study {self.id!r}: every arm must be an ArmRecord")
        _check_treatments(self.treatments, "study", self.id)

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


def _check_study_ids(studies) -> None:
    """Raise CnmaError naming the first study whose id an earlier one has."""
    seen = set()
    for study in studies:
        if study.id in seen:
            raise CnmaError(f"duplicate study id {study.id!r}")
        seen.add(study.id)


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
    _check_study_ids(studies)

    referenced: list[str] = []
    for study in studies:
        for arm in study.arms:
            for comp in arm.treatment.components:
                if comp not in referenced:
                    referenced.append(comp)

    if components is None:
        component_order = tuple(referenced)
    elif isinstance(components, str):
        raise CnmaError(f"components must be a sequence of labels, got {components!r}")
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
    """One study's contrasts of each later treatment against its first, the baseline.

    ``y_star[j]`` is the log-odds ratio of ``treatments[j + 1]`` versus the
    baseline; ``se[j]`` its standard error; ``se_baseline`` the standard error
    of the baseline arm's raw log-odds (the shared covariance term for
    multi-arm studies). The treatments follow ``Study``'s rules.
    """

    study_id: str
    y_star: np.ndarray
    se: np.ndarray
    se_baseline: float
    treatments: tuple[Treatment, ...]

    def __post_init__(self):
        object.__setattr__(self, "treatments", tuple(self.treatments))
        _check_treatments(self.treatments, "contrast block", self.study_id)
        try:
            y, se = np.asarray(self.y_star, dtype=float), np.asarray(self.se, dtype=float)
            finite = np.isfinite(y).all() and np.isfinite(se).all()
        except (TypeError, ValueError):  # an entry that is not a number
            finite = False
        if not (finite and _is_real(self.se_baseline) and math.isfinite(self.se_baseline)):
            raise CnmaError(f"study {self.study_id!r}: contrast entries must be finite numbers")
        object.__setattr__(self, "y_star", y)
        object.__setattr__(self, "se", se)
        a = len(self.treatments)
        if y.shape != (a - 1,) or se.shape != (a - 1,):
            raise CnmaError("contrast block dimension mismatch")
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


def _arm_first(study: Study, j) -> Study:
    """``study`` with arm ``j`` moved to the front and the other arms in order."""
    if not _is_integer(j):
        raise CnmaError(f"baseline arm must be an integer, got {j!r}")
    if not 0 <= j < study.n_arms:
        raise CnmaError("baseline arm out of range")
    arms = study.arms
    return study if j == 0 else Study(study.id, (arms[j],) + arms[:j] + arms[j + 1 :])


def arm_to_contrast(
    study: Study, baseline_arm: int = 0, zero_cell_policy: str = "error"
) -> ContrastBlock:
    """Convert arm-level counts to contrasts (log-odds ratios) against arm
    ``baseline_arm``, which the block lists first; the others keep their order.

    y*_j = log[(r_j/(n_j-r_j)) / (r_b/(n_b-r_b))],
    SE_j = sqrt(1/r_j + 1/(n_j-r_j) + 1/r_b + 1/(n_b-r_b)),
    se_baseline = sqrt(1/r_b + 1/(n_b-r_b)).

    Under ``cc05``, 0.5 is added to every cell of the study whenever any cell
    is zero (study-wide so the shared baseline terms stay coherent across the
    contrasts of a multi-arm study). Under ``error``, a zero cell raises.
    """
    if zero_cell_policy not in ZERO_CELL_POLICIES:
        raise CnmaError(f"unknown zero-cell policy {zero_cell_policy!r}")
    study = _arm_first(study, baseline_arm)

    has_zero = any(
        arm.events == 0 or arm.events == arm.total for arm in study.arms
    )
    if has_zero and zero_cell_policy == "error":
        raise ZeroCell(f"study {study.id!r} has a zero cell")
    corrected = has_zero and zero_cell_policy == "cc05"

    rb, sb = _cells(study.arms[0], corrected)
    base_logodds_var = 1.0 / rb + 1.0 / sb

    y, se = [], []
    for arm in study.arms[1:]:
        r, s = _cells(arm, corrected)
        y.append(math.log((r / s) / (rb / sb)))
        se.append(math.sqrt(1.0 / r + 1.0 / s + base_logodds_var))

    return ContrastBlock(
        study_id=study.id,
        y_star=np.array(y),
        se=np.array(se),
        se_baseline=math.sqrt(base_logodds_var),
        treatments=study.treatments,
    )
