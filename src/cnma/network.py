"""Domain model: treatments built from components, studies, networks, contrasts.

Treatments compare equal when their component sets are equal; the label is
display-only. A ``Network`` checks its studies and its component order,
which every design matrix built for it follows; ``build_network`` derives the
order from the studies, and ``Network((), order)`` serves contrast-only data.
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
        components = _labels(self.components)
        if len(components) == 0:
            raise CnmaError("treatment must have at least one component")
        if len(set(components)) != len(components):
            raise DuplicateComponent(f"duplicate component in {self.label or components!r}")
        object.__setattr__(self, "components", tuple(sorted(components)))
        if not self.label:
            object.__setattr__(self, "label", DEFAULT_SEPARATOR.join(self.components))

    @property
    def size(self) -> int:
        return len(self.components)


def parse_treatment(label: str) -> Treatment:
    """Parse a composite label like ``"A+C+D"`` into a Treatment.

    Tokens are split on ``DEFAULT_SEPARATOR`` and whitespace-trimmed. Empty
    tokens are rejected here, repeated components by ``Treatment``.
    """
    if not isinstance(label, str) or not label.strip():
        raise CnmaError(f"treatment label must be a non-empty string, got {label!r}")
    tokens = tuple(tok.strip() for tok in label.split(DEFAULT_SEPARATOR))
    if any(tok == "" for tok in tokens):
        raise CnmaError(f"empty component token in {label!r}")
    return Treatment(components=tokens, label=label.strip())


def _as_tuple(items) -> tuple | None:
    """``items`` as a tuple, or None when it is a string (a sequence of
    letters, never what is meant) or not iterable."""
    try:
        return None if isinstance(items, str) else tuple(items)
    except TypeError:
        return None


def _labels(components) -> tuple:
    """``components`` as a tuple of strings, or CnmaError."""
    labels = _as_tuple(components)
    if labels is None:
        raise CnmaError(f"components must be a sequence of labels, got {components!r}")
    if not all(isinstance(comp, str) for comp in labels):
        raise CnmaError(f"component labels must be strings, got {labels!r}")
    return labels


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
        arms = _as_tuple(self.arms)
        if arms is None or not all(isinstance(arm, ArmRecord) for arm in arms):
            raise CnmaError(f"study {self.id!r}: arms must be a sequence of ArmRecords")
        object.__setattr__(self, "arms", arms)
        _check_treatments(self.treatments, "study", self.id)

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @property
    def treatments(self) -> tuple[Treatment, ...]:
        return tuple(arm.treatment for arm in self.arms)


@dataclass(frozen=True)
class Network:
    """Studies with distinct ids, and the component order of every design built
    for them: distinct labels covering the studies' components, and maybe more.
    The treatments and connectivity are computed from the studies on first use."""

    studies: tuple[Study, ...]
    components: tuple[str, ...]

    def __post_init__(self):
        studies = _as_tuple(self.studies)
        if studies is None:
            raise CnmaError(f"studies must be a sequence of Study records, got {self.studies!r}")
        _check_study_ids(studies)
        components = _labels(self.components)
        if len(set(components)) != len(components):
            raise DuplicateComponent(f"component order {components!r} has duplicates")
        object.__setattr__(self, "studies", studies)
        object.__setattr__(self, "components", components)
        used = {c for study in studies for arm in study.arms for c in arm.treatment.components}
        missing = used.difference(components)
        if missing:
            raise UnknownComponent(f"components {sorted(missing)} referenced but not listed")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def treatments(self) -> tuple[Treatment, ...]:
        """Every treatment of the studies, in first-appearance order, each
        as its first appearance (so with that one's label)."""
        # keyed on the component tuple: hashing it skips the dataclass's
        # Python-level __hash__
        first: dict[tuple[str, ...], Treatment] = {}
        for study in self.studies:
            for arm in study.arms:
                first.setdefault(arm.treatment.components, arm.treatment)
        return tuple(first.values())

    # no fit reads this (rank decides); bench/synth.py and its tests still do
    @cached_property
    def connected(self) -> bool:
        """Whether the treatments form one group closed under "co-appear in
        a study"."""
        # each treatment's group: the treatments joined to it by the studies so
        # far, keyed on the component tuple as in ``treatments``
        group: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
        for study in self.studies:
            merged = set()
            for key in [arm.treatment.components for arm in study.arms]:
                merged |= group.get(key, {key})
            for key in merged:
                group[key] = merged
        return bool(group) and len(next(iter(group.values()))) == len(group)


def _check_study_ids(studies) -> None:
    """Raise CnmaError at the first record that is not a Study or repeats an id."""
    seen = set()
    for study in studies:
        if not isinstance(study, Study):
            raise CnmaError(f"{study!r} is not a Study")
        if study.id in seen:
            raise CnmaError(f"duplicate study id {study.id!r}")
        seen.add(study.id)


def build_network(studies) -> Network:
    """A Network of ``studies`` (not empty) whose component order is first
    appearance, scanning studies, arms, then each treatment's sorted components."""
    studies = tuple(studies)
    if not studies:
        raise EmptyNetwork("no studies")
    # a record that is not a Study adds no component; Network refuses it
    order = dict.fromkeys(
        c for s in studies if isinstance(s, Study) for a in s.arms for c in a.treatment.components
    )
    return Network(studies, tuple(order))


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
        treatments = _as_tuple(self.treatments)
        if treatments is None:
            raise CnmaError(f"contrast block {self.study_id!r}: treatments must be a sequence")
        object.__setattr__(self, "treatments", treatments)
        _check_treatments(treatments, "contrast block", self.study_id)
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
