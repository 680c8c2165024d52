"""Declarative scenario-space specs: typed axes over scenario knobs.

A :class:`VariationSpec` describes a whole *family* of runs instead of
one run: a base scenario (``family`` + fixed ``base`` overrides) plus
typed **axes** that span the knobs worth exploring -- continuous and
integer ranges, categorical choices and booleans -- with optional
cross-axis **constraints** (``action_distance < start_distance``).
Everything is frozen, canonically serialisable
(``to_dict``/``from_dict``) and fingerprintable through the shared
:func:`~repro.core.fingerprint.spec_fingerprint` helper, so a spec
identifies its whole campaign the way a scenario identifies one run.

A **point** of the space is a plain ``{axis name: value}`` dict; its
identity is :func:`point_key` -- the SHA-256 of its canonical JSON --
which the run cache, the coverage model and the adaptive sampler all
key on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.core.fingerprint import canonical_json, spec_fingerprint

#: Bump when spec semantics or serialisation change; part of the
#: spec fingerprint.
VARY_FORMAT = 1

#: Scenario families a spec can vary.
FAMILIES = ("emergency_brake", "fleet")

#: The value types an axis can produce.
AxisValue = Union[bool, int, float, str]


class InfeasibleSpecError(ValueError):
    """Every sampled point of a spec violated its constraints.

    Raised by the campaign layer instead of silently producing an
    empty (vacuously covered) report: a spec whose constraint set
    rejects the whole sampled space is a spec bug the author must
    see.  Carries the spec name and how many candidates were tried.
    """

    def __init__(self, spec_name: str, tried: int, sampler: str):
        self.spec_name = spec_name
        self.tried = tried
        self.sampler = sampler
        super().__init__(
            f"spec {spec_name!r} is infeasible: all {tried} "
            f"candidate point(s) from the {sampler!r} sampler "
            f"violate its constraints")


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ContinuousAxis:
    """A real-valued closed range ``[low, high]``."""

    name: str
    low: float
    high: float

    KIND = "continuous"

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(
                f"axis {self.name!r}: bounds must be finite, got "
                f"[{self.low}, {self.high}]")
        if not self.low < self.high:
            raise ValueError(
                f"axis {self.name!r}: low must be < high, got "
                f"[{self.low}, {self.high}]")

    def from_unit(self, unit: float) -> float:
        """Map ``unit`` in [0, 1) onto the range."""
        return self.low + (self.high - self.low) * unit

    def normalise(self, value: AxisValue) -> float:
        """Map a value of this axis into [0, 1]."""
        return (float(value) - self.low) / (self.high - self.low)

    def grid(self, levels: int) -> List[AxisValue]:
        """*levels* evenly spaced values, endpoints included."""
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if levels == 1:
            return [(self.low + self.high) / 2.0]
        step = (self.high - self.low) / (levels - 1)
        return [self.low + step * index for index in range(levels)]

    def bins(self, coverage_bins: int) -> int:
        """How many coverage bins this axis occupies."""
        return coverage_bins

    def bin_of(self, value: AxisValue, coverage_bins: int) -> int:
        """The coverage bin index of *value*."""
        unit = self.normalise(value)
        return min(coverage_bins - 1, max(0, int(unit * coverage_bins)))

    def midpoint(self, a: AxisValue, b: AxisValue) -> AxisValue:
        """The value halfway between two points on this axis."""
        return (float(a) + float(b)) / 2.0

    def validate(self, value: AxisValue) -> None:
        """Raise unless *value* lies on this axis."""
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool) \
                or not self.low <= float(value) <= self.high:
            raise ValueError(
                f"axis {self.name!r}: {value!r} outside "
                f"[{self.low}, {self.high}]")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {"kind": self.KIND, "name": self.name,
                "low": self.low, "high": self.high}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ContinuousAxis":
        """Rebuild an axis serialised by :meth:`to_dict`."""
        _check_axis_keys(cls.KIND, data, ("name", "low", "high"))
        return cls(name=str(data["name"]), low=float(data["low"]),
                   high=float(data["high"]))


@dataclasses.dataclass(frozen=True)
class IntAxis:
    """An integer range ``low..high``, both ends inclusive."""

    name: str
    low: int
    high: int

    KIND = "int"

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        if not self.low < self.high:
            raise ValueError(
                f"axis {self.name!r}: low must be < high, got "
                f"[{self.low}, {self.high}]")

    @property
    def span(self) -> int:
        """How many integers the range contains."""
        return self.high - self.low + 1

    def from_unit(self, unit: float) -> int:
        """Map ``unit`` in [0, 1) onto the range."""
        return min(self.high, self.low + int(unit * self.span))

    def normalise(self, value: AxisValue) -> float:
        """Map a value of this axis into [0, 1]."""
        return (int(value) - self.low) / (self.span - 1)

    def grid(self, levels: int) -> List[AxisValue]:
        """At most *levels* evenly spaced integers (all, if few)."""
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if self.span <= levels:
            return list(range(self.low, self.high + 1))
        step = (self.span - 1) / (levels - 1)
        values = {self.low + round(step * index)
                  for index in range(levels)}
        return sorted(values)

    def bins(self, coverage_bins: int) -> int:
        """How many coverage bins this axis occupies."""
        return min(coverage_bins, self.span)

    def bin_of(self, value: AxisValue, coverage_bins: int) -> int:
        """The coverage bin index of *value*."""
        bins = self.bins(coverage_bins)
        offset = int(value) - self.low
        return min(bins - 1, offset * bins // self.span)

    def midpoint(self, a: AxisValue, b: AxisValue) -> AxisValue:
        """The integer halfway between two points on this axis."""
        return (int(a) + int(b)) // 2

    def validate(self, value: AxisValue) -> None:
        """Raise unless *value* lies on this axis."""
        if not isinstance(value, int) or isinstance(value, bool) \
                or not self.low <= value <= self.high:
            raise ValueError(
                f"axis {self.name!r}: {value!r} outside "
                f"{self.low}..{self.high}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {"kind": self.KIND, "name": self.name,
                "low": self.low, "high": self.high}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IntAxis":
        """Rebuild an axis serialised by :meth:`to_dict`."""
        _check_axis_keys(cls.KIND, data, ("name", "low", "high"))
        return cls(name=str(data["name"]), low=int(data["low"]),
                   high=int(data["high"]))


@dataclasses.dataclass(frozen=True)
class CategoricalAxis:
    """A finite, ordered set of choices (strings or numbers)."""

    name: str
    choices: Tuple[AxisValue, ...]

    KIND = "categorical"

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        if not isinstance(self.choices, tuple):
            object.__setattr__(self, "choices", tuple(self.choices))
        if len(self.choices) < 2:
            raise ValueError(
                f"axis {self.name!r}: needs >= 2 choices, got "
                f"{self.choices!r}")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(
                f"axis {self.name!r}: duplicate choices in "
                f"{self.choices!r}")

    def from_unit(self, unit: float) -> AxisValue:
        """Map ``unit`` in [0, 1) onto a choice."""
        index = min(len(self.choices) - 1,
                    int(unit * len(self.choices)))
        return self.choices[index]

    def normalise(self, value: AxisValue) -> float:
        """The choice's index, scaled into [0, 1]."""
        index = self.choices.index(value)
        if len(self.choices) == 1:
            return 0.0
        return index / (len(self.choices) - 1)

    def grid(self, levels: int) -> List[AxisValue]:
        """Every choice (grids always cover categoricals fully)."""
        return list(self.choices)

    def bins(self, coverage_bins: int) -> int:
        """One coverage bin per choice."""
        return len(self.choices)

    def bin_of(self, value: AxisValue, coverage_bins: int) -> int:
        """The choice's index."""
        return self.choices.index(value)

    def midpoint(self, a: AxisValue, b: AxisValue) -> AxisValue:
        """Categoricals have no midpoint: keep the second parent's
        value (the sampler passes the failing side second)."""
        return b

    def validate(self, value: AxisValue) -> None:
        """Raise unless *value* is one of the choices."""
        if value not in self.choices:
            raise ValueError(
                f"axis {self.name!r}: {value!r} not in "
                f"{self.choices!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {"kind": self.KIND, "name": self.name,
                "choices": list(self.choices)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CategoricalAxis":
        """Rebuild an axis serialised by :meth:`to_dict`."""
        _check_axis_keys(cls.KIND, data, ("name", "choices"))
        return cls(name=str(data["name"]),
                   choices=tuple(data["choices"]))


@dataclasses.dataclass(frozen=True)
class BooleanAxis:
    """An on/off knob."""

    name: str

    KIND = "boolean"

    def __post_init__(self) -> None:
        _check_axis_name(self.name)

    def from_unit(self, unit: float) -> bool:
        """Map ``unit`` in [0, 1) onto False/True."""
        return unit >= 0.5

    def normalise(self, value: AxisValue) -> float:
        """False -> 0.0, True -> 1.0."""
        return 1.0 if value else 0.0

    def grid(self, levels: int) -> List[AxisValue]:
        """Both values."""
        return [False, True]

    def bins(self, coverage_bins: int) -> int:
        """Two coverage bins."""
        return 2

    def bin_of(self, value: AxisValue, coverage_bins: int) -> int:
        """False -> 0, True -> 1."""
        return 1 if value else 0

    def midpoint(self, a: AxisValue, b: AxisValue) -> AxisValue:
        """Booleans have no midpoint: keep the second parent's value."""
        return b

    def validate(self, value: AxisValue) -> None:
        """Raise unless *value* is a bool."""
        if not isinstance(value, bool):
            raise ValueError(
                f"axis {self.name!r}: {value!r} is not a bool")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {"kind": self.KIND, "name": self.name}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BooleanAxis":
        """Rebuild an axis serialised by :meth:`to_dict`."""
        _check_axis_keys(cls.KIND, data, ("name",))
        return cls(name=str(data["name"]))


Axis = Union[ContinuousAxis, IntAxis, CategoricalAxis, BooleanAxis]

#: kind string -> axis class, for deserialisation.
AXIS_KINDS: Dict[str, Any] = {
    cls.KIND: cls
    for cls in (ContinuousAxis, IntAxis, CategoricalAxis, BooleanAxis)
}


def axis_from_dict(data: Dict[str, Any]) -> Axis:
    """Rebuild one axis serialised by its ``to_dict``."""
    kind = data.get("kind")
    cls = AXIS_KINDS.get(str(kind))
    if cls is None:
        raise ValueError(
            f"unknown axis kind {kind!r}; known kinds: "
            f"{sorted(AXIS_KINDS)}")
    axis: Axis = cls.from_dict(data)
    return axis


def _check_axis_name(name: str) -> None:
    if not name or not isinstance(name, str):
        raise ValueError(f"axis name must be a non-empty string, "
                         f"got {name!r}")


def _check_axis_keys(kind: str, data: Dict[str, Any],
                     expected: Tuple[str, ...]) -> None:
    unknown = set(data) - {"kind"} - set(expected)
    if unknown:
        raise ValueError(
            f"unknown field(s) {sorted(unknown)} for axis kind "
            f"{kind!r}")
    got = data.get("kind", kind)
    if got != kind:
        # Calling a concrete axis's from_dict with another kind's
        # payload must fail, not silently coerce the fields.
        raise ValueError(
            f"axis payload kind {got!r} does not match {kind!r}")


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

#: Comparison operators a constraint may use.
CONSTRAINT_OPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclasses.dataclass(frozen=True)
class Constraint:
    """A cross-axis predicate every sampled point must satisfy.

    Compares the *lhs* axis either to another axis (``rhs_axis``) or
    to a literal (``rhs_value``); exactly one of the two must be set.
    Points violating any constraint are infeasible: grid sampling
    filters them out, LHS rejects them, refinement never emits them.
    """

    lhs: str
    op: str
    rhs_axis: str = ""
    rhs_value: Any = None

    def __post_init__(self) -> None:
        if self.op not in CONSTRAINT_OPS:
            raise ValueError(
                f"unknown constraint op {self.op!r}; expected one of "
                f"{CONSTRAINT_OPS}")
        if bool(self.rhs_axis) == (self.rhs_value is not None):
            raise ValueError(
                "constraint needs exactly one of rhs_axis / rhs_value")

    def satisfied(self, values: Mapping[str, AxisValue]) -> bool:
        """Whether *values* (a complete point) passes the predicate."""
        left = values[self.lhs]
        right = (values[self.rhs_axis] if self.rhs_axis
                 else self.rhs_value)
        if self.op == "<":
            return bool(left < right)
        if self.op == "<=":
            return bool(left <= right)
        if self.op == ">":
            return bool(left > right)
        if self.op == ">=":
            return bool(left >= right)
        if self.op == "==":
            return bool(left == right)
        return bool(left != right)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {"lhs": self.lhs, "op": self.op,
                "rhs_axis": self.rhs_axis,
                "rhs_value": self.rhs_value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Constraint":
        """Rebuild a constraint serialised by :meth:`to_dict`."""
        unknown = set(data) - {"lhs", "op", "rhs_axis", "rhs_value"}
        if unknown:
            raise ValueError(
                f"unknown constraint field(s) {sorted(unknown)}")
        return cls(lhs=str(data["lhs"]), op=str(data["op"]),
                   rhs_axis=str(data["rhs_axis"]),
                   rhs_value=data["rhs_value"])


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class VariationSpec:
    """One scenario family's searchable space.

    ``family`` selects what a point materialises into (and which
    engine runs it): ``"emergency_brake"`` feeds
    :func:`~repro.faults.matrix.run_fault_matrix`, ``"fleet"`` feeds
    :func:`~repro.core.campaign.run_campaign_parallel`.  ``base`` holds
    fixed scenario-field overrides applied to every point (dotted
    keys reach nested configs, e.g. ``"ntp.initial_offset_std"``);
    the special axis/base key ``"fault_plan"`` names a built-in fault
    plan (emergency-brake family only).
    """

    name: str
    family: str
    axes: Tuple[Axis, ...]
    constraints: Tuple[Constraint, ...] = ()
    base: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: Coverage bins per continuous/int axis (categoricals get one
    #: bin per choice).
    coverage_bins: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec name must be non-empty")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of "
                f"{FAMILIES}")
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not isinstance(self.constraints, tuple):
            object.__setattr__(self, "constraints",
                               tuple(self.constraints))
        if not self.axes:
            raise ValueError("spec needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if self.coverage_bins < 1:
            raise ValueError(
                f"coverage_bins must be >= 1, got {self.coverage_bins}")
        axis_names = set(names)
        for constraint in self.constraints:
            if constraint.lhs not in axis_names:
                raise ValueError(
                    f"constraint lhs {constraint.lhs!r} is not an "
                    f"axis of this spec")
            if constraint.rhs_axis \
                    and constraint.rhs_axis not in axis_names:
                raise ValueError(
                    f"constraint rhs_axis {constraint.rhs_axis!r} is "
                    f"not an axis of this spec")
        overlap = axis_names & set(self.base)
        if overlap:
            raise ValueError(
                f"base overrides collide with axes: {sorted(overlap)}")
        if self.family != "emergency_brake" \
                and "fault_plan" in axis_names | set(self.base):
            raise ValueError(
                "fault_plan is only variable in the emergency_brake "
                "family")

    def axis(self, name: str) -> Axis:
        """The axis called *name* (raises KeyError if absent)."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(name)

    def feasible(self, values: Mapping[str, AxisValue]) -> bool:
        """Whether a complete point satisfies every constraint."""
        return all(constraint.satisfied(values)
                   for constraint in self.constraints)

    def validate_point(self, values: Mapping[str, AxisValue]) -> None:
        """Raise unless *values* is a complete, on-axis point."""
        expected = {axis.name for axis in self.axes}
        got = set(values)
        if expected != got:
            raise ValueError(
                f"point axes {sorted(got)} do not match spec axes "
                f"{sorted(expected)}")
        for axis in self.axes:
            axis.validate(values[axis.name])

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form of the whole spec."""
        return {
            "format": VARY_FORMAT,
            "name": self.name,
            "family": self.family,
            "axes": [axis.to_dict() for axis in self.axes],
            "constraints": [constraint.to_dict()
                            for constraint in self.constraints],
            "base": {key: self.base[key]
                     for key in sorted(self.base)},
            "coverage_bins": self.coverage_bins,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VariationSpec":
        """Rebuild a spec serialised by :meth:`to_dict`."""
        known = {"format", "name", "family", "axes", "constraints",
                 "base", "coverage_bins"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {sorted(unknown)}")
        if "format" not in data:
            # A payload without the tag predates the tag itself:
            # guessing "current" here is exactly the stale-spec bug
            # the format field exists to prevent.
            raise ValueError(
                "spec payload carries no 'format' tag; re-export it "
                f"with to_dict() (this build reads format "
                f"{VARY_FORMAT})")
        fmt = data["format"]
        if fmt != VARY_FORMAT:
            raise ValueError(
                f"spec format {fmt!r} not supported (this build "
                f"reads format {VARY_FORMAT})")
        return cls(
            name=str(data["name"]),
            family=str(data["family"]),
            axes=tuple(axis_from_dict(axis)
                       for axis in data["axes"]),
            constraints=tuple(Constraint.from_dict(entry)
                              for entry in data["constraints"]),
            base=dict(data["base"]),
            coverage_bins=int(data["coverage_bins"]),
        )

    def fingerprint(self) -> str:
        """The spec's stable SHA-256 identity."""
        return spec_fingerprint("vary", VARY_FORMAT,
                                {"spec": self.to_dict()})


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def canonical_point(values: Mapping[str, AxisValue]
                    ) -> Dict[str, AxisValue]:
    """The canonical (sorted-key) form of a point."""
    return {name: values[name] for name in sorted(values)}


def point_key(values: Mapping[str, AxisValue]) -> str:
    """The SHA-256 identity of one point (order-independent)."""
    text = canonical_json(canonical_point(values))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def points_digest(points: Sequence[Mapping[str, AxisValue]]) -> str:
    """SHA-256 over an ordered point list's canonical JSON."""
    text = canonical_json([canonical_point(values)
                           for values in points])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
