"""Experiment configuration: one schema table, read by one generic field reader.

Every group a config document may hold is declared once in the table below:
its fields (type, default or required, bounds) and, for a family group such
as ``problem`` or ``schedule``, each family's own fields and the builder that
turns the validated values into a model object.  Every assertion is a field
of ``ASSERTIONS``.  Each kind lists its groups, its top-level fields, its
assertions and its cross-field rules; those rules are the only hand-written
validation.

Validation never stops at the first problem: every error is collected with a
dotted path to the offending key, and unknown keys are rejected everywhere.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .approximation import NoiseModel, RootProblem, Schedule
from .harness import EnsembleConfig
from .least_squares import (
    PARTITION_CLASSES,
    GWeight,
    feedback_design,
    geometric_one_design,
    iid_gaussian_design,
    rotating_design,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "parse_config_file"]


class ConfigError(Exception):
    """Carries every validation error found in a config document."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ExperimentConfig:
    kind: str
    ensemble: EnsembleConfig
    output_dir: str
    traces: bool
    curve_points: int
    model: Dict[str, Any]
    assertions: Dict[str, Any]
    warnings: List[str] = dataclass_field(default_factory=list)

    def build(self, group: str, *args: Any) -> Any:
        """The model object of family group ``group``, made by its family's builder."""
        values = self.model[group]
        spec = next(g for g in KINDS[self.kind].groups if g.name == group)
        return spec.families[values["family"]].build(values, *args)


def _is_number(v: Any) -> bool:
    # NaN is not: it passes every bound, because each comparison with it is false
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v


# ---------------------------------------------------------------------------
# Schema types


@dataclass(frozen=True)
class Field:
    """One value: its type, a default or ``required``, and its bounds.

    Types: ``number``, ``integer``, ``bool``, ``string``, ``numbers`` (a
    nonempty list, read as floats), ``choice`` (one of ``choices``),
    ``choices`` (a list of them), ``mapping`` (of its own ``fields``, read
    like a group but keeping only the keys it sets; an empty one is an
    error) and
    ``any`` (left to a rule).  ``gt``/``lt`` are exclusive bounds, ``ge``/``le``
    inclusive ones.  A value that fails its check reads as None, and the
    cross-field rules skip a None, so one mistake draws one error.
    """

    name: str
    type: str = "number"
    default: Any = None
    required: bool = False
    gt: Optional[float] = None
    ge: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    choices: Tuple[str, ...] = ()
    fields: Tuple["Field", ...] = ()


def need(name: str, type: str = "number", **bounds: Any) -> Field:
    """A required field."""
    return Field(name, type, required=True, **bounds)


# A rule reads the values of a group (group and family rules) or of the whole
# document (kind rules), and reports through the reader's fail() and warnings.
# A rule that checks an "any" field also stores its normalised value (or None).
Rule = Callable[["_Reader", Dict[str, Any]], None]


@dataclass(frozen=True)
class Family:
    """One family of a family group: its builder, its own fields and rules."""

    build: Callable[..., Any]
    fields: Tuple[Field, ...] = ()
    rules: Tuple[Rule, ...] = ()


@dataclass(frozen=True)
class Group:
    """A mapping at the top level of the document.

    A family group reads ``family`` first, then its shared ``fields`` and the
    chosen family's fields.  When the family is missing or invalid, the
    ``fallback`` family's fields are read instead (if there is one).
    ``absent`` says what a missing group means: ``"required"`` (an error),
    ``"none"``, or ``"defaults"`` (its fields' defaults; for a family group,
    the fallback family with its defaults).
    """

    name: str
    fields: Tuple[Field, ...] = ()
    families: Mapping[str, Family] = dataclass_field(default_factory=dict)
    absent: str = "required"
    fallback: Optional[str] = None
    rules: Tuple[Rule, ...] = ()

    def family_fields(self, family: Optional[str]) -> Tuple[Field, ...]:
        spec = self.families.get(family) or self.families.get(self.fallback)
        return self.fields + (spec.fields if spec else ())

    def keys(self, family: Optional[str]) -> List[str]:
        """Allowed keys: the shared fields and ``family``'s (every family's if it is invalid)."""
        names = [f.name for f in self.fields]
        if self.families:
            names.append("family")
        chosen = [self.families[family]] if family in self.families else self.families.values()
        names += [f.name for fam in chosen for f in fam.fields]
        return names


@dataclass(frozen=True)
class Kind:
    """An experiment kind: its groups, top-level fields, assertions and rules.

    ``ensemble`` is the kind's own reading of the ``ensemble`` group; None
    means the shared ``ENSEMBLE``.
    """

    groups: Tuple[Group, ...]
    assertions: Tuple[str, ...]
    fields: Tuple[Field, ...] = ()
    rules: Tuple[Rule, ...] = ()
    ensemble: Optional[Group] = None

    def keys(self) -> List[str]:
        return ["kind", "ensemble", "output", "assertions"] + [
            s.name for s in self.groups + self.fields
        ]


# ---------------------------------------------------------------------------
# The generic reader


def _why_invalid(f: Field, v: Any) -> Optional[str]:
    """Why ``v`` is not a valid value of ``f``, or None."""
    if f.type == "any":
        return None
    if f.type == "choice":
        return None if v in f.choices else f"must be one of {', '.join(f.choices)}"
    if f.type == "choices":
        if isinstance(v, list) and all(c in f.choices for c in v):
            return None
        return f"must be a list of values from {', '.join(f.choices)}"
    if f.type == "mapping":
        if not isinstance(v, dict):
            return "must be a mapping"
        if v or any(s.required for s in f.fields):
            return None
        return f"must set at least one of {', '.join(s.name for s in f.fields)}"
    if f.type == "bool":
        return None if isinstance(v, bool) else "must be true or false"
    if f.type == "string":
        return None if isinstance(v, str) else "must be a string"
    if f.type == "numbers":
        if isinstance(v, list) and v and all(_is_number(x) for x in v):
            return None
        return "must be a list of at least 1 numbers"
    if not _is_number(v) or (f.type == "integer" and not isinstance(v, int)):
        return f"must be {'an integer' if f.type == 'integer' else 'a number'}"
    if f.gt is not None and v <= f.gt:
        return f"must be > {f.gt}"
    if f.ge is not None and v < f.ge:
        return f"must be >= {f.ge}"
    if f.le is not None and v > f.le:
        return f"must be <= {f.le}"
    if f.lt is not None and v >= f.lt:
        return f"must be < {f.lt}"
    return None


def _missing(f: Field) -> str:
    if f.type == "numbers":
        return "required list is missing"
    if f.type == "choice":
        return f"required value is missing (one of {', '.join(f.choices)})"
    return "required value is missing"


class _Reader:
    """Reads a document against the schema, collecting errors and warnings."""

    def __init__(self):
        self.errors: List[str] = []
        self.warnings: List[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def unknown_keys(self, data: Dict[str, Any], allowed: Sequence[str], path: str) -> None:
        for key in data:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def value(self, data: Dict[str, Any], f: Field, path: str) -> Any:
        at = f"{path}.{f.name}" if path else f.name
        if f.name not in data:
            if f.required:
                self.fail(at, _missing(f))
            return copy.copy(f.default)
        value = data[f.name]
        reason = _why_invalid(f, value)
        if reason is not None:
            self.fail(at, reason)
            return None
        if f.type == "mapping":
            self.unknown_keys(value, [s.name for s in f.fields], at)
            # the keys it sets, and the required ones, whose absence is an error
            read = (s for s in f.fields if s.required or s.name in value)
            return {s.name: self.value(value, s, at) for s in read}
        return [float(v) for v in value] if f.type == "numbers" else value

    def group(self, data: Dict[str, Any], g: Group) -> Optional[Dict[str, Any]]:
        if g.name not in data:
            if g.absent == "required":
                self.fail(g.name, "required group is missing")
            if g.absent != "defaults":
                return None
            values = {f.name: copy.copy(f.default) for f in g.family_fields(g.fallback)}
            return {"family": g.fallback, **values} if g.families else values
        raw = data[g.name]
        if not isinstance(raw, dict):
            self.fail(g.name, "must be a mapping")
            return None
        values: Dict[str, Any] = {}
        family = None
        if g.families:
            choice = need("family", "choice", choices=tuple(g.families))
            family = values["family"] = self.value(raw, choice, g.name)
        self.unknown_keys(raw, g.keys(family), g.name)
        for f in g.family_fields(family):
            values[f.name] = self.value(raw, f, g.name)
        spec = g.families.get(family)
        for rule in g.rules + (spec.rules if spec else ()):
            rule(self, values)
        return values


# ---------------------------------------------------------------------------
# Cross-field rules


def _amplitude_below_slope(r: _Reader, v: Dict[str, Any]) -> None:
    if None not in (v["amplitude"], v["slope"]) and v["amplitude"] >= v["slope"]:
        r.fail("problem.amplitude", "must be smaller than slope to keep the map rootward")


def _nonnegative_steps(r: _Reader, v: Dict[str, Any]) -> None:
    if v["values"] is not None and any(x < 0 for x in v["values"]):
        r.fail("schedule.values", "step sizes must be nonnegative")


def _square_matrix(r: _Reader, v: Dict[str, Any]) -> None:
    rows = v["entries"]
    if not (
        isinstance(rows, list)
        and rows
        and all(
            isinstance(row, list) and len(row) == len(rows) and all(_is_number(x) for x in row)
            for row in rows
        )
    ):
        r.fail("problem.entries", "must be a square matrix of numbers")
        v["entries"] = None


def _m_at_most_M(r: _Reader, v: Dict[str, Any]) -> None:
    if v["m"] is not None and v["M"] is not None and v["m"] > v["M"]:
        r.fail("envelope.m", "must satisfy m <= M")


def _kappa(r: _Reader, v: Dict[str, Any]) -> None:
    if v["kappa"] != "delta" and not _is_number(v["kappa"]):
        r.fail("truncation.kappa", 'must be a number or the string "delta"')
        v["kappa"] = "delta"


def _tau_below_delta(r: _Reader, v: Dict[str, Any]) -> None:
    if v["delta"] is not None and v["tau"] is not None and v["tau"] >= v["delta"]:
        r.warnings.append("truncation.tau >= truncation.delta: guarantees assume tau < delta")


def _pairs(r: _Reader, v: Dict[str, Any]) -> None:
    pairs = v["pairs"]
    if (
        not isinstance(pairs, list)
        or not pairs
        or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_number(x) for x in p) for p in pairs
        )
    ):
        r.fail("regularity.pairs", "must be a list of [d1, d2] pairs")
        v["pairs"] = None
        return
    v["pairs"] = [[float(lo), float(hi)] for lo, hi in pairs]
    for pair in v["pairs"]:
        if not 0 < pair[0] < pair[1]:
            r.fail("regularity.pairs", f"invalid pair {pair}")


# Assertions that read an optional group.
_REQUIRES_GROUP = {
    "envelope_valid": "envelope",
    "sandwich_zero_violations": "envelope",
    "contraction_zero_violations": "envelope",
    "regularity_holds": "regularity",
}


def _assertion_groups(r: _Reader, doc: Dict[str, Any]) -> None:
    for name, group in _REQUIRES_GROUP.items():
        if doc["assertions"].get(name) and doc.get(group) is None:
            r.fail(f"assertions.{name}", f"requires the {group} group")


def _alternating_needs_linear(r: _Reader, doc: Dict[str, Any]) -> None:
    weights = doc["weights"] or {}
    if doc["assertions"].get("alternating_bound") and weights.get("family") != "linear":
        r.fail("assertions.alternating_bound", "requires linear weights")


def _schedule_covers_horizon(r: _Reader, doc: Dict[str, Any]) -> None:
    values = (doc["schedule"] or {}).get("values")
    horizon = (doc["ensemble"] or {}).get("horizon")
    if values is not None and horizon is not None and len(values) < horizon:
        r.fail(
            "schedule.values", f"{len(values)} step sizes do not cover ensemble.horizon {horizon}"
        )


def _summable_schedule(r: _Reader, doc: Dict[str, Any]) -> None:
    schedule = doc["schedule"] or {}
    # an invalid gamma reads as None and has been reported already
    if schedule.get("family") == "inverse_n_power" and (schedule["gamma"] or 0) > 1:
        r.warnings.append(
            "schedule: step sizes are summable (gamma > 1); the divergence "
            "requirement on their sum is unmet and convergence may stall"
        )


def _parallelism_ignored(r: _Reader, v: Dict[str, Any]) -> None:
    if (v["parallelism"] or 1) > 1:
        r.warnings.append(
            f"ensemble.parallelism = {v['parallelism']} is ignored: seeds run in one thread"
        )


def _x0_matches_matrix(r: _Reader, doc: Dict[str, Any]) -> None:
    entries = (doc["problem"] or {}).get("entries")
    x0 = doc["x0"]
    if entries is not None and x0 is not None and len(entries) != len(x0):
        r.fail("x0", f"length {len(x0)} does not match the {len(entries)}-d problem")


def _fits_design(r: _Reader, doc: Dict[str, Any]) -> None:
    """``beta`` and a ``partition_matches`` assertion must fit the design's columns.

    With both keys set, ``classes`` must fit ``q`` too: only the q
    finite-energy components can be ``finite_random_limit``, and only the
    p - q others ``consistent``.
    """
    design = doc["design"]
    if design is None or None in design.values():
        return
    p = DESIGN.families[design["family"]].build(design).p  # the builder owns the column count
    partition = doc["assertions"].get("partition_matches") or {}
    at = "assertions.partition_matches"
    for path, value in (("beta", doc["beta"]), (f"{at}.classes", partition.get("classes"))):
        if value is not None and len(value) != p:
            r.fail(path, f"length {len(value)} does not match the {p}-column design")
    q, classes = partition.get("q"), partition.get("classes")
    if (q or 0) > p:
        r.fail(f"{at}.q", f"must be <= {p} for the {p}-column design")
    elif q is not None and classes is not None:
        for name, most in (("finite_random_limit", q), ("consistent", p - q)):
            if classes.count(name) > most:
                r.fail(f"{at}.classes", f"must list {name} at most {most} times when q = {q}")


# ---------------------------------------------------------------------------
# Builders


def _linear(v: Dict[str, Any]) -> RootProblem:
    slope, root = float(v["slope"]), float(v["root"])

    def g(x):  # one iterate or a block of them
        return slope * (x - root)

    return RootProblem(g, x_star=root, g_block=g)


def _sine_perturbed(v: Dict[str, Any]) -> RootProblem:
    slope, amplitude, root = float(v["slope"]), float(v["amplitude"]), float(v["root"])

    def g_block(x: np.ndarray) -> np.ndarray:
        d = x - root
        return slope * d + amplitude * np.sin(d)

    return RootProblem(
        lambda x: slope * (x - root) + amplitude * math.sin(x - root), x_star=root, g_block=g_block
    )


def _sqrt_sign(v: Dict[str, Any]) -> RootProblem:
    root = float(v["root"])

    def g_block(x: np.ndarray) -> np.ndarray:
        d = x - root
        return np.copysign(np.sqrt(np.abs(d)), d)

    return RootProblem(
        lambda x: math.copysign(math.sqrt(abs(x - root)), x - root), x_star=root, g_block=g_block
    )


def _matrix(v: Dict[str, Any], p: int) -> RootProblem:
    A = np.asarray(v["entries"], dtype=float)
    # the stacked product matches A @ x row by row to the last bit; X @ A.T does not
    return RootProblem(
        lambda x: A @ x,
        x_star=np.zeros(p),
        dimension=p,
        g_block=lambda X: (A @ X[:, :, None])[:, :, 0],
    )


def _identity(v: Dict[str, Any], p: int) -> RootProblem:
    scale = float(v["scale"])

    def g(x):  # one iterate or a block of them
        return scale * x

    return RootProblem(g, x_star=np.zeros(p), dimension=p, g_block=g)


def _rademacher(v: Dict[str, Any], horizon: int) -> Callable[[Any], np.ndarray]:
    """Independent random signs, drawn from each seed's own stream."""
    return lambda seed_sequence: (
        np.random.default_rng(seed_sequence).integers(0, 2, size=horizon) * 2.0 - 1.0
    )


def _alternating(v: Dict[str, Any], horizon: int) -> Callable[[Any], np.ndarray]:
    return lambda seed_sequence: (-1.0) ** np.arange(1, horizon + 1)


# ---------------------------------------------------------------------------
# The table

_C = Field("c", default=1.0, gt=0.0)
_M_FIELDS = (need("m", gt=0.0), need("M", gt=0.0))
_RATIO_CAP = Field("ratio_cap", default=1e6, gt=0.0)
_GRID_MAX = Field("grid_max_abs", default=10.0, gt=0.0)

ENSEMBLE = Group(
    "ensemble",
    fields=(
        need("seeds", "integer", ge=1),
        need("root_seed", "integer", ge=0),
        need("horizon", "integer", ge=1),
        Field("tail_fraction", default=0.2, gt=0.0, lt=1),
        Field("tol_zero", default=1e-3, ge=0.0),
        Field("tol_cauchy", default=1e-3, ge=0.0),
        Field("parallelism", "integer", 1, ge=1),
        Field("divergence_cap", default=1e6, gt=0.0),
    ),
    rules=(_parallelism_ignored,),
)
# A check of given paths runs no ensemble and reads only the tail settings: the
# group, and its seeds, root_seed and horizon, may be left out.
PATHS_ENSEMBLE = replace(
    ENSEMBLE, fields=tuple(replace(f, required=False) for f in ENSEMBLE.fields), absent="defaults"
)
OUTPUT = Group(
    "output",
    fields=(
        Field("dir", "string", "out"),
        Field("traces", "bool", False),
        Field("curve_points", "integer", 200, ge=2),
    ),
    absent="defaults",
)
SCHEDULE = Group(
    "schedule",
    families={
        "inverse_n": Family(lambda v: Schedule.inverse_n(float(v["c"])), (_C,)),
        "inverse_n_power": Family(
            lambda v: Schedule.inverse_n_power(float(v["c"]), float(v["gamma"])),
            (_C, need("gamma", gt=0.0)),
        ),
        "explicit": Family(
            lambda v: Schedule.explicit(v["values"]),
            (need("values", "numbers"),),
            rules=(_nonnegative_steps,),
        ),
    },
)
NOISE = Group(
    "noise",
    families={
        "gaussian": Family(lambda v: NoiseModel.gaussian(float(v["sd"])), (need("sd", ge=0.0),)),
        "uniform": Family(
            lambda v: NoiseModel.uniform(float(v["half_width"])), (need("half_width", ge=0.0),)
        ),
        "none": Family(lambda v: NoiseModel.noiseless()),
    },
)
_SLOPE = Field("slope", default=1.0, gt=0.0)
PROBLEM = Group(
    "problem",
    fields=(Field("root", default=0.0),),
    families={
        "linear": Family(_linear, (_SLOPE,)),
        "sine_perturbed": Family(
            _sine_perturbed,
            (_SLOPE, Field("amplitude", default=0.3, ge=0.0)),
            rules=(_amplitude_below_slope,),
        ),
        "sqrt_sign": Family(_sqrt_sign),
    },
)
ENVELOPE = Group(
    "envelope",
    fields=_M_FIELDS
    + (
        Field("grid_min_abs", default=1e-4, gt=0.0),
        _GRID_MAX,
        Field("grid_per_decade", "integer", 10_000, ge=1),
        _RATIO_CAP,
    ),
    absent="none",
    rules=(_m_at_most_M,),
)
TRUNCATION = Group(
    "truncation",
    fields=(need("delta", gt=0.0), need("tau", gt=0.0), Field("kappa", "any", "delta")),
    rules=(_kappa, _tau_below_delta),
)
REGULARITY = Group(
    "regularity",
    fields=(
        need("c", ge=0.0),
        need("d", ge=0.0),
        Field("pairs", "any"),
        Field("grid_min_abs", default=1e-3, gt=0.0),
        _GRID_MAX,
        Field("grid_per_decade", "integer", 2000, ge=1),
    ),
    absent="none",
    rules=(_pairs,),
)
# The multivariate problem reads the identity's fields when its family is invalid.
PROBLEM_ND = Group(
    "problem",
    families={
        "matrix": Family(_matrix, (Field("entries", "any"),), rules=(_square_matrix,)),
        "identity": Family(_identity, (Field("scale", default=1.0, gt=0.0),)),
    },
    fallback="identity",
)
ENVELOPE_ND = Group(
    "envelope",
    fields=_M_FIELDS
    + (
        Field("directions", "integer", 64, ge=1),
        Field("radii", "numbers", [0.01, 0.1, 1.0, 10.0]),
        Field("grid_seed", "integer", 0, ge=0),
        _RATIO_CAP,
    ),
    absent="none",
)
INCREMENTS = Group(
    "increments", families={"rademacher": Family(_rademacher), "alternating": Family(_alternating)}
)
WEIGHTS = Group(
    "weights",
    families={
        "linear": Family(lambda v, horizon: np.arange(1.0, horizon + 1.0)),
        "power": Family(
            lambda v, horizon: np.arange(1.0, horizon + 1.0) ** float(v["gamma"]),
            (need("gamma", gt=0.0),),
        ),
    },
)
# A design builder returns a least_squares.Design, which carries its column count p.
DESIGN = Group(
    "design",
    families={
        "rotating": Family(
            lambda v: rotating_design(float(v["jitter"]), float(v["turns"])),
            (Field("jitter", default=0.1, ge=0.0), Field("turns", default=0.37)),
        ),
        "geometric_one": Family(lambda v: geometric_one_design()),
        "iid_gaussian": Family(
            lambda v: iid_gaussian_design(int(v["p"]), float(v["scale"])),
            (Field("p", "integer", 2, ge=1), Field("scale", default=1.0, gt=0.0)),
        ),
        "feedback": Family(
            lambda v: feedback_design(float(v["gain"])), (Field("gain", default=0.9, ge=0.0),)
        ),
    },
)
GWEIGHT = Group(
    "gweight",
    families={
        "identity": Family(lambda v: GWeight.identity()),
        "sqrt_log": Family(lambda v: GWeight.sqrt_log()),
    },
    absent="defaults",
    fallback="identity",
)
PARTITION = Group(
    "partition",
    fields=(
        Field("consistency_tol", default=0.05, gt=0.0),
        Field("oscillation_tol", default=1e-3, gt=0.0),
        Field("dispersion_ratio", default=3.0, ge=0.0),
    ),
    absent="defaults",
)
INPUT = Group("input", fields=(need("path", "string"), Field("zero_tol", default=0.0, ge=0.0)))
CHECKS = Group(
    "checks",
    fields=(
        Field("nonexpansive_alpha", ge=0.0),
        Field("contractive_k", ge=0.0, le=1.0),
        Field("divergence_target", default=5.0, ge=0.0),
        Field("zero_state_tol", ge=0.0),
        Field("segment_bound", "bool", False),
        Field("crossings", "bool", True),
    ),
)

# Every assertion, keyed by its name; each kind lists the ones it evaluates.
_THRESHOLD = (need("value"), need("fraction", ge=0.0, le=1.0))
_PARTITION = (Field("q", "integer", ge=0), Field("classes", "choices", choices=PARTITION_CLASSES))
_FLAGS = (
    "envelope_valid", "sandwich_zero_violations", "contraction_zero_violations",
    "truncated_nonexpansive_all_seeds", "truncated_mean_bound_all_seeds", "regularity_holds",
    "alternating_bound", "design_conditions_hold", "all_checks_hold",
)
ASSERTIONS: Dict[str, Field] = {
    f.name: f
    for f in (
        Field("min_fraction_converged_to_zero", ge=0.0, le=1.0),
        Field("max_median_final_abs", ge=0.0),
        Field("min_fraction_final_below", "mapping", fields=_THRESHOLD),
        Field("min_fraction_final_error_below", "mapping", fields=_THRESHOLD),
        Field("max_checkpoint_gap", ge=0.0),
        Field("partition_matches", "mapping", fields=_PARTITION),
        *(Field(name, "bool") for name in _FLAGS),
    )
}
_FRACTIONS = ("min_fraction_converged_to_zero", "min_fraction_final_below")
_SCHEDULE_RULES = (_schedule_covers_horizon, _summable_schedule)

KINDS: Dict[str, Kind] = {
    "sa": Kind(
        (PROBLEM, SCHEDULE, NOISE, ENVELOPE),
        (
            "min_fraction_converged_to_zero", "max_median_final_abs", "min_fraction_final_below",
            "envelope_valid", "sandwich_zero_violations",
        ),
        fields=(need("x0"),),
        rules=_SCHEDULE_RULES,
    ),
    "sa_nd": Kind(
        (PROBLEM_ND, SCHEDULE, NOISE, ENVELOPE_ND),
        _FRACTIONS + ("envelope_valid", "contraction_zero_violations"),
        fields=(need("x0", "numbers"),),
        rules=(_x0_matches_matrix,) + _SCHEDULE_RULES,
    ),
    "sa_nonuniform": Kind(
        (PROBLEM, SCHEDULE, NOISE, ENVELOPE, TRUNCATION, REGULARITY),
        (
            "min_fraction_converged_to_zero", "min_fraction_final_below",
            "truncated_nonexpansive_all_seeds", "truncated_mean_bound_all_seeds",
            "regularity_holds",
        ),
        fields=(need("x0"),),
        rules=_SCHEDULE_RULES,
    ),
    "kronecker": Kind(
        (INCREMENTS, WEIGHTS),
        _FRACTIONS + ("alternating_bound",),
        rules=(_alternating_needs_linear,),
    ),
    "ls": Kind(
        (DESIGN, GWEIGHT, PARTITION),
        (
            "min_fraction_final_error_below", "max_checkpoint_gap", "partition_matches",
            "design_conditions_hold",
        ),
        fields=(
            need("beta", "numbers"),
            need("sigma", ge=0.0),
            Field("energy_threshold", default=10.0, ge=0.0),
            Field("checkpoints", "integer", 8, ge=0),
        ),
        rules=(_fits_design,),
    ),
    "custom_path_check": Kind((INPUT, CHECKS), ("all_checks_hold",), ensemble=PATHS_ENSEMBLE),
}
KIND = need("kind", "choice", choices=tuple(KINDS))


def parse_config_text(
    text: str, ensemble_overrides: Optional[Mapping[str, Any]] = None
) -> ExperimentConfig:
    """Parse and validate a YAML config, raising ConfigError with every problem found.

    ``ensemble_overrides`` replace keys of the ``ensemble`` group before
    validation, so they are checked exactly like the document's own values;
    they are an error for a kind that runs no ensemble.
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config must be a mapping at the top level"])
    if ensemble_overrides and isinstance(data.get("ensemble"), dict):
        data["ensemble"] = {**data["ensemble"], **ensemble_overrides}

    r = _Reader()
    kind = r.value(data, KIND, "")
    spec = KINDS.get(kind)
    ensemble = r.group(data, (spec and spec.ensemble) or ENSEMBLE)
    if ensemble_overrides and spec is not None and spec.ensemble is PATHS_ENSEMBLE:
        keys = " and ".join(sorted(ensemble_overrides))
        reason = f"overrides of {keys} apply only to kinds that run an ensemble"
        r.fail("ensemble", f"{reason}; {kind} runs none")
    output = r.group(data, OUTPUT)
    model: Dict[str, Any] = {}
    assertions: Dict[str, Any] = {}
    if spec is not None:
        r.unknown_keys(data, spec.keys(), "")
        model = {g.name: r.group(data, g) for g in spec.groups}
        model.update((f.name, r.value(data, f, "")) for f in spec.fields)
        fields = tuple(ASSERTIONS[name] for name in spec.assertions)
        read = r.group(data, Group("assertions", fields, absent="none")) or {}
        assertions = {k: v for k, v in read.items() if k in data["assertions"]}
        doc = {**model, "ensemble": ensemble, "assertions": assertions}
        for rule in (_assertion_groups,) + spec.rules:
            rule(r, doc)

    if r.errors:
        raise ConfigError(sorted(r.errors))
    assert ensemble is not None and output is not None
    return ExperimentConfig(
        kind=kind,
        ensemble=EnsembleConfig(**ensemble),
        output_dir=output["dir"],
        traces=output["traces"],
        curve_points=output["curve_points"],
        model=model,
        assertions=assertions,
        warnings=r.warnings,
    )


def parse_config_file(
    path: str | Path, ensemble_overrides: Optional[Mapping[str, Any]] = None
) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(), ensemble_overrides)
