"""Declarative sweep grids: axes, expansion, and fingerprints.

A :class:`SweepSpec` names a grid over six axes — chaos profile,
source-rate multiplier, burstiness, controller, runtime, and engine
backend — plus optional explicit cells outside the cartesian product
(e.g. Timely-runtime cells for DS2 only, where Dhalion has no
global-scaling analogue). Expansion (:func:`expand_cells`) is
deterministic by construction:

* axis values are canonicalized (deduplicated and sorted) at
  construction, so neither axis declaration order nor value
  declaration order affects the grid;
* cells are ordered scenario-major (profile, rate, burstiness,
  runtime, backend in that fixed order), controller-minor, with
  explicit cells appended after the cartesian block;
* every coordinate is validated against its axis domain *before* any
  cell runs, with the failing axis named in the error.

A *scenario* is a coordinate minus its controller: cells sharing a
scenario replay the same fault schedules (same storm, different
pilot), which is what makes DS2-vs-Dhalion margin tables fair.

Specs load from TOML files (:func:`load_spec`); two committed specs
live under ``tests/sweeps/``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SweepError
from repro.faults.campaigns import PROFILES

#: The canonical axis order: scenario axes first (profile-major …
#: backend-minor), controller last. Expansion always iterates in this
#: order, so a spec's cell order never depends on how its axes were
#: declared.
AXIS_ORDER: Tuple[str, ...] = (
    "profile",
    "rate",
    "burstiness",
    "controller",
    "runtime",
    "backend",
)

#: Controllers a sweep may pit against each other (the chaos roster).
SWEEP_CONTROLLERS: Tuple[str, ...] = ("ds2", "ds2-legacy", "dhalion")

#: Runtime execution models cells may run on.
SWEEP_RUNTIMES: Tuple[str, ...] = ("heron", "flink", "timely")

#: Engine backends: only "default" (the one engine) is left. The axis
#: stays so that specs and reports keep their shape.
SWEEP_BACKENDS: Tuple[str, ...] = ("default",)

#: Axis values assumed when a spec omits the axis entirely.
DEFAULT_AXES: Dict[str, Tuple[object, ...]] = {
    "profile": ("smoke",),
    "rate": (1.0,),
    "burstiness": (None,),
    "controller": ("ds2", "dhalion"),
    "runtime": ("heron",),
    "backend": ("default",),
}


def _axis_error(axis: str, message: str) -> SweepError:
    return SweepError(f"sweep axis {axis!r}: {message}")


def _check_profile(value: object, axis: str = "profile") -> str:
    if not isinstance(value, str) or value not in PROFILES:
        raise _axis_error(
            axis,
            f"unknown chaos profile {value!r} "
            f"(expected one of {', '.join(sorted(PROFILES))})",
        )
    return value


def _check_rate(value: object, axis: str = "rate") -> float:
    if isinstance(value, bool) or not isinstance(
        value, (int, float)
    ):
        raise _axis_error(
            axis, f"rate multiplier {value!r} is not a number"
        )
    rate = float(value)
    if not math.isfinite(rate) or rate <= 0:
        raise _axis_error(
            axis,
            f"rate multiplier must be a finite value > 0, got {rate!r}",
        )
    return rate


def _check_burstiness(
    value: object, axis: str = "burstiness"
) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(
        value, (int, float)
    ):
        raise _axis_error(
            axis, f"burstiness {value!r} is not a number"
        )
    burst = float(value)
    if not math.isfinite(burst) or burst < 1.0:
        raise _axis_error(
            axis, f"burstiness must be >= 1, got {burst!r}"
        )
    return burst


def _check_choice(
    value: object, axis: str, choices: Tuple[str, ...]
) -> str:
    if not isinstance(value, str) or value not in choices:
        raise _axis_error(
            axis,
            f"unknown value {value!r} "
            f"(expected one of {', '.join(choices)})",
        )
    return value


@dataclass(frozen=True)
class CellCoordinate:
    """One fully specified grid coordinate (an explicit cell)."""

    profile: str
    rate: float
    burstiness: Optional[float]
    controller: str
    runtime: str
    backend: str

    def __post_init__(self) -> None:
        _check_profile(self.profile)
        _check_rate(self.rate)
        _check_burstiness(self.burstiness)
        _check_choice(
            self.controller, "controller", SWEEP_CONTROLLERS
        )
        _check_choice(self.runtime, "runtime", SWEEP_RUNTIMES)
        _check_choice(self.backend, "backend", SWEEP_BACKENDS)
        if self.controller == "dhalion" and self.runtime == "timely":
            raise SweepError(
                "cell pairs controller 'dhalion' with runtime "
                "'timely': Dhalion's backpressure heuristic has no "
                "global-scaling analogue"
            )

    @property
    def scenario(self) -> Tuple[object, ...]:
        """The coordinate minus its controller: cells sharing a
        scenario replay identical fault schedules."""
        return (
            self.profile,
            self.rate,
            self.burstiness,
            self.runtime,
            self.backend,
        )

    def sort_key(self) -> Tuple[object, ...]:
        return (
            self.profile,
            self.rate,
            _burst_key(self.burstiness),
            self.runtime,
            self.backend,
            self.controller,
        )


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid cell, in canonical order.

    ``index`` is the cell's position in the grid; ``scenario`` is the
    ordinal of its (profile, rate, burstiness, runtime, backend)
    coordinate — shared by the cells that differ only in controller,
    and the stream the cell's fault schedules are sampled from.
    """

    index: int
    scenario: int
    profile: str
    rate: float
    burstiness: Optional[float]
    controller: str
    runtime: str
    backend: str
    explicit: bool = False

    @property
    def coordinate(self) -> CellCoordinate:
        return CellCoordinate(
            profile=self.profile,
            rate=self.rate,
            burstiness=self.burstiness,
            controller=self.controller,
            runtime=self.runtime,
            backend=self.backend,
        )

    def label(self) -> str:
        burst = (
            "profile"
            if self.burstiness is None
            else f"{self.burstiness:g}"
        )
        return (
            f"{self.profile} rate={self.rate:g} burst={burst} "
            f"{self.runtime}/{self.backend} {self.controller}"
        )


def _burst_key(value: Optional[float]) -> Tuple[int, float]:
    # None (profile default) sorts before any pinned burstiness.
    return (0, 0.0) if value is None else (1, value)


def _canonical(
    values: Sequence[object], axis: str
) -> Tuple[object, ...]:
    """Deduplicate and sort one axis's values canonically."""
    if axis == "profile":
        checked: List[object] = [
            _check_profile(v, axis) for v in values
        ]
        ordered = sorted(set(checked))  # type: ignore[type-var]
    elif axis == "rate":
        ordered = sorted({_check_rate(v, axis) for v in values})
    elif axis == "burstiness":
        ordered = sorted(
            {_check_burstiness(v, axis) for v in values},
            key=_burst_key,
        )
    elif axis == "controller":
        checked = [
            _check_choice(v, axis, SWEEP_CONTROLLERS) for v in values
        ]
        ordered = [c for c in SWEEP_CONTROLLERS if c in set(checked)]
    elif axis == "runtime":
        checked = [
            _check_choice(v, axis, SWEEP_RUNTIMES) for v in values
        ]
        ordered = [r for r in SWEEP_RUNTIMES if r in set(checked)]
    elif axis == "backend":
        checked = [
            _check_choice(v, axis, SWEEP_BACKENDS) for v in values
        ]
        ordered = [b for b in SWEEP_BACKENDS if b in set(checked)]
    else:
        raise SweepError(
            f"unknown sweep axis {axis!r} "
            f"(expected one of {', '.join(AXIS_ORDER)})"
        )
    if not ordered:
        raise _axis_error(axis, "needs at least one value")
    return tuple(ordered)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid (canonicalized at construction).

    Build one from per-axis value lists with :meth:`build` (axis
    declaration order is irrelevant) or from a TOML file with
    :func:`load_spec`. ``campaigns`` schedules are sampled per
    scenario; ``margin_threshold`` is the DS2-vs-Dhalion margin below
    which the sensitivity report flags a collapse.
    """

    name: str
    profiles: Tuple[str, ...] = ("smoke",)
    rates: Tuple[float, ...] = (1.0,)
    burstiness: Tuple[Optional[float], ...] = (None,)
    controllers: Tuple[str, ...] = ("ds2", "dhalion")
    runtimes: Tuple[str, ...] = ("heron",)
    backends: Tuple[str, ...] = ("default",)
    explicit: Tuple[CellCoordinate, ...] = ()
    campaigns: int = 1
    seed: int = 1
    tick: float = 1.0
    margin_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SweepError("sweep needs a non-empty name")
        object.__setattr__(
            self, "profiles", _canonical(self.profiles, "profile")
        )
        object.__setattr__(
            self, "rates", _canonical(self.rates, "rate")
        )
        object.__setattr__(
            self,
            "burstiness",
            _canonical(self.burstiness, "burstiness"),
        )
        object.__setattr__(
            self,
            "controllers",
            _canonical(self.controllers, "controller"),
        )
        object.__setattr__(
            self, "runtimes", _canonical(self.runtimes, "runtime")
        )
        object.__setattr__(
            self, "backends", _canonical(self.backends, "backend")
        )
        if (
            "dhalion" in self.controllers
            and "timely" in self.runtimes
        ):
            raise SweepError(
                "cartesian axes pair controller 'dhalion' with "
                "runtime 'timely' (no global-scaling analogue); drop "
                "one of them and add Timely cells for DS2 as explicit "
                "[[cells]] instead"
            )
        ordered = tuple(
            sorted(set(self.explicit), key=CellCoordinate.sort_key)
        )
        object.__setattr__(self, "explicit", ordered)
        if self.campaigns < 1:
            raise SweepError(
                f"campaigns must be >= 1, got {self.campaigns}"
            )
        if not math.isfinite(self.tick) or self.tick <= 0:
            raise SweepError(
                f"tick must be a finite value > 0, got {self.tick!r}"
            )
        if not math.isfinite(self.margin_threshold):
            raise SweepError("margin_threshold must be finite")

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        axes: Optional[Mapping[str, Sequence[object]]] = None,
        cells: Sequence[Mapping[str, object]] = (),
        campaigns: int = 1,
        seed: int = 1,
        tick: float = 1.0,
        margin_threshold: float = 0.0,
    ) -> "SweepSpec":
        """Build a spec from an axis mapping plus explicit cells.

        Unknown axis names, out-of-domain values, and malformed
        explicit cells raise :class:`~repro.errors.SweepError` naming
        the offending axis — before any cell runs.
        """
        axes = dict(axes or {})
        unknown = set(axes) - set(AXIS_ORDER)
        if unknown:
            raise SweepError(
                f"unknown sweep axis "
                f"{', '.join(repr(a) for a in sorted(unknown))} "
                f"(expected one of {', '.join(AXIS_ORDER)})"
            )
        for axis, values in axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise _axis_error(
                    axis, f"values must be a list, got {values!r}"
                )
        def axis_values(axis: str) -> Tuple[object, ...]:
            return tuple(axes.get(axis, DEFAULT_AXES[axis]))

        return cls(
            name=name,
            profiles=axis_values("profile"),  # type: ignore[arg-type]
            rates=axis_values("rate"),  # type: ignore[arg-type]
            burstiness=axis_values("burstiness"),  # type: ignore[arg-type]
            controllers=axis_values("controller"),  # type: ignore[arg-type]
            runtimes=axis_values("runtime"),  # type: ignore[arg-type]
            backends=axis_values("backend"),  # type: ignore[arg-type]
            explicit=tuple(
                _coordinate_from_mapping(cell, position)
                for position, cell in enumerate(cells, start=1)
            ),
            campaigns=campaigns,
            seed=seed,
            tick=tick,
            margin_threshold=margin_threshold,
        )

    # -- views ----------------------------------------------------------

    def axes(self) -> Dict[str, Tuple[object, ...]]:
        """The canonicalized axis values, keyed in AXIS_ORDER."""
        return {
            "profile": self.profiles,
            "rate": self.rates,
            "burstiness": self.burstiness,
            "controller": self.controllers,
            "runtime": self.runtimes,
            "backend": self.backends,
        }


def _coordinate_from_mapping(
    cell: Mapping[str, object], position: int
) -> CellCoordinate:
    if not isinstance(cell, Mapping):
        raise SweepError(
            f"explicit cell {position} must be a table of axis "
            f"values, got {cell!r}"
        )
    unknown = set(cell) - set(AXIS_ORDER)
    if unknown:
        raise SweepError(
            f"explicit cell {position} names unknown axis "
            f"{', '.join(repr(a) for a in sorted(unknown))} "
            f"(expected one of {', '.join(AXIS_ORDER)})"
        )
    missing = {"profile", "rate", "controller", "runtime"} - set(cell)
    if missing:
        raise SweepError(
            f"explicit cell {position} is missing axis "
            f"{', '.join(repr(a) for a in sorted(missing))}"
        )
    try:
        return CellCoordinate(
            profile=_check_profile(cell["profile"]),
            rate=_check_rate(cell["rate"]),
            burstiness=_check_burstiness(cell.get("burstiness")),
            controller=_check_choice(
                cell["controller"], "controller", SWEEP_CONTROLLERS
            ),
            runtime=_check_choice(
                cell["runtime"], "runtime", SWEEP_RUNTIMES
            ),
            backend=_check_choice(
                cell.get("backend", "default"),
                "backend",
                SWEEP_BACKENDS,
            ),
        )
    except SweepError as error:
        raise SweepError(
            f"explicit cell {position}: {error}"
        ) from None


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------

def expand_cells(spec: SweepSpec) -> Tuple[SweepCell, ...]:
    """The grid's cells in canonical order.

    Cartesian cells first — scenario-major in AXIS_ORDER
    (profile, rate, burstiness, runtime, backend), controller-minor —
    then explicit cells in their canonical order, skipping any
    coordinate already produced. Scenario ordinals are assigned by
    first appearance and shared with explicit cells that land on an
    existing scenario (so their fault schedules match).
    """
    cells: List[SweepCell] = []
    seen: Dict[Tuple[object, ...], int] = {}
    scenarios: Dict[Tuple[object, ...], int] = {}

    def add(coord: CellCoordinate, explicit: bool) -> None:
        full = coord.scenario + (coord.controller,)
        if full in seen:
            return
        scenario = scenarios.setdefault(
            coord.scenario, len(scenarios)
        )
        seen[full] = len(cells)
        cells.append(
            SweepCell(
                index=len(cells),
                scenario=scenario,
                profile=coord.profile,
                rate=coord.rate,
                burstiness=coord.burstiness,
                controller=coord.controller,
                runtime=coord.runtime,
                backend=coord.backend,
                explicit=explicit,
            )
        )

    for profile in spec.profiles:
        for rate in spec.rates:
            for burst in spec.burstiness:
                for runtime in spec.runtimes:
                    for backend in spec.backends:
                        for controller in spec.controllers:
                            add(
                                CellCoordinate(
                                    profile=profile,
                                    rate=rate,
                                    burstiness=burst,
                                    controller=controller,
                                    runtime=runtime,
                                    backend=backend,
                                ),
                                explicit=False,
                            )
    for coord in spec.explicit:
        add(coord, explicit=True)
    return tuple(cells)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def spec_fingerprint(spec: SweepSpec) -> str:
    """Content hash of everything that determines the grid.

    Two specs with the same fingerprint expand to the same cells and
    sample the same fault schedules; the journal header records
    ``name@fingerprint`` so a checkpoint can never complete a
    different grid.
    """
    doc = {
        "name": spec.name,
        "axes": {
            axis: [repr(value) for value in values]
            for axis, values in spec.axes().items()
        },
        "explicit": [
            repr(coord.sort_key()) for coord in spec.explicit
        ],
        "campaigns": spec.campaigns,
        "seed": spec.seed,
        "tick": repr(spec.tick),
        "margin_threshold": repr(spec.margin_threshold),
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def sweep_label(spec: SweepSpec) -> str:
    """The ``name@fingerprint`` string journals and reports carry."""
    return f"{spec.name}@{spec_fingerprint(spec)}"


# ----------------------------------------------------------------------
# TOML loading
# ----------------------------------------------------------------------

def _parse_scalar(text: str, where: str) -> object:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise SweepError(
            f"{where}: unsupported TOML value {text!r}"
        ) from None


def _split_unquoted(text: str, separator: str) -> List[str]:
    """Split ``text`` at every ``separator`` outside a double-quoted
    string."""
    parts: List[str] = []
    start = 0
    quoted = False
    for index, char in enumerate(text):
        if char == '"':
            quoted = not quoted
        elif char == separator and not quoted:
            parts.append(text[start:index])
            start = index + 1
    parts.append(text[start:])
    return parts


def _parse_minimal_toml(text: str, where: str) -> Dict[str, object]:
    """A fallback parser for the restricted sweep-spec TOML subset.

    Python < 3.11 has no ``tomllib`` and this repo adds no third-party
    dependencies, so spec files are limited to what both readers
    accept: ``[table]`` / ``[[array-of-tables]]`` headers and
    ``key = scalar-or-flat-array`` pairs.
    """
    root: Dict[str, object] = {}
    current: Dict[str, object] = root
    for number, raw in enumerate(text.split("\n"), start=1):
        line = _split_unquoted(raw, "#")[0].strip()
        if not line:
            continue
        spot = f"{where}:{number}"
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            tables = root.setdefault(name, [])
            if not isinstance(tables, list):
                raise SweepError(
                    f"{spot}: {name!r} is both a table and an array"
                )
            current = {}
            tables.append(current)
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            table = root.setdefault(name, {})
            if not isinstance(table, dict):
                raise SweepError(
                    f"{spot}: {name!r} is both a table and an array"
                )
            current = table
            continue
        if "=" not in line:
            raise SweepError(f"{spot}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            items = (
                [
                    _parse_scalar(item, spot)
                    for item in _split_unquoted(inner, ",")
                    if item.strip()
                ]
                if inner
                else []
            )
            current[key] = items
        else:
            current[key] = _parse_scalar(value, spot)
    return root


def _load_toml(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SweepError(
            f"cannot read sweep spec {path!r}: {error}"
        ) from None
    try:
        import tomllib
    except ModuleNotFoundError:
        return _parse_minimal_toml(text, path)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise SweepError(
            f"sweep spec {path!r} is not valid TOML: {error}"
        ) from None


def spec_from_document(
    document: Mapping[str, object], where: str = "<spec>"
) -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed TOML document."""
    sweep = document.get("sweep")
    if not isinstance(sweep, Mapping):
        raise SweepError(
            f"{where}: missing [sweep] table (with at least "
            f"'name = \"...\"')"
        )
    known = {
        "name", "campaigns", "seed", "tick", "margin_threshold",
    }
    unknown = set(sweep) - known
    if unknown:
        raise SweepError(
            f"{where}: unknown [sweep] key "
            f"{', '.join(repr(k) for k in sorted(unknown))} "
            f"(expected {', '.join(sorted(known))})"
        )
    name = sweep.get("name")
    if not isinstance(name, str) or not name:
        raise SweepError(f"{where}: [sweep] needs a non-empty name")
    axes = document.get("axes", {})
    if not isinstance(axes, Mapping):
        raise SweepError(f"{where}: [axes] must be a table")
    cells = document.get("cells", [])
    if not isinstance(cells, list):
        raise SweepError(
            f"{where}: cells must be [[cells]] tables"
        )
    extra = set(document) - {"sweep", "axes", "cells"}
    if extra:
        raise SweepError(
            f"{where}: unknown top-level table "
            f"{', '.join(repr(k) for k in sorted(extra))} "
            f"(expected sweep, axes, cells)"
        )

    def number(key: str, default: float) -> float:
        value = sweep.get(key, default)
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            raise SweepError(
                f"{where}: [sweep] {key} must be a number, "
                f"got {value!r}"
            )
        return float(value)

    campaigns = number("campaigns", 1.0)
    if campaigns != int(campaigns):
        raise SweepError(
            f"{where}: [sweep] campaigns must be an integer"
        )
    seed = number("seed", 1.0)
    if seed != int(seed):
        raise SweepError(f"{where}: [sweep] seed must be an integer")
    return SweepSpec.build(
        name=name,
        axes={axis: list(values) for axis, values in axes.items()},  # type: ignore[arg-type]
        cells=cells,
        campaigns=int(campaigns),
        seed=int(seed),
        tick=number("tick", 1.0),
        margin_threshold=number("margin_threshold", 0.0),
    )


def load_spec(path: str) -> SweepSpec:
    """Load and validate a sweep spec from a TOML file."""
    return spec_from_document(_load_toml(path), where=path)


__all__ = [
    "AXIS_ORDER",
    "CellCoordinate",
    "DEFAULT_AXES",
    "SWEEP_BACKENDS",
    "SWEEP_CONTROLLERS",
    "SWEEP_RUNTIMES",
    "SweepCell",
    "SweepSpec",
    "expand_cells",
    "load_spec",
    "spec_fingerprint",
    "spec_from_document",
    "sweep_label",
]
