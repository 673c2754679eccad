"""Declarative sweep grids: axes, expansion, and fingerprints.

A :class:`SweepSpec` names a grid over five axes — chaos profile,
source-rate multiplier, burstiness, controller and runtime — plus
optional explicit cells outside the cartesian product (e.g.
Timely-runtime cells for DS2 only, where Dhalion has no global-scaling
analogue). Each axis is stated once, in :data:`AXES`: its domain
check, canonical value order, default and display text. Expansion
(:func:`expand_cells`) is deterministic by construction:

* axis values are canonicalized (deduplicated and sorted) at
  construction, so neither axis declaration order nor value
  declaration order affects the grid;
* cells are ordered scenario-major (profile, rate, burstiness,
  runtime in that fixed order), controller-minor, with explicit cells
  sorted the same way and appended after the cartesian block;
* every coordinate is validated against its axis domain *before* any
  cell runs, with the failing axis named in the error.

A *scenario* is a coordinate minus its controller: cells sharing a
scenario replay the same fault schedules (same storm, different
pilot), which is what makes DS2-vs-Dhalion margin tables fair.

Specs load from TOML files (:func:`load_spec`); two committed specs
live under ``tests/sweeps/``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SweepError
from repro.faults.campaigns import PROFILES
from repro.records import content_hash

#: Controllers a sweep may pit against each other (the chaos roster).
SWEEP_CONTROLLERS: Tuple[str, ...] = ("ds2", "ds2-legacy", "dhalion")

#: Runtime execution models cells may run on.
SWEEP_RUNTIMES: Tuple[str, ...] = ("heron", "flink", "timely")


def _axis_error(axis: str, message: str) -> SweepError:
    return SweepError(f"sweep axis {axis!r}: {message}")


def _check_profile(value: object, axis: str) -> str:
    if not isinstance(value, str) or value not in PROFILES:
        raise _axis_error(
            axis,
            f"unknown chaos profile {value!r} "
            f"(expected one of {', '.join(sorted(PROFILES))})",
        )
    return value


def _check_rate(value: object, axis: str) -> float:
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


def _check_burstiness(value: object, axis: str) -> Optional[float]:
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


def _burst_key(value: Optional[float]) -> Tuple[int, float]:
    # None (profile default) sorts before any pinned burstiness.
    return (0, 0.0) if value is None else (1, value)


def _show_burstiness(value: Optional[float]) -> str:
    return "profile" if value is None else f"{value:g}"


@dataclass(frozen=True)
class Axis:
    """One sweep axis, stated once.

    ``check(value, name)`` validates one value, raising a
    :class:`~repro.errors.SweepError` that names the axis, and returns
    it canonicalized; ``rank`` is the sort key of the canonical value
    order; ``default`` holds the values of a spec that omits the axis;
    ``show`` is a value's display text in reports, under the grid
    column ``heading`` and, in scenario labels, after ``tag``.
    ``field`` names the :class:`SweepSpec` field holding the values.
    """

    name: str
    field: str
    check: Callable[[Any, str], Any]
    rank: Callable[[Any], Any]
    default: Tuple[object, ...]
    show: Callable[[Any], str]
    heading: str
    tag: str = ""

    def canonical(self, values: Sequence[object]) -> Tuple[object, ...]:
        """Check, deduplicate and sort one axis's values."""
        ordered = sorted(
            {self.check(value, self.name) for value in values},
            key=self.rank,
        )
        if not ordered:
            raise _axis_error(self.name, "needs at least one value")
        return tuple(ordered)

    def text(self, coordinate: CellCoordinate) -> str:
        """The coordinate's value on this axis, as display text."""
        return self.show(getattr(coordinate, self.name))


#: Every sweep axis, keyed in the canonical axis order. Validation,
#: canonicalization, expansion, fingerprints and the sensitivity
#: report all read this table.
AXES: Dict[str, Axis] = {
    axis.name: axis
    for axis in (
        Axis(
            name="profile",
            field="profiles",
            check=_check_profile,
            rank=str,
            default=("smoke",),
            show=str,
            heading="profile",
        ),
        Axis(
            name="rate",
            field="rates",
            check=_check_rate,
            rank=float,
            default=(1.0,),
            show="{:g}".format,
            heading="rate",
            tag="rate=",
        ),
        Axis(
            name="burstiness",
            field="burstiness",
            check=_check_burstiness,
            rank=_burst_key,
            default=(None,),
            show=_show_burstiness,
            heading="burst",
            tag="burst=",
        ),
        Axis(
            name="controller",
            field="controllers",
            check=partial(_check_choice, choices=SWEEP_CONTROLLERS),
            rank=SWEEP_CONTROLLERS.index,
            default=("ds2", "dhalion"),
            show=str,
            heading="controller",
        ),
        Axis(
            name="runtime",
            field="runtimes",
            check=partial(_check_choice, choices=SWEEP_RUNTIMES),
            rank=SWEEP_RUNTIMES.index,
            default=("heron",),
            show=str,
            heading="runtime",
        ),
    )
}

#: The canonical axis order (the documented contract).
AXIS_ORDER: Tuple[str, ...] = tuple(AXES)

#: A scenario is every axis but the controller.
SCENARIO_AXES: Tuple[Axis, ...] = tuple(
    axis for axis in AXES.values() if axis is not AXES["controller"]
)

#: Cell order: scenario-major in AXIS_ORDER, controller-minor.
CELL_ORDER: Tuple[Axis, ...] = SCENARIO_AXES + (AXES["controller"],)


@dataclass(frozen=True)
class CellCoordinate:
    """One fully specified grid coordinate (an explicit cell).

    Each value is checked against its axis and stored canonicalized.
    """

    profile: str
    rate: float
    burstiness: Optional[float]
    controller: str
    runtime: str

    def __post_init__(self) -> None:
        for axis in AXES.values():
            value = axis.check(getattr(self, axis.name), axis.name)
            object.__setattr__(self, axis.name, value)
        if self.controller == "dhalion" and self.runtime == "timely":
            raise SweepError(
                "cell pairs controller 'dhalion' with runtime "
                "'timely': Dhalion's backpressure heuristic has no "
                "global-scaling analogue"
            )

    def scenario_key(self) -> Tuple[object, ...]:
        """The coordinate minus its controller: cells sharing a
        scenario replay identical fault schedules."""
        return tuple(getattr(self, axis.name) for axis in SCENARIO_AXES)

    def sort_key(self) -> Tuple[object, ...]:
        """Canonical cell order: scenario-major, controller-minor."""
        return tuple(
            axis.rank(getattr(self, axis.name)) for axis in CELL_ORDER
        )


@dataclass(frozen=True)
class SweepCell(CellCoordinate):
    """One expanded grid cell: a coordinate at its place in the grid.

    ``index`` is the cell's position in the grid; ``scenario`` is the
    ordinal of its scenario coordinate — shared by the cells that
    differ only in controller, and the stream the cell's fault
    schedules are sampled from.
    """

    index: int
    scenario: int
    explicit: bool = False


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
    profiles: Tuple[str, ...]
    rates: Tuple[float, ...]
    burstiness: Tuple[Optional[float], ...]
    controllers: Tuple[str, ...]
    runtimes: Tuple[str, ...]
    explicit: Tuple[CellCoordinate, ...] = ()
    campaigns: int = 1
    seed: int = 1
    tick: float = 1.0
    margin_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SweepError("sweep needs a non-empty name")
        for axis in AXES.values():
            values = axis.canonical(getattr(self, axis.field))
            object.__setattr__(self, axis.field, values)
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

        An omitted axis takes its default values. Unknown axis names,
        out-of-domain values, and malformed explicit cells raise
        :class:`~repro.errors.SweepError` naming the offending axis —
        before any cell runs.
        """
        axes = dict(axes or {})
        unknown = set(axes) - set(AXES)
        if unknown:
            raise SweepError(
                f"unknown sweep axis "
                f"{', '.join(repr(a) for a in sorted(unknown))} "
                f"(expected one of {', '.join(AXIS_ORDER)})"
            )
        for axis_name, values in axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise _axis_error(
                    axis_name, f"values must be a list, got {values!r}"
                )
        return cls(
            name=name,
            **{  # type: ignore[arg-type]
                axis.field: tuple(axes.get(axis.name, axis.default))
                for axis in AXES.values()
            },
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
            axis.name: getattr(self, axis.field) for axis in AXES.values()
        }


def _coordinate_from_mapping(
    cell: Mapping[str, object], position: int
) -> CellCoordinate:
    if not isinstance(cell, Mapping):
        raise SweepError(
            f"explicit cell {position} must be a table of axis "
            f"values, got {cell!r}"
        )
    unknown = set(cell) - set(AXES)
    if unknown:
        raise SweepError(
            f"explicit cell {position} names unknown axis "
            f"{', '.join(repr(a) for a in sorted(unknown))} "
            f"(expected one of {', '.join(AXIS_ORDER)})"
        )
    # An explicit cell may leave out only its burstiness, which then
    # stays the chaos profile's own.
    values = {"burstiness": None, **cell}
    missing = set(AXES) - set(values)
    if missing:
        raise SweepError(
            f"explicit cell {position} is missing axis "
            f"{', '.join(repr(a) for a in sorted(missing))}"
        )
    try:
        return CellCoordinate(**values)  # type: ignore[arg-type]
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
    (profile, rate, burstiness, runtime), controller-minor — then
    explicit cells in the same order, skipping any coordinate already
    produced. Scenario ordinals are assigned by first appearance and
    shared with explicit cells that land on an existing scenario (so
    their fault schedules match).
    """
    cells: List[SweepCell] = []
    seen: Set[CellCoordinate] = set()
    scenarios: Dict[Tuple[object, ...], int] = {}

    def add(coord: CellCoordinate, explicit: bool) -> None:
        if coord in seen:
            return
        seen.add(coord)
        cells.append(
            SweepCell(
                index=len(cells),
                scenario=scenarios.setdefault(
                    coord.scenario_key(), len(scenarios)
                ),
                explicit=explicit,
                **asdict(coord),
            )
        )

    names = [axis.name for axis in CELL_ORDER]
    for values in product(
        *(getattr(spec, axis.field) for axis in CELL_ORDER)
    ):
        add(CellCoordinate(**dict(zip(names, values))), explicit=False)
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
    return content_hash(doc)


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
    "AXES",
    "AXIS_ORDER",
    "Axis",
    "CellCoordinate",
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
