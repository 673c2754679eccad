"""Property-based and unit tests of sweep-spec expansion.

The spec's contract: expansion is a pure function of the *set* of axis
values (declaration order of axes and of values is irrelevant), cell
fingerprints are unique across the grid, explicit cells always lie in
the cartesian closure of their own coordinates, and every invalid
input is rejected with a :class:`~repro.errors.SweepError` naming the
offending axis — before any cell runs.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.faults.checkpoint import cell_fingerprint
from repro.sweeps import (
    CellCoordinate,
    SweepSpec,
    compile_grid,
    expand_cells,
    load_spec,
    spec_fingerprint,
    sweep_label,
)
from repro.sweeps.spec import (
    AXIS_ORDER,
    SWEEP_BACKENDS,
    SWEEP_CONTROLLERS,
    SWEEP_RUNTIMES,
    _parse_minimal_toml,
)

# -- strategies --------------------------------------------------------

profiles = st.lists(
    st.sampled_from(["smoke", "mixed", "crashes", "telemetry"]),
    min_size=1, max_size=3,
)
rates = st.lists(
    st.sampled_from([0.5, 0.75, 1.0, 1.25, 2.0]),
    min_size=1, max_size=3,
)
burstiness = st.lists(
    st.sampled_from([None, 1.0, 2.0, 4.0]), min_size=1, max_size=3
)
# 'timely' is excluded from the cartesian runtime axis whenever
# dhalion is present, so draw controllers and runtimes jointly.
controller_runtime = st.one_of(
    st.tuples(
        st.lists(
            st.sampled_from(list(SWEEP_CONTROLLERS)),
            min_size=1, max_size=3,
        ),
        st.lists(
            st.sampled_from(["heron", "flink"]),
            min_size=1, max_size=2,
        ),
    ),
    st.tuples(
        st.lists(
            st.sampled_from(["ds2", "ds2-legacy"]),
            min_size=1, max_size=2,
        ),
        st.lists(
            st.sampled_from(list(SWEEP_RUNTIMES)),
            min_size=1, max_size=3,
        ),
    ),
)
backends = st.lists(
    st.sampled_from(list(SWEEP_BACKENDS)), min_size=1, max_size=3
)


@st.composite
def sweep_axes(draw):
    ctrl, runt = draw(controller_runtime)
    return {
        "profile": draw(profiles),
        "rate": draw(rates),
        "burstiness": draw(burstiness),
        "controller": ctrl,
        "runtime": runt,
        "backend": draw(backends),
    }


def _build(axes, **kwargs):
    return SweepSpec.build("prop-grid", axes=axes, **kwargs)


# -- determinism properties --------------------------------------------

@settings(max_examples=40, deadline=None)
@given(axes=sweep_axes(), order_seed=st.randoms(use_true_random=False))
def test_expansion_ignores_declaration_order(axes, order_seed):
    """Shuffling axis declaration order AND value order inside each
    axis yields the identical cell sequence and fingerprint."""
    reference = _build(axes)
    shuffled_axes = {}
    names = list(axes)
    order_seed.shuffle(names)
    for name in names:
        values = list(axes[name])
        order_seed.shuffle(values)
        shuffled_axes[name] = values
    shuffled = _build(shuffled_axes)
    assert shuffled == reference
    assert expand_cells(shuffled) == expand_cells(reference)
    assert spec_fingerprint(shuffled) == spec_fingerprint(reference)


@settings(max_examples=40, deadline=None)
@given(axes=sweep_axes())
def test_duplicate_values_collapse(axes):
    """Repeating axis values changes nothing: the canonical spec
    deduplicates before expansion."""
    doubled = {name: list(values) * 2 for name, values in axes.items()}
    assert _build(doubled) == _build(axes)


@settings(max_examples=40, deadline=None)
@given(axes=sweep_axes())
def test_cells_cover_exactly_the_cartesian_product(axes):
    """Cartesian expansion covers every coordinate exactly once, in
    scenario-major AXIS_ORDER with the controller minor."""
    spec = _build(axes)
    cells = expand_cells(spec)
    expected = (
        len(spec.profiles) * len(spec.rates) * len(spec.burstiness)
        * len(spec.runtimes) * len(spec.backends)
        * len(spec.controllers)
    )
    assert len(cells) == expected
    coords = [
        (c.profile, c.rate, c.burstiness, c.controller, c.runtime,
         c.backend)
        for c in cells
    ]
    assert len(set(coords)) == len(coords)
    assert [c.index for c in cells] == list(range(len(cells)))
    # Controller is the fastest-varying axis within a scenario.
    scenarios = [c.scenario for c in cells]
    assert scenarios == sorted(scenarios)


@settings(max_examples=20, deadline=None)
@given(
    axes=sweep_axes(),
    campaigns=st.integers(min_value=1, max_value=3),
)
def test_compiled_cell_fingerprints_are_unique(axes, campaigns):
    """Every compiled executor cell has a distinct fingerprint — the
    checkpoint journal can never conflate two grid cells."""
    grid = compile_grid(_build(axes, campaigns=campaigns))
    prints = [cell_fingerprint(spec) for spec in grid.specs]
    assert len(set(prints)) == len(prints)
    keys = [spec.key for spec in grid.specs]
    assert len(set(keys)) == len(keys)


@settings(max_examples=40, deadline=None)
@given(axes=sweep_axes(), pick=st.data())
def test_explicit_cells_subset_of_own_cartesian_closure(axes, pick):
    """An explicit cell drawn from the grid's own axes is recognized
    as a duplicate: expansion with it equals expansion without."""
    spec = _build(axes)
    cells = expand_cells(spec)
    chosen = pick.draw(st.sampled_from(list(cells)))
    with_cell = _build(
        axes,
        cells=[
            {
                "profile": chosen.profile,
                "rate": chosen.rate,
                "burstiness": chosen.burstiness,
                "controller": chosen.controller,
                "runtime": chosen.runtime,
                "backend": chosen.backend,
            }
        ],
    )
    assert expand_cells(with_cell) == cells


def test_explicit_cell_outside_grid_appends_after_cartesian():
    spec = SweepSpec.build(
        "g",
        axes={"controller": ["ds2"], "runtime": ["heron"]},
        cells=[
            {
                "profile": "smoke",
                "rate": 1.0,
                "controller": "ds2",
                "runtime": "timely",
            }
        ],
    )
    cells = expand_cells(spec)
    assert [c.explicit for c in cells] == [False, True]
    assert cells[-1].runtime == "timely"
    # The explicit cell is a new scenario (fresh ordinal).
    assert cells[-1].scenario == 1


def test_explicit_cell_on_existing_scenario_shares_ordinal():
    """An explicit cell landing on a cartesian scenario reuses its
    ordinal, so margin pairs keep shared fault schedules."""
    spec = SweepSpec.build(
        "g",
        axes={"controller": ["ds2"], "runtime": ["heron"]},
        cells=[
            {
                "profile": "smoke",
                "rate": 1.0,
                "controller": "dhalion",
                "runtime": "heron",
            }
        ],
    )
    cells = expand_cells(spec)
    assert len(cells) == 2
    assert cells[0].scenario == cells[1].scenario == 0
    grid = compile_grid(spec)
    ds2, dhalion = grid.specs
    assert ds2.schedule == dhalion.schedule


# -- named-axis validation ---------------------------------------------

@pytest.mark.parametrize(
    "axes, named",
    [
        ({"flavour": ["heron"]}, "flavour"),
        ({"profile": ["nope"]}, "profile"),
        ({"rate": [0.0]}, "rate"),
        ({"rate": [float("nan")]}, "rate"),
        ({"rate": ["fast"]}, "rate"),
        ({"burstiness": [0.5]}, "burstiness"),
        ({"controller": ["pid"]}, "controller"),
        ({"runtime": ["spark"]}, "runtime"),
        ({"backend": ["gpu"]}, "backend"),
        ({"rate": []}, "rate"),
        ({"controller": "ds2"}, "controller"),
        # The engine has one backend; the axis keeps only "default".
        ({"backend": ["object"]}, "backend"),
        ({"backend": ["vector"]}, "backend"),
    ],
)
def test_invalid_axes_rejected_with_named_axis(axes, named):
    with pytest.raises(SweepError, match=named):
        SweepSpec.build("bad", axes=axes)


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"profile": "smoke", "rate": 1.0}, "missing axis"),
        (
            {
                "profile": "smoke",
                "rate": 1.0,
                "controller": "ds2",
                "runtime": "spark",
            },
            "runtime",
        ),
        (
            {
                "profile": "smoke",
                "rate": 1.0,
                "controller": "ds2",
                "runtime": "heron",
                "tick": 2.0,
            },
            "unknown axis",
        ),
    ],
)
def test_invalid_explicit_cells_rejected(cell, message):
    with pytest.raises(SweepError, match=message):
        SweepSpec.build("bad", cells=[cell])


def test_dhalion_timely_rejected_cartesian_and_explicit():
    with pytest.raises(SweepError, match="dhalion"):
        SweepSpec.build(
            "bad",
            axes={
                "controller": ["dhalion"],
                "runtime": ["timely"],
            },
        )
    with pytest.raises(SweepError, match="dhalion"):
        CellCoordinate(
            profile="smoke",
            rate=1.0,
            burstiness=None,
            controller="dhalion",
            runtime="timely",
            backend="default",
        )


def test_axis_order_is_the_documented_contract():
    assert AXIS_ORDER == (
        "profile",
        "rate",
        "burstiness",
        "controller",
        "runtime",
        "backend",
    )


def test_fingerprint_distinguishes_settings():
    base = SweepSpec.build("g", axes={"rate": [1.0]})
    assert spec_fingerprint(base) != spec_fingerprint(
        SweepSpec.build("g", axes={"rate": [1.25]})
    )
    assert spec_fingerprint(base) != spec_fingerprint(
        SweepSpec.build("g", axes={"rate": [1.0]}, seed=2)
    )
    assert spec_fingerprint(base) != spec_fingerprint(
        SweepSpec.build("g", axes={"rate": [1.0]}, tick=2.0)
    )
    assert sweep_label(base) == (
        f"g@{spec_fingerprint(base)}"
    )


# -- the TOML fallback parser (Python < 3.11 has no tomllib) -------------

SWEEPS_DIR = Path(__file__).resolve().parent

QUOTED_SPEC = """\
[sweep]
name = "grid #1, v2"  # a comment after a quoted '#'
campaigns = 1

[axes]
rate = [1.0, 1.25]  # trailing comment
controller = ["ds2", "dhalion"]
"""


def _load_without_tomllib(monkeypatch, path):
    with monkeypatch.context() as patch:
        # A None entry makes `import tomllib` raise ModuleNotFoundError.
        patch.setitem(sys.modules, "tomllib", None)
        return load_spec(str(path))


@pytest.mark.parametrize("grid", ["smoke_grid.toml", "paper_grid.toml"])
def test_fallback_parser_loads_committed_grids(monkeypatch, grid):
    pytest.importorskip("tomllib")
    path = SWEEPS_DIR / grid
    assert _load_without_tomllib(monkeypatch, path) == load_spec(str(path))


def test_fallback_parser_keeps_quoted_hash_and_comma(monkeypatch, tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "quoted.toml"
    path.write_text(QUOTED_SPEC, encoding="utf-8")
    fallback = _load_without_tomllib(monkeypatch, path)
    assert fallback.name == "grid #1, v2"
    assert fallback == load_spec(str(path))


def test_fallback_parser_splits_arrays_outside_quotes():
    tomllib = pytest.importorskip("tomllib")
    text = 'tags = ["a, b", "c # d", 3]  # comment\n'
    assert _parse_minimal_toml(text, "<test>") == tomllib.loads(text)
