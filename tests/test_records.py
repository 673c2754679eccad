"""The record codec (:mod:`repro.records`) and the records it serves.

Every record that outlives a run — journal scorecards, headers, cell
keys, recovery outages, heartbeats and quarantine notes, trace audits,
the sweep report's rows — is
read back by its dataclass's field types. The guard below builds the
decoder of each one: a field typed with something the codec cannot
read (or with a class imported only under ``TYPE_CHECKING``, which
``get_type_hints`` cannot resolve) fails here, not in a user's
``--resume``.
"""

import dataclasses
import json
import typing
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaigns import CellKey, SasoScorecard
from repro.faults.checkpoint import (
    RESULT_TYPES,
    JournalHeader,
    QuarantineRecord,
)
from repro.records import decoder, from_json, to_json
from repro.sweeps.report import AxisEffect, ConvergenceStats, MarginRow
from repro.telemetry.audit import AuditSummary, DecisionAudit, OperatorAudit
from repro.telemetry.progress import CellEvent

#: Every record type read back through the codec, with the type its
#: payload decodes to.
RECORD_TYPES = {
    "SasoScorecard": SasoScorecard,
    "AuditSummary": AuditSummary,
    "DecisionAudit": DecisionAudit,
    "OperatorAudit": OperatorAudit,
    "JournalHeader": JournalHeader,
    "CellKey": CellKey,
    "CellEvent": CellEvent,
    "QuarantineRecord": QuarantineRecord,
    "outages": RESULT_TYPES["outages"],
    "MarginRow": MarginRow,
    "AxisEffect": AxisEffect,
    "ConvergenceStats": ConvergenceStats,
}


@pytest.mark.parametrize("name", sorted(RECORD_TYPES))
def test_every_record_type_has_a_decoder(name):
    kind = RECORD_TYPES[name]
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        assert set(hints) >= {f.name for f in dataclasses.fields(kind)}
    assert callable(decoder(kind))


class TestScalars:
    @pytest.mark.parametrize(
        "kind,value,expected",
        [
            (int, True, "an integer"),
            (int, 2.0, "an integer"),
            (int, "2", "an integer"),
            (float, False, "a number"),
            (float, "nan", "a number"),
            (float, 10 ** 400, "a number"),
            (str, 5, "a string"),
            (bool, 1, "a boolean"),
        ],
    )
    def test_wrong_json_type_refused(self, kind, value, expected):
        with pytest.raises(ValueError, match=f"^x: expected {expected}"):
            from_json(kind, value, "x")

    def test_an_integer_is_a_float(self):
        value = from_json(float, 3, "x")
        assert value == 3.0 and type(value) is float

    def test_long_values_are_cut_in_messages(self):
        with pytest.raises(ValueError) as raised:
            from_json(int, "y" * 200, "x")
        assert len(str(raised.value)) < 90


@dataclass(frozen=True)
class _Inner:
    values: Tuple[int, ...]


@dataclass(frozen=True)
class _Outer:
    name: str
    pair: Tuple[int, str]
    rates: Mapping[str, float]
    inner: Optional[_Inner] = None
    tags: Tuple[str, ...] = ()


class TestDataclasses:
    def test_round_trip_in_field_order(self):
        record = _Outer("a", (1, "b"), {"r": 0.5}, _Inner((1, 2)))
        payload = to_json(record)
        assert list(payload) == ["name", "pair", "rates", "inner", "tags"]
        assert payload["pair"] == [1, "b"]
        assert from_json(_Outer, payload) == record

    def test_missing_field_takes_its_default(self):
        record = from_json(
            _Outer, {"name": "a", "pair": [1, "b"], "rates": {}}
        )
        assert record.inner is None and record.tags == ()

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"name": None}, "o.name: expected a string, got None"),
            ({"pair": [1]}, "o.pair: expected a list of 2, got [1]"),
            ({"pair": [1, 2]}, "o.pair[1]: expected a string, got 2"),
            ({"rates": {"r": "1"}}, "o.rates.r: expected a number"),
            ({"inner": {"values": [1, 2.5]}}, "o.inner.values[1]: "),
            ({"tags": "ab"}, "o.tags: expected a list, got 'ab'"),
            ({"extra": 1, "more": 2}, "o: unknown field(s) extra, more"),
        ],
    )
    def test_errors_name_the_field_path(self, edit, message):
        payload = {"name": "a", "pair": [1, "b"], "rates": {}}
        payload.update(edit)
        with pytest.raises(ValueError) as raised:
            from_json(_Outer, payload, "o")
        assert str(raised.value).startswith(message)

    def test_missing_required_field_refused(self):
        with pytest.raises(ValueError, match=r"^o\.pair: missing$"):
            from_json(_Outer, {"name": "a", "rates": {}}, "o")

    def test_unsupported_field_type_is_a_type_error(self):
        @dataclass(frozen=True)
        class Listed:
            values: List[int]

        with pytest.raises(TypeError, match="no JSON codec"):
            decoder(Listed)

    def test_unresolvable_field_type_fails(self):
        @dataclass(frozen=True)
        class Forward:
            value: "NotImportedAtRuntime"  # noqa: F821

        with pytest.raises(NameError):
            decoder(Forward)

    def test_to_json_refuses_what_json_cannot_hold(self):
        with pytest.raises(TypeError, match="no JSON form for set"):
            to_json({1, 2})


_names = st.text(min_size=1, max_size=8)
_floats = st.floats(allow_nan=False)
_ints = st.integers(min_value=-(2 ** 63), max_value=2 ** 63)
_counts = st.integers(min_value=0, max_value=10 ** 6)

_summaries = st.builds(
    AuditSummary,
    invocations=_counts,
    proposals=_counts,
    rescales=_counts,
    failed_rescales=_counts,
    holds=_counts,
    skips=st.lists(st.tuples(_names, _counts), max_size=3).map(tuple),
    degraded_intervals=_counts,
    max_rate_compensation=_floats,
)

_scorecards = st.builds(
    SasoScorecard,
    controller=_names,
    campaign=_ints,
    schedule_seed=_ints,
    oscillations=_counts,
    steady_state_error=_floats,
    settling_epochs=_counts,
    overshoot_ratio=_floats,
    downtime_fraction=_floats,
    recovery_seconds=_floats,
    scaling_actions=_counts,
    failed_rescales=_counts,
    audit=st.none() | _summaries,
)

_operator_rows = st.builds(
    OperatorAudit,
    operator=_names,
    current_parallelism=_counts,
    target_rate=_floats,
    true_processing_rate=st.none() | _floats,
    true_output_rate=st.none() | _floats,
    selectivity=_floats,
    ideal_output_rate=_floats,
    optimal_parallelism_raw=_floats,
    optimal_parallelism=_counts,
    completeness=_floats,
    unknown=st.booleans(),
)

_rate_maps = st.dictionaries(_names, _floats, max_size=3)
_parallelism_maps = st.dictionaries(_names, _counts, max_size=3)

_audits = st.builds(
    DecisionAudit,
    time=_floats,
    controller=_names,
    window_start=_floats,
    window_end=_floats,
    window_age=_floats,
    outage_fraction=_floats,
    truncated=st.booleans(),
    in_outage=st.booleans(),
    degraded=st.booleans(),
    rate_compensation=_floats,
    completeness=_rate_maps,
    source_target_rates=_rate_maps,
    source_observed_rates=_rate_maps,
    current_parallelism=_parallelism_maps,
    operators=st.lists(_operator_rows, max_size=3).map(tuple),
    proposal=st.none() | _parallelism_maps,
    skip_reason=st.none() | _names,
    outcome=_names,
    applied=st.none() | _parallelism_maps,
    outage_seconds=_floats,
    attempt=_counts,
    failure_reason=st.none() | _names,
)


def _through_json(kind, record):
    return from_json(kind, json.loads(json.dumps(to_json(record))))


@settings(max_examples=60, deadline=None)
@given(card=_scorecards)
def test_scorecards_round_trip_through_json(card):
    assert _through_json(SasoScorecard, card) == card


@settings(max_examples=60, deadline=None)
@given(audit=_audits)
def test_decision_audits_round_trip_through_json(audit):
    assert _through_json(DecisionAudit, audit) == audit
