"""Deterministic Nexmark event generator.

Mirrors the Apache Beam generator's structure: events are produced in a
fixed repeating proportion (1 person : 3 auctions : 46 bids out of every
50 events), with ids assigned so that bids reference recently created
auctions and auctions reference recently registered sellers. Generation
is fully deterministic given a seed, which keeps tests reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ReproError
from repro.workloads.nexmark.model import (
    Auction,
    Bid,
    CATEGORIES,
    Event,
    Person,
    STATES,
)

FIRST_NAMES = (
    "peter", "paul", "luke", "john", "saul", "vicky", "kate", "julie",
    "sarah", "deiter", "walter", "ann", "hugo", "eve", "frank", "visa",
)
LAST_NAMES = (
    "shultz", "abrams", "spencer", "white", "bartels", "walton", "smith",
    "jones", "noris",
)
CITIES = (
    "portland", "phoenix", "seattle", "kent", "boise", "redmond",
    "bend", "eugene",
)

#: Beam's event proportions per 50-event period.
PERSON_PROPORTION = 1
AUCTION_PROPORTION = 3
BID_PROPORTION = 46
TOTAL_PROPORTION = PERSON_PROPORTION + AUCTION_PROPORTION + BID_PROPORTION

#: How far back bids may reference auctions / auctions reference people.
HOT_WINDOW = 100


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator parameters.

    Attributes:
        events_per_second: Total event rate used to derive timestamps.
        seed: PRNG seed; the same seed yields the same event stream.
        hot_auction_ratio: Fraction of bids targeting the single hottest
            recent auction — this is the knob behind the data-skew
            experiments (Q5's "hot items" query exists because auction
            popularity is skewed).
        auction_duration: Seconds until a generated auction expires.
    """

    events_per_second: float = 1000.0
    seed: int = 42
    hot_auction_ratio: float = 0.5
    auction_duration: float = 60.0

    def __post_init__(self) -> None:
        if self.events_per_second <= 0:
            raise ReproError("events_per_second must be > 0")
        if not 0.0 <= self.hot_auction_ratio <= 1.0:
            raise ReproError("hot_auction_ratio must be in [0, 1]")
        if self.auction_duration <= 0:
            raise ReproError("auction_duration must be > 0")


class NexmarkGenerator:
    """Generates an endless, deterministic Nexmark event stream."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self._config = config or GeneratorConfig()
        self._rng = random.Random(self._config.seed)
        self._event_index = 0
        self._next_person_id = 0
        self._next_auction_id = 0
        self._recent_people: List[int] = []
        self._recent_auctions: List[int] = []

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    def _timestamp(self) -> float:
        return self._event_index / self._config.events_per_second

    def _make_person(self) -> Person:
        pid = self._next_person_id
        self._next_person_id += 1
        self._recent_people.append(pid)
        if len(self._recent_people) > HOT_WINDOW:
            self._recent_people.pop(0)
        first = self._rng.choice(FIRST_NAMES)
        last = self._rng.choice(LAST_NAMES)
        return Person(
            id=pid,
            name=f"{first} {last}",
            email=f"{first}.{last}@example.com",
            city=self._rng.choice(CITIES),
            state=self._rng.choice(STATES),
            timestamp=self._timestamp(),
        )

    def _make_auction(self) -> Auction:
        aid = self._next_auction_id
        self._next_auction_id += 1
        self._recent_auctions.append(aid)
        if len(self._recent_auctions) > HOT_WINDOW:
            self._recent_auctions.pop(0)
        if self._recent_people:
            seller = self._rng.choice(self._recent_people)
        else:
            # No person generated yet (can only happen for a handful of
            # initial events): synthesize a seller id.
            seller = self._next_person_id
        now = self._timestamp()
        initial = round(self._rng.uniform(1.0, 100.0), 2)
        return Auction(
            id=aid,
            seller=seller,
            category=self._rng.choice(CATEGORIES),
            initial_bid=initial,
            reserve=round(initial * self._rng.uniform(1.0, 2.0), 2),
            expires=now + self._config.auction_duration,
            timestamp=now,
        )

    def _make_bid(self) -> Bid:
        if self._recent_auctions:
            if self._rng.random() < self._config.hot_auction_ratio:
                auction = self._recent_auctions[-1]
            else:
                auction = self._rng.choice(self._recent_auctions)
        else:
            auction = 0
        if self._recent_people:
            bidder = self._rng.choice(self._recent_people)
        else:
            bidder = 0
        return Bid(
            auction=auction,
            bidder=bidder,
            price=round(self._rng.uniform(1.0, 1000.0), 2),
            timestamp=self._timestamp(),
        )

    def next_event(self) -> Event:
        """Generate the next event in Beam's 1:3:46 rotation."""
        slot = self._event_index % TOTAL_PROPORTION
        if slot < PERSON_PROPORTION:
            event: Event = self._make_person()
        elif slot < PERSON_PROPORTION + AUCTION_PROPORTION:
            event = self._make_auction()
        else:
            event = self._make_bid()
        self._event_index += 1
        return event

    def take(self, count: int) -> List[Event]:
        """Generate the next ``count`` events."""
        if count < 0:
            raise ReproError("count must be >= 0")
        return [self.next_event() for _ in range(count)]

    def stream(self) -> Iterator[Event]:
        """An endless event iterator."""
        while True:
            yield self.next_event()

    def persons(self, count: int) -> List[Person]:
        """Generate events until ``count`` persons have been produced,
        returning only the persons (convenience for per-stream tests)."""
        result: List[Person] = []
        while len(result) < count:
            event = self.next_event()
            if isinstance(event, Person):
                result.append(event)
        return result

    def auctions(self, count: int) -> List[Auction]:
        """As :meth:`persons`, for auctions."""
        result: List[Auction] = []
        while len(result) < count:
            event = self.next_event()
            if isinstance(event, Auction):
                result.append(event)
        return result

    def bids(self, count: int) -> List[Bid]:
        """As :meth:`persons`, for bids."""
        result: List[Bid] = []
        while len(result) < count:
            event = self.next_event()
            if isinstance(event, Bid):
                result.append(event)
        return result


__all__ = ["GeneratorConfig", "NexmarkGenerator"]
