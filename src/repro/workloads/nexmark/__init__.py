"""The Nexmark benchmark suite (Tucker et al.; Apache Beam edition).

The DS2 paper evaluates against six Nexmark queries (Q1, Q2, Q3, Q5,
Q8, Q11) chosen for operator diversity: stateless map and filter, a
stateful two-input incremental join, and sliding / tumbling / session
windows. This package provides:

* :mod:`repro.workloads.nexmark.model` — the auction-site event model
  (persons, auctions, bids);
* :mod:`repro.workloads.nexmark.generator` — a deterministic event
  generator with Beam's 1:3:46 person/auction/bid proportions;
* :mod:`repro.workloads.nexmark.semantics` — executable reference
  implementations of the six queries over concrete events, used to
  validate the selectivities assumed by the simulated dataflows;
* :mod:`repro.workloads.nexmark.queries` — the query dataflow graphs
  with per-runtime cost calibrations and the paper's Table 3 source
  rates.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.nexmark.generator import (
        GeneratorConfig,
        NexmarkGenerator,
    )
    from repro.workloads.nexmark.model import Auction, Bid, Event, Person
    from repro.workloads.nexmark.queries import (
        ALL_QUERIES,
        NexmarkQuery,
        get_query,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.nexmark.generator": (
        "GeneratorConfig", "NexmarkGenerator",
    ),
    "repro.workloads.nexmark.model": ("Auction", "Bid", "Event", "Person"),
    "repro.workloads.nexmark.queries": (
        "ALL_QUERIES", "NexmarkQuery", "get_query",
    ),
})

__all__ = [
    "ALL_QUERIES",
    "Auction",
    "Bid",
    "Event",
    "GeneratorConfig",
    "NexmarkGenerator",
    "NexmarkQuery",
    "Person",
    "get_query",
]
