"""Fixture: REPRO501 stale suppressions — allow comments whose rule
no longer fires on that line."""

import time


def flagged():
    value = 1  # repro: allow[REPRO101]
    other = 2  # repro: allow[*]
    typo = 3  # repro: allow[REPRO999]
    return value, other, typo


def suppressed():
    # An explicit stale-allow token opts the line out of the check.
    value = 1  # repro: allow[REPRO101, REPRO501]
    return value


def not_flagged():
    # The allow suppresses a live finding, so it is not stale.
    return time.time()  # repro: allow[REPRO101]
