"""Stub L1I schemes that bound the engine's cost from below and above.

Both implement the engine's scheme protocol (``lookup`` / ``fill`` /
``prefetch_fill`` / ``contains``, plus ``save_state`` / ``load_state``
for checkpointed runs) and do no work of their own, so simulating them
measures the timing engine alone:

* :class:`AlwaysHitScheme` — every fetch hits and every prefetch
  candidate is already resident: no miss path, no MSHR traffic.  Its
  simulate time is the engine floor every real scheme pays.
* :class:`AlwaysMissScheme` — every fetch misses and every prefetch
  candidate is issued: each record walks the MSHR/hierarchy miss path.
  Its time minus the floor, per miss, is the miss-path cost seen from
  outside the engine.
"""

from __future__ import annotations


class _StatelessScheme:
    name = "stub"

    def fill(self, block: int, t: int, cycle: int) -> None:
        pass

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        pass

    def save_state(self) -> dict:
        return {}

    def load_state(self, state: dict) -> None:
        if state:
            raise ValueError(f"{self.name} keeps no state, got {sorted(state)}")


class AlwaysHitScheme(_StatelessScheme):
    name = "always-hit"

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        return True

    def contains(self, block: int) -> bool:
        return True


class AlwaysMissScheme(_StatelessScheme):
    name = "always-miss"

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        return False

    def contains(self, block: int) -> bool:
        return False
