"""Future-knowledge oracle over a block-access trace.

Belady's OPT, the OPT-bypass scheme, and several analyses (Figure 3b,
Figure 12a) need to know *when a block is next accessed*.  The oracle
precomputes that once per trace:

* ``next_use_at(t)``     — O(1): next index after ``t`` at which
  ``blocks[t]`` is accessed again (``NEVER`` if it is not).
* ``next_use_of(block, t)`` — O(log k): next access to an arbitrary
  block after ``t`` (needed when the query time differs from an access
  to that block, e.g. prefetch fills).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Sequence

import numpy as np

#: Sentinel meaning "never accessed again"; larger than any trace index.
NEVER = 1 << 62


class NextUseOracle:
    """Precomputed next-use information for one trace."""

    def __init__(self, blocks: Sequence[int]) -> None:
        blocks_arr = np.asarray(blocks, dtype=np.int64)
        n = len(blocks_arr)
        self.length = n
        # A stable sort groups each block's accesses in time order, so
        # every access's next use is its successor within the group.
        order = np.argsort(blocks_arr, kind="stable")
        grouped = blocks_arr[order]
        same = grouped[1:] == grouped[:-1]
        next_use = np.full(n, NEVER, dtype=np.int64)
        next_use[order[:-1][same]] = order[1:][same]
        self._next_use = next_use
        # Per-block sorted position lists for arbitrary-time queries.
        starts = np.flatnonzero(~same) + 1
        firsts = grouped[np.r_[0, starts]].tolist() if n else []
        self._positions: Dict[int, list] = {
            block: run.tolist() for block, run in zip(firsts, np.split(order, starts))
        }

    def next_use_at(self, t: int) -> int:
        """Next access index of the block accessed at ``t`` (after ``t``)."""
        return int(self._next_use[t])

    def next_use_of(self, block: int, t: int) -> int:
        """Next access index of ``block`` strictly after time ``t``."""
        pos = self._positions.get(block)
        if not pos:
            return NEVER
        i = bisect_right(pos, t)
        return pos[i] if i < len(pos) else NEVER

    def reuse_distance_after(self, t: int) -> int:
        """Trace-index gap to the next use (NEVER when none).

        This is a *time* distance, not a stack distance; Figure 3b and
        Figure 12a bucket this quantity, which tracks stack distance
        closely for our fetch-group traces.
        """
        nxt = self.next_use_at(t)
        return NEVER if nxt >= NEVER else nxt - t
