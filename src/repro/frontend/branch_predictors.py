"""Conditional branch direction predictors: bimodal, gshare, TAGE.

Table II's machine uses TAGE [Seznec & Michaud].  The simpler bimodal
and gshare predictors double as the ablation variants of ACIC's
admission predictor (Figure 17 replaces the two-level structure with a
bimodal / global-history predictor) and as test baselines.

All predictors share one interface: ``predict(site) -> bool`` then
``update(site, taken)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.bitops import fold_hash, mask


@dataclass
class PredictorStats:
    predictions: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0


class BimodalPredictor:
    """Per-site 2-bit saturating counters, no history."""

    def __init__(self, table_bits: int = 13, counter_bits: int = 2) -> None:
        self.table_bits = table_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.table = [self.threshold] * (1 << table_bits)
        self.stats = PredictorStats()

    def predict(self, site: int) -> bool:
        return self.table[fold_hash(site, self.table_bits)] >= self.threshold

    def update(self, site: int, taken: bool) -> None:
        idx = fold_hash(site, self.table_bits)
        prediction = self.table[idx] >= self.threshold
        self.stats.predictions += 1
        if prediction == taken:
            self.stats.correct += 1
        if taken:
            if self.table[idx] < self.counter_max:
                self.table[idx] += 1
        elif self.table[idx] > 0:
            self.table[idx] -= 1

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import save_attrs, save_stats

        state = save_attrs(self, ("table",))
        state["stats"] = save_stats(self.stats)
        return state

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_attrs, load_stats

        load_attrs(self, state, ("table",))
        load_stats(self.stats, state["stats"])


class GsharePredictor:
    """Global-history XOR site indexing into one counter table."""

    def __init__(
        self, table_bits: int = 14, history_bits: int = 12, counter_bits: int = 2
    ) -> None:
        self.table_bits = table_bits
        self.history_bits = history_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.table = [self.threshold] * (1 << table_bits)
        self.ghr = 0
        self.stats = PredictorStats()

    def _index(self, site: int) -> int:
        return fold_hash(site ^ (self.ghr << 7), self.table_bits)

    def predict(self, site: int) -> bool:
        return self.table[self._index(site)] >= self.threshold

    def update(self, site: int, taken: bool) -> None:
        idx = self._index(site)
        prediction = self.table[idx] >= self.threshold
        self.stats.predictions += 1
        if prediction == taken:
            self.stats.correct += 1
        if taken:
            if self.table[idx] < self.counter_max:
                self.table[idx] += 1
        elif self.table[idx] > 0:
            self.table[idx] -= 1
        self.ghr = ((self.ghr << 1) | int(taken)) & mask(self.history_bits)

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import save_attrs, save_stats

        state = save_attrs(self, ("table", "ghr"))
        state["stats"] = save_stats(self.stats)
        return state

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_attrs, load_stats

        load_attrs(self, state, ("table", "ghr"))
        load_stats(self.stats, state["stats"])


#: TAGE's global history register width.
_GHR_MASK = mask(1024)


class _TageEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self, tag: int, counter: int) -> None:
        self.tag = tag
        self.counter = counter
        self.useful = 0


class TagePredictor:
    """A compact TAGE: bimodal base + N partially-tagged geometric tables.

    Faithful to the TAGE structure (geometric history lengths, tagged
    components, provider/altpred selection, useful counters, allocation
    on mispredict) while staying small enough for a Python hot loop.

    Each table keeps its folded index and tag histories as circular
    shift registers, updated by one rotate-and-XOR per outcome instead
    of refolding the global history on every lookup.  ``_fold_history``
    is the readable definition they always equal; ``reset`` and
    ``load_state`` re-derive them from it.
    """

    def __init__(
        self,
        num_tables: int = 4,
        table_bits: int = 10,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 64,
        counter_bits: int = 3,
    ) -> None:
        self.num_tables = num_tables
        self.table_bits = table_bits
        self.tag_bits = tag_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        # Geometric history lengths between min and max.
        ratio = (max_history / min_history) ** (1 / max(1, num_tables - 1))
        self.history_lengths = [
            max(1, round(min_history * ratio**i)) for i in range(num_tables)
        ]
        self.tables: List[List[Optional[_TageEntry]]] = [
            [None] * (1 << table_bits) for _ in range(num_tables)
        ]
        self.base = BimodalPredictor(table_bits=12, counter_bits=2)
        self.ghr = 0
        self.stats = PredictorStats()
        # Per table: the GHR bit leaving its window, and where that bit
        # sits in the index and tag folds.
        self._fold_taps = [
            (length - 1, length % table_bits, length % tag_bits)
            for length in self.history_lengths
        ]
        self._refold()

    def _fold_history(self, length: int, bits: int) -> int:
        """Fold the most recent ``length`` history bits down to ``bits``."""
        h = self.ghr & mask(length)
        folded = 0
        while h:
            folded ^= h & mask(bits)
            h >>= bits
        return folded

    def _refold(self) -> None:
        """Re-derive the folded histories from ``ghr``; drop the memo."""
        self._fold_idx = [
            self._fold_history(length, self.table_bits)
            for length in self.history_lengths
        ]
        self._fold_tag = [
            self._fold_history(length, self.tag_bits)
            for length in self.history_lengths
        ]
        self._providers: dict = {}

    def _index(self, table: int, site: int) -> int:
        folded = self._fold_idx[table]
        return fold_hash(site ^ (folded << 1) ^ table, self.table_bits)

    def _tag(self, table: int, site: int) -> int:
        folded = self._fold_tag[table]
        return fold_hash(site ^ (folded << 3) ^ (table << 7), self.tag_bits)

    def _provider(self, site: int):
        """Longest-history matching component, or None.

        Memoised per site until the next ``update``: nothing else moves
        the histories or the tables.
        """
        memo = self._providers
        if site in memo:
            return memo[site]
        found = None
        for table in range(self.num_tables - 1, -1, -1):
            idx = self._index(table, site)
            entry = self.tables[table][idx]
            if entry is not None and entry.tag == self._tag(table, site):
                found = (table, idx, entry)
                break
        memo[site] = found
        return found

    def predict(self, site: int) -> bool:
        provider = self._provider(site)
        if provider is not None:
            return provider[2].counter >= self.threshold
        return self.base.predict(site)

    def update(self, site: int, taken: bool) -> None:
        provider = self._provider(site)
        if provider is not None:
            table, idx, entry = provider
            prediction = entry.counter >= self.threshold
        else:
            table, idx, entry = -1, -1, None
            prediction = self.base.predict(site)
        self.stats.predictions += 1
        correct = prediction == taken
        if correct:
            self.stats.correct += 1

        if entry is not None:
            if taken:
                if entry.counter < self.counter_max:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1
            if correct and entry.useful < 3:
                entry.useful += 1
            elif not correct and entry.useful > 0:
                entry.useful -= 1
        # The base predictor always trains (it is the fallback).
        self.base.update(site, taken)

        if not correct:
            self._allocate(site, taken, from_table=table + 1)

        self._shift_history(int(taken))

    def _shift_history(self, bit: int) -> None:
        """Push ``bit`` into the GHR and every folded history.

        Folding places history bit ``i`` at ``i % width``, so shifting
        the history rotates the fold left by one; the new outcome lands
        in bit 0 and the bit leaving the ``length``-bit window (bit
        ``length - 1`` of the old GHR) is cancelled at ``length % width``.
        """
        ghr = self.ghr
        fold_idx, fold_tag = self._fold_idx, self._fold_tag
        idx_top, tag_top = self.table_bits - 1, self.tag_bits - 1
        idx_mask, tag_mask = mask(self.table_bits), mask(self.tag_bits)
        for table, (top, idx_out, tag_out) in enumerate(self._fold_taps):
            out = (ghr >> top) & 1
            f = fold_idx[table]
            fold_idx[table] = (
                (((f << 1) | (f >> idx_top)) & idx_mask) ^ bit ^ (out << idx_out)
            )
            f = fold_tag[table]
            fold_tag[table] = (
                (((f << 1) | (f >> tag_top)) & tag_mask) ^ bit ^ (out << tag_out)
            )
        self.ghr = ((ghr << 1) | bit) & _GHR_MASK
        self._providers.clear()

    def _allocate(self, site: int, taken: bool, from_table: int) -> None:
        """On mispredict, claim an entry in a longer-history table."""
        for table in range(from_table, self.num_tables):
            idx = self._index(table, site)
            entry = self.tables[table][idx]
            if entry is None or entry.useful == 0:
                counter = self.threshold if taken else self.threshold - 1
                self.tables[table][idx] = _TageEntry(self._tag(table, site), counter)
                return
            entry.useful -= 1  # age the blocker; try the next table

    def reset(self) -> None:
        for table in self.tables:
            for i in range(len(table)):
                table[i] = None
        self.base = BimodalPredictor(table_bits=12, counter_bits=2)
        self.ghr = 0
        self.stats = PredictorStats()
        self._refold()

    # -- checkpoint/resume --------------------------------------------------
    #
    # ``_TageEntry`` is a module-level __slots__ class, so the tagged
    # tables deepcopy and pickle cleanly; the bimodal base delegates.
    # The folded histories and the provider memo are derived from
    # ``ghr`` and the tables, so they are rebuilt rather than saved.

    def save_state(self) -> dict:
        from repro.common.state import save_attrs, save_stats

        state = save_attrs(self, ("tables", "ghr"))
        state["base"] = self.base.save_state()
        state["stats"] = save_stats(self.stats)
        return state

    def load_state(self, state: dict) -> None:
        """Restore a saved state (an ``_alloc_seed`` key from older
        states is accepted and ignored)."""
        from repro.common.state import load_attrs, load_stats

        load_attrs(self, state, ("tables", "ghr"))
        self.base.load_state(state["base"])
        load_stats(self.stats, state["stats"])
        self._refold()
