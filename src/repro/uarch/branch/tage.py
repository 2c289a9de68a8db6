"""A compact TAGE direction predictor (Seznec & Michaud, JILP 2006).

TAGE combines a bimodal base predictor with several tagged tables
indexed by geometrically increasing global-history lengths.  The
longest-history table that *tags-match* provides the prediction; a
second-longest match provides the alternate.  Allocation on
mispredictions steals weakly-useful entries from longer tables.

This implementation keeps the standard structure (tagged components,
useful counters, alternate-prediction policy, periodic useful-bit
reset) while staying small enough to read in one sitting — it is the
"future work" predictor option next to the perceptron, and the E15
study compares all predictor kinds on the synthetic suite.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .predictors import DirectionPredictor, _check_power_of_two


class _TaggedEntry:
    """One entry of a tagged component."""

    __slots__ = ("tag", "counter", "useful")

    def __init__(self):
        self.tag = -1
        self.counter = 0  # signed 3-bit: -4..3, >= 0 predicts taken
        self.useful = 0   # 2-bit useful counter


class TagePredictor(DirectionPredictor):
    """TAGE with a bimodal base and ``num_tables`` tagged components.

    Args:
        base_entries: Bimodal base table size (power of two).
        table_entries: Entries per tagged component (power of two).
        num_tables: Tagged components (history lengths grow
            geometrically from ``min_history``).
        min_history / max_history: Geometric history-length series.
        tag_bits: Tag width.
    """

    _COUNTER_TABLES = ("_base",)

    def __init__(self, base_entries: int = 4096, table_entries: int = 512,
                 num_tables: int = 4, min_history: int = 4,
                 max_history: int = 64, tag_bits: int = 9):
        _check_power_of_two(base_entries, "base_entries")
        _check_power_of_two(table_entries, "table_entries")
        if num_tables < 1:
            raise ValueError(f"num_tables must be >= 1: {num_tables}")
        if not 0 < min_history < max_history:
            raise ValueError("need 0 < min_history < max_history")
        self._base_mask = base_entries - 1
        self._base = [2] * base_entries  # 2-bit counters, weakly taken
        self._entry_mask = table_entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.num_tables = num_tables
        # Geometric history lengths.
        ratio = (max_history / min_history) ** (1.0 / max(num_tables - 1,
                                                          1))
        self.history_lengths = [
            max(1, int(round(min_history * ratio ** index)))
            for index in range(num_tables)]
        self._tables: List[List[_TaggedEntry]] = [
            [_TaggedEntry() for _ in range(table_entries)]
            for _ in range(num_tables)]
        self._history = 0
        self._history_bits = max_history
        self._history_mask = (1 << max_history) - 1
        self._use_alt_on_new = 0  # counter: trust alt for fresh entries
        self._tick = 0

    # -- index/tag hashing ------------------------------------------------

    def _folded(self, length: int, bits: int) -> int:
        """Fold the youngest *length* history bits down to *bits* bits."""
        history = self._history & ((1 << length) - 1)
        folded = 0
        while history:
            folded ^= history & ((1 << bits) - 1)
            history >>= bits
        return folded

    def _index(self, table: int, pc: int) -> int:
        length = self.history_lengths[table]
        bits = self._entry_mask.bit_length()
        return (pc ^ (pc >> (table + 1))
                ^ self._folded(length, max(bits, 1))) & self._entry_mask

    def _tag(self, table: int, pc: int) -> int:
        length = self.history_lengths[table]
        return (pc ^ self._folded(length, 8)
                ^ (self._folded(length, 7) << 1)) & self._tag_mask

    # -- prediction --------------------------------------------------------

    def _lookup(self, pc: int) -> Tuple[Optional[int], Optional[int]]:
        """(provider_table, alternate_table) of tag-matching components."""
        provider = alternate = None
        for table in range(self.num_tables - 1, -1, -1):
            entry = self._tables[table][self._index(table, pc)]
            if entry.tag == self._tag(table, pc):
                if provider is None:
                    provider = table
                else:
                    alternate = table
                    break
        return provider, alternate

    def _component_prediction(self, table: Optional[int],
                              pc: int) -> bool:
        if table is None:
            return self._base[pc & self._base_mask] >= 2
        entry = self._tables[table][self._index(table, pc)]
        return entry.counter >= 0

    def predict(self, pc: int) -> bool:
        provider, alternate = self._lookup(pc)
        if provider is None:
            return self._component_prediction(None, pc)
        entry = self._tables[provider][self._index(provider, pc)]
        fresh = entry.useful == 0 and entry.counter in (-1, 0)
        if fresh and self._use_alt_on_new >= 8:
            return self._component_prediction(alternate, pc)
        return entry.counter >= 0

    # -- update -------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        provider, alternate = self._lookup(pc)
        provider_pred = self._component_prediction(provider, pc)
        alt_pred = self._component_prediction(alternate, pc)
        final_pred = self.predict(pc)

        # Train the provider (or the base when none matched).
        if provider is not None:
            entry = self._tables[provider][self._index(provider, pc)]
            entry.counter = max(-4, min(3, entry.counter
                                        + (1 if taken else -1)))
            if provider_pred != alt_pred:
                if provider_pred == taken:
                    entry.useful = min(3, entry.useful + 1)
                else:
                    entry.useful = max(0, entry.useful - 1)
            # Track whether fresh entries should trust the alternate.
            fresh = entry.useful == 0 and entry.counter in (-1, 0, 1, -2)
            if fresh and provider_pred != alt_pred:
                if alt_pred == taken:
                    self._use_alt_on_new = min(15,
                                               self._use_alt_on_new + 1)
                else:
                    self._use_alt_on_new = max(0,
                                               self._use_alt_on_new - 1)
        else:
            index = pc & self._base_mask
            counter = self._base[index]
            if taken:
                self._base[index] = min(3, counter + 1)
            else:
                self._base[index] = max(0, counter - 1)

        # Allocate a longer-history entry on a misprediction.
        if final_pred != taken and (provider is None
                                    or provider < self.num_tables - 1):
            start = 0 if provider is None else provider + 1
            allocated = False
            for table in range(start, self.num_tables):
                entry = self._tables[table][self._index(table, pc)]
                if entry.useful == 0:
                    entry.tag = self._tag(table, pc)
                    entry.counter = 0 if taken else -1
                    allocated = True
                    break
            if not allocated:
                for table in range(start, self.num_tables):
                    entry = self._tables[table][self._index(table, pc)]
                    entry.useful = max(0, entry.useful - 1)

        # Periodic graceful reset of useful counters.
        self._tick += 1
        if self._tick >= (1 << 14):
            self._tick = 0
            for table_entries in self._tables:
                for entry in table_entries:
                    entry.useful >>= 1

        self._history = ((self._history << 1) | int(taken)) \
            & self._history_mask
