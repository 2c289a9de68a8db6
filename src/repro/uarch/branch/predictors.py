"""Direction predictors: bimodal, gshare and tournament.

All predictors share the :class:`DirectionPredictor` interface with the
classic predict/update split the pipeline needs: ``predict(pc)`` is called
at fetch, ``update(pc, taken)`` at branch resolution.  Tables use 2-bit
saturating counters initialised weakly-taken.
"""

from __future__ import annotations

from typing import Tuple

from ..params import BranchPredictorParams


def _check_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, "
                         f"got {value}")


class DirectionPredictor:
    """Interface every direction predictor implements.

    A subclass names its 2-bit counter tables in ``_COUNTER_TABLES``.
    They are lists at run time (indexing a list is faster than a
    ``bytearray``) and pickle as ``bytes``, half the size of a pickled
    list of small ints; a list-format state still loads.
    """

    _COUNTER_TABLES: Tuple[str, ...] = ()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._COUNTER_TABLES:
            state[name] = bytes(state[name])
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in self._COUNTER_TABLES:
            setattr(self, name, list(state[name]))

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at *pc*."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome of the branch at *pc*."""
        raise NotImplementedError


class BimodalPredictor(DirectionPredictor):
    """Per-PC 2-bit saturating-counter table."""

    _COUNTER_TABLES = ("_table",)

    def __init__(self, table_entries: int = 4096):
        _check_power_of_two(table_entries, "table_entries")
        self._mask = table_entries - 1
        self._table = [2] * table_entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self._table[pc & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self._mask
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1


class GsharePredictor(DirectionPredictor):
    """Global-history predictor: PHT indexed by ``pc XOR history``.

    The global history register is updated speculatively at predict time
    and repaired on update when the prediction was wrong, matching the
    behaviour of a pipeline that checkpoints history at each branch.
    For trace-driven simulation (where update directly follows predict for
    each branch) a simple non-speculative history is equivalent, which is
    what we implement: history shifts at :meth:`update`.
    """

    _COUNTER_TABLES = ("_table",)

    def __init__(self, table_entries: int = 4096, history_bits: int = 12):
        _check_power_of_two(table_entries, "table_entries")
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self._mask = table_entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._table = [2] * table_entries

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class TournamentPredictor(DirectionPredictor):
    """Alpha 21264-style tournament of a bimodal and a gshare component.

    A chooser table of 2-bit counters (indexed by PC) selects which
    component's prediction is used; the chooser trains towards whichever
    component was correct when they disagree.
    """

    _COUNTER_TABLES = ("_chooser",)

    def __init__(self, table_entries: int = 16384, history_bits: int = 14):
        _check_power_of_two(table_entries, "table_entries")
        self._bimodal = BimodalPredictor(table_entries)
        self._gshare = GsharePredictor(table_entries, history_bits)
        self._chooser = [2] * table_entries  # weakly prefer gshare
        self._mask = table_entries - 1

    def predict(self, pc: int) -> bool:
        if self._chooser[pc & self._mask] >= 2:
            return self._gshare.predict(pc)
        return self._bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_correct = self._bimodal.predict(pc) == taken
        gshare_correct = self._gshare.predict(pc) == taken
        index = pc & self._mask
        if gshare_correct != bimodal_correct:
            counter = self._chooser[index]
            if gshare_correct:
                if counter < 3:
                    self._chooser[index] = counter + 1
            elif counter > 0:
                self._chooser[index] = counter - 1
        self._bimodal.update(pc, taken)
        self._gshare.update(pc, taken)


class PerceptronPredictor(DirectionPredictor):
    """Perceptron branch predictor (Jimenez & Lin, HPCA 2001).

    One weight vector per (hashed) PC; the prediction is the sign of the
    dot product between the weights and the global-history bipolar
    vector (+1 taken / -1 not-taken, plus a bias weight).  Training
    updates on a misprediction or when the output magnitude is below
    the standard threshold ``1.93 * history + 14``.

    Included as the "future work" predictor upgrade: it captures long
    linearly-separable correlations that saturating-counter tables
    cannot, at higher storage cost.
    """

    def __init__(self, table_entries: int = 512, history_bits: int = 24):
        _check_power_of_two(table_entries, "table_entries")
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self._mask = table_entries - 1
        self.history_bits = history_bits
        self._threshold = int(1.93 * history_bits + 14)
        self._weight_limit = 127
        self._weights = [[0] * (history_bits + 1)
                         for _ in range(table_entries)]
        self._history = [1] * history_bits  # bipolar: +1 / -1

    def _output(self, pc: int) -> int:
        weights = self._weights[pc & self._mask]
        total = weights[0]  # bias
        history = self._history
        for index in range(self.history_bits):
            total += weights[index + 1] * history[index]
        return total

    def predict(self, pc: int) -> bool:
        return self._output(pc) >= 0

    def update(self, pc: int, taken: bool) -> None:
        output = self._output(pc)
        predicted = output >= 0
        outcome = 1 if taken else -1
        if predicted != taken or abs(output) <= self._threshold:
            weights = self._weights[pc & self._mask]
            limit = self._weight_limit
            bias = weights[0] + outcome
            weights[0] = max(-limit, min(limit, bias))
            history = self._history
            for index in range(self.history_bits):
                value = weights[index + 1] + outcome * history[index]
                weights[index + 1] = max(-limit, min(limit, value))
        self._history.pop()
        self._history.insert(0, 1 if taken else -1)


def make_direction_predictor(params: BranchPredictorParams
                             ) -> DirectionPredictor:
    """Build the direction predictor described by *params*.

    Raises:
        ValueError: on an unknown ``params.kind``.
    """
    if params.kind == "bimodal":
        return BimodalPredictor(params.table_entries)
    if params.kind == "gshare":
        return GsharePredictor(params.table_entries, params.history_bits)
    if params.kind == "tournament":
        return TournamentPredictor(params.table_entries, params.history_bits)
    if params.kind == "perceptron":
        # Perceptron tables are weight vectors, not 2-bit counters; use
        # a smaller table with longer history at similar storage.
        return PerceptronPredictor(max(64, params.table_entries // 16),
                                   max(16, params.history_bits))
    if params.kind == "tage":
        from .tage import TagePredictor
        return TagePredictor(base_entries=params.table_entries,
                             table_entries=max(64,
                                               params.table_entries // 8),
                             max_history=max(16, 4 * params.history_bits))
    raise ValueError(f"unknown predictor kind {params.kind!r}")
