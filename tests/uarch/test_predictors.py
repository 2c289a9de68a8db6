"""Unit tests for direction predictors."""

import pickle
import random

import pytest

from repro.uarch.branch.predictors import (
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
    make_direction_predictor,
)
from repro.uarch.params import BranchPredictorParams


@pytest.mark.parametrize("factory", [
    lambda: BimodalPredictor(64),
    lambda: GsharePredictor(64, 6),
    lambda: TournamentPredictor(64, 6),
])
def test_learns_always_taken(factory):
    predictor = factory()
    for _ in range(8):
        predictor.update(100, True)
    assert predictor.predict(100) is True


@pytest.mark.parametrize("factory", [
    lambda: BimodalPredictor(64),
    lambda: GsharePredictor(64, 6),
    lambda: TournamentPredictor(64, 6),
])
def test_learns_never_taken(factory):
    predictor = factory()
    for _ in range(8):
        predictor.update(100, False)
    assert predictor.predict(100) is False


def test_bimodal_hysteresis():
    predictor = BimodalPredictor(64)
    for _ in range(4):
        predictor.update(5, True)
    predictor.update(5, False)  # one anomaly
    assert predictor.predict(5) is True  # 2-bit counter survives it


def test_gshare_learns_alternating_pattern():
    """A strict T/N alternation is history-predictable."""
    predictor = GsharePredictor(1024, 8)
    outcome = True
    # Train.
    for _ in range(200):
        predictor.update(33, outcome)
        outcome = not outcome
    # Measure.
    correct = 0
    for _ in range(100):
        if predictor.predict(33) == outcome:
            correct += 1
        predictor.update(33, outcome)
        outcome = not outcome
    assert correct >= 95


def test_bimodal_cannot_learn_alternation():
    predictor = BimodalPredictor(1024)
    outcome = True
    correct = 0
    for i in range(200):
        if i >= 100 and predictor.predict(33) == outcome:
            correct += 1
        predictor.update(33, outcome)
        outcome = not outcome
    assert correct <= 60  # essentially chance or worse


def test_tournament_beats_its_weaker_component():
    """On an alternating pattern the chooser must pick gshare."""
    predictor = TournamentPredictor(1024, 8)
    outcome = True
    for _ in range(300):
        predictor.update(33, outcome)
        outcome = not outcome
    correct = 0
    for _ in range(100):
        if predictor.predict(33) == outcome:
            correct += 1
        predictor.update(33, outcome)
        outcome = not outcome
    assert correct >= 90


def test_table_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        BimodalPredictor(100)
    with pytest.raises(ValueError):
        GsharePredictor(100, 8)
    with pytest.raises(ValueError):
        GsharePredictor(128, 0)


def test_factory_dispatch():
    for kind, cls in (("bimodal", BimodalPredictor),
                      ("gshare", GsharePredictor),
                      ("tournament", TournamentPredictor)):
        params = BranchPredictorParams(kind=kind, table_entries=256,
                                       history_bits=6)
        assert isinstance(make_direction_predictor(params), cls)


def test_factory_rejects_unknown():
    params = BranchPredictorParams(kind="neural")
    with pytest.raises(ValueError, match="unknown predictor"):
        make_direction_predictor(params)


KINDS = ("bimodal", "gshare", "tournament", "perceptron", "tage")


def _branches(seed, count=3000):
    rng = random.Random(seed)
    return [(rng.randrange(512), rng.random() < 0.6) for _ in range(count)]


def _trained(kind):
    predictor = make_direction_predictor(BranchPredictorParams(
        kind=kind, table_entries=1024, history_bits=8))
    for pc, taken in _branches(1):
        predictor.update(pc, taken)
    return predictor


def _counter_tables(predictor):
    parts = [predictor] + [getattr(predictor, name) for name in
                           ("_bimodal", "_gshare") if hasattr(predictor,
                                                              name)]
    return {(type(part).__name__, name): getattr(part, name)
            for part in parts for name in part._COUNTER_TABLES}


@pytest.mark.parametrize("kind", KINDS)
def test_pickle_round_trip_is_exact(kind):
    predictor = _trained(kind)
    restored = pickle.loads(pickle.dumps(predictor))
    tables = _counter_tables(restored)
    assert tables == _counter_tables(predictor)
    assert all(type(table) is list for table in tables.values())
    for pc, taken in _branches(2):
        assert restored.predict(pc) == predictor.predict(pc)
        restored.update(pc, taken)
        predictor.update(pc, taken)
    assert _counter_tables(restored) == _counter_tables(predictor)


@pytest.mark.parametrize("kind", ("bimodal", "gshare", "tournament", "tage"))
def test_counter_tables_pickle_as_bytes(kind):
    predictor = _trained(kind)
    state = predictor.__getstate__()
    assert predictor._COUNTER_TABLES
    for name in predictor._COUNTER_TABLES:
        assert state[name] == bytes(getattr(predictor, name))
    assert all(type(getattr(predictor, name)) is list
               for name in predictor._COUNTER_TABLES)


@pytest.mark.parametrize("kind", ("bimodal", "gshare", "tournament", "tage"))
def test_list_format_state_still_loads(kind):
    """Payloads written before the tables pickled as bytes hold the
    instance dict as it is at run time."""
    predictor = _trained(kind)
    restored = type(predictor).__new__(type(predictor))
    restored.__setstate__(dict(vars(predictor)))
    for name in predictor._COUNTER_TABLES:
        table = getattr(restored, name)
        assert type(table) is list
        assert table == getattr(predictor, name)
        assert table is not getattr(predictor, name)
    for pc, _ in _branches(3, 200):
        assert restored.predict(pc) == predictor.predict(pc)
