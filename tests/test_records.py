"""`intervaldyn.records` against the stdlib `dataclasses` as its oracle.

The same class bodies are declared once under `records.record` and once
under `dataclasses.dataclass`; every behaviour the package relies on must
come out the same.
"""

import dataclasses
import math

import pytest

from intervaldyn import records


def _declare(record, field):
    @record
    class Report:                      # defaults and default factories
        kind: str
        basin: float
        periodic: dict = None
        count: int = 3
        sample_indices: list = field(default_factory=list)
        diagnostics: dict = field(default_factory=dict)

    @record
    class Induced:                     # init=False, repr=False, post-init
        base: tuple
        branches: list
        _los: list = field(init=False, repr=False, default=None)
        _n: int = field(init=False, repr=False, default=None)

        def __post_init__(self):
            self._los = [b[0] for b in self.branches]
            self._n = len(self.branches)

    @record(frozen=True)
    class Lateral:                     # frozen, post-init that raises
        point: float
        side: str

        def __post_init__(self):
            if self.side not in ("left", "right"):
                raise ValueError("side must be 'left' or 'right'")

    @record(frozen=True)
    class Cell:                        # frozen with a default
        lo: float
        hi: float
        itinerary: tuple = ()

    @record(frozen=True)
    class Empty:                       # frozen with no fields
        pass

    return {c.__name__: c for c in (Report, Induced, Lateral, Cell, Empty)}


MINE = _declare(records.record, records.field)
ORACLE = _declare(dataclasses.dataclass, dataclasses.field)
FIELDS = {
    "Report": ("kind", "basin", "periodic", "count", "sample_indices",
               "diagnostics"),
    "Induced": ("base", "branches", "_los", "_n"),
    "Lateral": ("point", "side"),
    "Cell": ("lo", "hi", "itinerary"),
    "Empty": (),
}
FROZEN = {"Lateral", "Cell", "Empty"}
ARGS = {
    "Report": [(("cycle", 0.5), {}),
               (("cycle", 0.5), {"periodic": {"period": 2}, "count": 7,
                                 "sample_indices": [1, 2]}),
               ((), {"kind": "cantor", "basin": math.inf,
                     "diagnostics": {"x": (1, 2)}})],
    "Induced": [(((0.0, 1.0), [(0.0, 0.5), (0.5, 1.0)]), {}),
                ((), {"base": (0.2, 0.3), "branches": []})],
    "Lateral": [((0.5, "left"), {}), ((), {"point": -0.0, "side": "right"})],
    "Cell": [((0.0, 0.25), {}), ((0.25, 0.5, (1, 0, 1)), {}),
             ((math.nan, 1.0), {})],
    "Empty": [((), {})],
}


def _pairs():
    for name, cases in ARGS.items():
        for args, kwargs in cases:
            yield name, MINE[name](*args, **kwargs), \
                ORACLE[name](*args, **kwargs)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:        # the exception's class and message
        return (type(exc).__name__, str(exc))


def test_fields_and_class_attributes_match():
    missing = object()
    for name, cls in MINE.items():
        oracle = ORACLE[name]
        assert tuple(f.name for f in dataclasses.fields(oracle)) \
            == FIELDS[name]
        for f in FIELDS[name]:
            assert cls.__dict__.get(f, missing) \
                == oracle.__dict__.get(f, missing), (name, f)
        assert (cls.__hash__ is None) == (oracle.__hash__ is None) \
            == (name not in FROZEN)


def test_repr_eq_and_hash_match():
    made = list(_pairs())
    for name, mine, oracle in made:
        assert repr(mine) == repr(oracle)
        assert {f: getattr(mine, f) for f in FIELDS[name]} \
            == {f: getattr(oracle, f) for f in FIELDS[name]}
        assert _outcome(hash, mine) == _outcome(hash, oracle)
        assert (_outcome(hash, mine)[0] == "TypeError") \
            == (name not in FROZEN)
        assert mine.__eq__(oracle) is NotImplemented
        assert oracle.__eq__(mine) is NotImplemented
        assert mine.__eq__(None) is oracle.__eq__(None) is NotImplemented
    for _, a, a_oracle in made:
        for _, b, b_oracle in made:
            assert (a == b) == (a_oracle == b_oracle)
            assert (a != b) == (a_oracle != b_oracle)
    assert "_los" not in repr(MINE["Induced"]((0, 1), [(0, 1)]))


def test_default_factories_give_fresh_objects():
    for classes in (MINE, ORACLE):
        a, b = classes["Report"]("a", 0.0), classes["Report"]("b", 1.0)
        assert a.sample_indices == [] and a.sample_indices is not \
            b.sample_indices
        assert a.diagnostics is not b.diagnostics
        a.sample_indices.append(1)
        assert b.sample_indices == []


def test_constructor_errors_match():
    bad = [("Report", ("cycle",), {}), ("Report", (), {"basin": 1.0}),
           ("Report", ("a", 1.0), {"_x": 1}),
           ("Induced", ((0, 1),), {}),
           ("Induced", ((0, 1), []), {"_los": []}),
           ("Lateral", (0.5, "up"), {}), ("Lateral", (0.5,), {}),
           ("Cell", (0.0, 1.0, (), 4), {}), ("Empty", (1,), {})]
    for name, args, kwargs in bad:
        got = _outcome(lambda: MINE[name](*args, **kwargs))
        want = _outcome(lambda: ORACLE[name](*args, **kwargs))
        assert got[0] in ("TypeError", "ValueError")
        assert got == want, (name, args, kwargs)


def test_frozen_instances_refuse_assignment_and_deletion():
    for name, mine, oracle in _pairs():
        if name not in FROZEN:
            mine.extra = oracle.extra = 1
            continue
        for target in ("point", "lo", "extra"):
            with pytest.raises(AttributeError) as got:
                setattr(mine, target, 1.0)
            with pytest.raises(AttributeError) as want:
                setattr(oracle, target, 1.0)
            assert str(got.value) == str(want.value)
            with pytest.raises(AttributeError) as got:
                delattr(mine, target)
            with pytest.raises(AttributeError) as want:
                delattr(oracle, target)
            assert str(got.value) == str(want.value)
            assert isinstance(got.value, records.FrozenRecordError)
