"""The columnar point store against a dict reference (a state machine).

Hypothesis drives :class:`repro.core.store.PointStore` through fresh and
explicit-id inserts, single and batch deletes (across the compaction
threshold), rejected batches and lookups, and after every step checks
``len``, the ascending ``ids()``, bit-identical ``point()`` tuples and
gathered rows against a plain ``{id: tuple}`` model.  Each rejected
batch must name exactly the dead ids the model predicts and leave the
store unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.store import PointStore
from repro.errors import UnknownPointError

DIM = 2

coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
points = st.tuples(*[coordinate] * DIM)
batches = st.lists(points, min_size=1, max_size=40)


def _bits(rows) -> bytes:
    """The exact float64 bytes of one or more points (so ``-0.0`` and
    ``0.0`` differ)."""
    return np.asarray(rows, dtype=np.float64).tobytes()


def _dead_message(dead, delete: bool) -> str:
    rejected = (
        "the batch was rejected before deleting anything"
        if delete
        else "the query was rejected before resolving any group"
    )
    return f"point id(s) {sorted(set(dead))} are not live; {rejected}"


class PointStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = PointStore(DIM)
        self.model: Dict[int, Tuple[float, ...]] = {}
        self.next_id = 0

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------

    @rule(point=points)
    def insert_one(self, point):
        pid = self.store.append(point)
        assert pid == self.next_id
        self.model[pid] = point
        self.next_id += 1

    @rule(batch=batches)
    def insert_batch(self, batch):
        ids = self.store.add(np.array(batch, dtype=np.float64))
        assert ids.tolist() == list(range(self.next_id, self.next_id + len(batch)))
        self.model.update(zip(ids.tolist(), batch))
        self.next_id += len(batch)

    @rule(
        candidates=st.lists(st.integers(0, 300), unique=True, max_size=30),
        data=st.data(),
    )
    def insert_explicit(self, candidates, data):
        """Explicit ascending ids that are not live, older ones included
        (a rebalance transfer, a restored shard)."""
        ids = sorted(pid for pid in candidates if pid not in self.model)
        batch = data.draw(st.lists(points, min_size=len(ids), max_size=len(ids)))
        got = self.store.add(
            np.array(batch, dtype=np.float64).reshape(-1, DIM),
            np.array(ids, dtype=np.int64),
        )
        assert got.tolist() == ids
        self.model.update(zip(ids, batch))
        if ids:
            self.next_id = max(self.next_id, ids[-1] + 1)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), point=points)
    def insert_live_id_rejected(self, data, point):
        live = data.draw(st.sampled_from(sorted(self.model)))
        before = self._state()
        with pytest.raises(ValueError, match=rf"point id\(s\) \[{live}\] are already live"):
            self.store.add(np.array([point]), np.array([live]))
        assert self._state() == before

    @rule(pid=st.integers(0, 300), point=points)
    def insert_unordered_ids_rejected(self, pid, point):
        before = self._state()
        with pytest.raises(ValueError, match="strictly ascending"):
            self.store.add(np.array([point, point]), np.array([pid + 1, pid]))
        with pytest.raises(ValueError, match="strictly ascending"):
            self.store.add(np.array([point, point]), np.array([pid, pid]))
        assert self._state() == before

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_one(self, data):
        pid = data.draw(st.sampled_from(sorted(self.model)))
        assert _bits(self.store.pop(pid)) == _bits(self.model.pop(pid))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_batch(self, data):
        """Any subset of the live ids, in any order: large subsets push
        the dead rows past the live ones and compact the columns."""
        live = sorted(self.model)
        doomed = data.draw(st.permutations(live)).copy()
        doomed = doomed[: data.draw(st.integers(1, len(doomed)))]
        ids, rows = self.store.lookup(doomed, delete=True)
        assert ids.tolist() == doomed
        self.store.discard(rows)
        for pid in doomed:
            del self.model[pid]

    @rule(
        data=st.data(),
        strangers=st.lists(st.integers(-5, 400), min_size=1, max_size=5),
    )
    def delete_batch_with_dead_rejected(self, data, strangers):
        live = sorted(self.model)
        batch = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        batch = batch + strangers
        dead = [pid for pid in batch if pid not in self.model]
        before = self._state()
        if len(set(batch)) != len(batch):
            with pytest.raises(ValueError, match="duplicate point ids"):
                self.store.lookup(batch, delete=True)
        elif dead:
            with pytest.raises(UnknownPointError) as err:
                self.store.lookup(batch, delete=True)
            assert err.value.args[0] == _dead_message(dead, delete=True)
        assert self._state() == before

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_batch_with_duplicate_rejected(self, data):
        live = sorted(self.model)
        batch = data.draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
        batch = batch + [data.draw(st.sampled_from(batch))]
        before = self._state()
        with pytest.raises(ValueError, match="duplicate point ids in delete_many batch"):
            self.store.lookup(batch, delete=True)
        assert self._state() == before

    @rule(pid=st.integers(-5, 400))
    def pop_dead_rejected(self, pid):
        if pid in self.model:
            return
        before = self._state()
        with pytest.raises(UnknownPointError, match=f"point id {pid} is not live"):
            self.store.pop(pid)
        assert self._state() == before

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @rule(data=st.data(), strangers=st.lists(st.integers(-5, 400), max_size=3))
    def lookup(self, data, strangers):
        """A query may repeat ids; dead ones fail it, named exactly.
        ``query`` gives the distinct ids ascending."""
        live = sorted(self.model)
        query = data.draw(st.lists(st.sampled_from(live))) if live else []
        query = query + strangers
        dead = [pid for pid in query if pid not in self.model]
        if dead:
            for gather in (self.store.gather, self.store.query):
                with pytest.raises(UnknownPointError) as err:
                    gather(query)
                assert err.value.args[0] == _dead_message(dead, delete=False)
            return
        ids, coords = self.store.gather(query)
        assert ids.tolist() == query
        assert coords.shape == (len(query), DIM)
        assert _bits(coords) == _bits([self.model[pid] for pid in query])
        distinct = sorted(set(query))
        ids, coords = self.store.query(query)
        assert ids.dtype == np.int64 and ids.tolist() == distinct
        assert _bits(coords) == _bits([self.model[pid] for pid in distinct])
        rows = self.store.rows(np.array(query + [10_000], dtype=np.int64))
        assert (rows[:-1] >= 0).all() and rows[-1] == -1

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _state(self) -> Tuple[List[int], bytes, int]:
        ids, coords = self.store.live()
        return ids.tolist(), _bits(coords), self.store.next_id

    @invariant()
    def matches_model(self):
        store, model = self.store, self.model
        expected = sorted(model)
        assert len(store) == len(model)
        assert store.ids() == expected
        assert store.next_id == self.next_id
        for pid in expected:
            assert pid in store
            point = store.point(pid)
            assert type(point) is tuple
            assert _bits(point) == _bits(model[pid])
        ids, coords = store.live()
        assert ids.tolist() == expected
        assert _bits(coords) == _bits([model[pid] for pid in expected])
        assert 2 * store._dead <= store._n  # compacted past the threshold


TestPointStoreMachine = PointStoreMachine.TestCase
TestPointStoreMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_lookup_names_odd_ids_as_dead():
    """Values that are not integers can never be live; they are named
    after the dead integers, and a live bool is the id it equals."""
    store = PointStore(DIM)
    store.add(np.zeros((3, DIM)))
    with pytest.raises(UnknownPointError, match=r"\[7, 1\.5, 'a'\] are not live"):
        store.gather([0, 1.5, 7, "a"])
    with pytest.raises(UnknownPointError, match=r"\[36893488147419103232\]"):
        store.gather([2**65])
    assert store.gather([True, 2])[0].tolist() == [1, 2]
    assert 2**65 not in store and "a" not in store and 1.5 not in store


def test_scalar_lookups_survive_compaction_and_merge():
    """Lookups agree whether rows are found by offset (consecutive ids)
    or by binary search (after an id gap appears)."""
    store = PointStore(DIM)
    ids = store.add(np.arange(200, dtype=np.float64).reshape(100, DIM))
    store.discard(store.lookup(ids[:60].tolist(), delete=True)[1])
    assert store._dead == 0 and len(store) == 40  # compacted
    assert store._dense()  # the oldest rows went: still consecutive
    probe = np.array([59, 60, 99, 100, -1, 2**62], dtype=np.int64)
    assert store.rows(probe).tolist() == [-1, 0, 39, -1, -1, -1]
    store.add(np.array([[-1.0, -2.0]]), np.array([5]))  # older id: merged
    assert not store._dense()
    assert store.rows(probe).tolist() == [-1, 1, 40, -1, -1, -1]
    assert store.ids()[:2] == [5, 60]
    assert store.point(5) == (-1.0, -2.0)
    assert store.point(99) == (198.0, 199.0)
    assert 59 not in store and 100 not in store
    assert store.next_id == 100
