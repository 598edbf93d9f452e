"""Tests for the aBCP witness-pair protocol (Lemma 3)."""

from __future__ import annotations

import random
from typing import Dict

import pytest

from repro.core.abcp import ABCPInstance, SIDE_A, SIDE_B
from repro.geometry.emptiness import EmptinessStructure
from repro.geometry.points import sq_dist


class Harness:
    """Two cells' emptiness structures plus a brute-force oracle."""

    def __init__(self, eps: float = 1.0, rho: float = 0.0, dim: int = 2):
        self.eps = eps
        self.rho = rho
        self.empt = (
            EmptinessStructure(dim, eps, rho),
            EmptinessStructure(dim, eps, rho),
        )
        self.coords: Dict[int, tuple] = {}
        self.side_of: Dict[int, int] = {}
        self.next_id = 0

    def add(self, side: int, point) -> int:
        pid = self.next_id
        self.next_id += 1
        self.coords[pid] = tuple(point)
        self.side_of[pid] = side
        self.empt[side].insert(pid, tuple(point))
        return pid

    def remove(self, pid: int) -> int:
        side = self.side_of.pop(pid)
        self.empt[side].delete(pid)
        return side

    def make(self) -> ABCPInstance:
        return ABCPInstance(self.empt[0], self.empt[1], self.coords.__getitem__)

    def exists_tight_pair(self) -> bool:
        sq_eps = self.eps * self.eps
        a_side = [p for p, s in self.side_of.items() if s == SIDE_A]
        b_side = [p for p, s in self.side_of.items() if s == SIDE_B]
        return any(
            sq_dist(self.coords[a], self.coords[b]) <= sq_eps
            for a in a_side
            for b in b_side
        )

    def check_contract(self, inst: ABCPInstance) -> None:
        if self.exists_tight_pair():
            assert inst.has_witness, "witness must exist when a pair is <= eps"
        if inst.has_witness:
            a, b = inst.witness
            assert self.side_of[a] == SIDE_A and self.side_of[b] == SIDE_B
            relaxed = self.eps * (1 + self.rho)
            assert sq_dist(self.coords[a], self.coords[b]) <= relaxed**2 + 1e-12


class TestInitialScan:
    def test_empty_cells_no_witness(self):
        h = Harness()
        inst = h.make()
        assert not inst.has_witness

    def test_finds_existing_pair(self):
        h = Harness()
        h.add(SIDE_A, (0.0, 0.0))
        h.add(SIDE_B, (0.5, 0.0))
        inst = h.make()
        h.check_contract(inst)
        assert inst.has_witness

    def test_no_pair_no_witness(self):
        h = Harness()
        h.add(SIDE_A, (0.0, 0.0))
        h.add(SIDE_B, (5.0, 0.0))
        inst = h.make()
        assert not inst.has_witness

    def test_early_exit_suffix_still_covered(self):
        """The fix documented in the module: initial points after the first
        witness must be de-listable later."""
        h = Harness()
        a1 = h.add(SIDE_A, (0.0, 0.0))
        a2 = h.add(SIDE_A, (0.0, 2.0))
        h.add(SIDE_B, (0.9, 0.0))   # pairs with a1
        b2 = h.add(SIDE_B, (0.9, 2.0))   # pairs with a2
        inst = h.make()
        assert inst.has_witness
        # Remove the first pair entirely; (a2, b2) must surface.
        w = inst.witness
        for pid in w:
            side = h.remove(pid)
            inst.delete(pid, side)
        h.check_contract(inst)
        assert inst.has_witness
        assert set(inst.witness) == {a2, b2}


class TestUpdates:
    def test_insert_creates_witness(self):
        h = Harness()
        h.add(SIDE_A, (0.0, 0.0))
        inst = h.make()
        assert not inst.has_witness
        b = h.add(SIDE_B, (0.8, 0.0))
        inst.insert(b, SIDE_B)
        assert inst.has_witness
        h.check_contract(inst)

    def test_delete_nonwitness_keeps_witness(self):
        h = Harness()
        a = h.add(SIDE_A, (0.0, 0.0))
        b = h.add(SIDE_B, (0.5, 0.0))
        inst = h.make()
        far = h.add(SIDE_A, (0.0, 9.0))
        inst.insert(far, SIDE_A)
        w = inst.witness
        h.remove(far)
        inst.delete(far, SIDE_A)
        assert inst.witness == w

    def test_delete_witness_repairs_from_partner(self):
        h = Harness()
        a1 = h.add(SIDE_A, (0.0, 0.0))
        a2 = h.add(SIDE_A, (0.1, 0.0))
        b = h.add(SIDE_B, (0.6, 0.0))
        inst = h.make()
        assert inst.has_witness
        wa = inst.witness[SIDE_A]
        h.remove(wa)
        inst.delete(wa, SIDE_A)
        assert inst.has_witness
        h.check_contract(inst)

    def test_delete_last_pair_clears_witness(self):
        h = Harness()
        a = h.add(SIDE_A, (0.0, 0.0))
        b = h.add(SIDE_B, (0.5, 0.0))
        inst = h.make()
        h.remove(a)
        inst.delete(a, SIDE_A)
        assert not inst.has_witness

    def test_rho_relaxed_witness_allowed(self):
        h = Harness(eps=1.0, rho=0.5)
        h.add(SIDE_A, (0.0, 0.0))
        h.add(SIDE_B, (1.2, 0.0))  # in the don't-care band
        inst = h.make()
        # Witness may or may not exist, but if it does it must be <= 1.5.
        h.check_contract(inst)


class TestRandomizedContract:
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_contract_under_churn(self, rho, seed):
        rng = random.Random(seed)
        h = Harness(eps=1.0, rho=rho)
        # Both squares near each other so pairs form and break often.
        for _ in range(rng.randrange(6)):
            h.add(SIDE_A, (rng.uniform(0, 1), rng.uniform(0, 2)))
        for _ in range(rng.randrange(6)):
            h.add(SIDE_B, (rng.uniform(1.2, 2.2), rng.uniform(0, 2)))
        inst = h.make()
        h.check_contract(inst)
        for _ in range(300):
            live = list(h.side_of)
            if live and rng.random() < 0.45:
                pid = rng.choice(live)
                side = h.remove(pid)
                inst.delete(pid, side)
            else:
                side = rng.randrange(2)
                x = rng.uniform(0, 1) if side == SIDE_A else rng.uniform(1.2, 2.2)
                pid = h.add(side, (x, rng.uniform(0, 2)))
                inst.insert(pid, side)
            h.check_contract(inst)

    def test_amortized_queries_bounded(self):
        """Each point should be de-listed at most once: the pending queue
        never grows beyond total insertions."""
        rng = random.Random(42)
        h = Harness()
        inst = h.make()
        inserts = 0
        for _ in range(500):
            live = list(h.side_of)
            if live and rng.random() < 0.5:
                pid = rng.choice(live)
                side = h.remove(pid)
                inst.delete(pid, side)
            else:
                side = rng.randrange(2)
                x = rng.uniform(0, 1) if side == SIDE_A else rng.uniform(3.0, 4.0)
                pid = h.add(side, (x, rng.uniform(0, 1)))
                inst.insert(pid, side)
                inserts += 1
            assert len(inst._pending) <= inserts


class TestBatchUpdates:
    """``insert_many`` / ``delete_many``: one repair per batch, and the
    witness exists exactly while a pair within eps does (rho = 0)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batches_track_exact_pair_existence(self, seed):
        rng = random.Random(seed)
        h = Harness(eps=1.0, rho=0.0)
        for _ in range(rng.randrange(8)):
            side = rng.randrange(2)
            x = rng.uniform(0, 1) if side == SIDE_A else rng.uniform(1.2, 2.2)
            h.add(side, (x, rng.uniform(0, 2)))
        inst = h.make()
        assert inst.has_witness == h.exists_tight_pair()
        for _ in range(120):
            side = rng.randrange(2)
            mine = [pid for pid, s in h.side_of.items() if s == side]
            if mine and rng.random() < 0.5:
                gone = rng.sample(mine, rng.randint(1, len(mine)))
                for pid in gone:
                    h.remove(pid)
                inst.delete_many(gone, side)
            else:
                new = []
                for _ in range(rng.randint(1, 5)):
                    x = rng.uniform(0, 1) if side == SIDE_A else rng.uniform(1.2, 2.2)
                    new.append(h.add(side, (x, rng.uniform(0, 2))))
                inst.insert_many(new, side)
            h.check_contract(inst)
            assert inst.has_witness == h.exists_tight_pair()

    def test_delete_many_repairs_once(self):
        """Removing the witness and its replacements in one batch costs
        one emptiness query for the repair, not one per removed point."""
        h = Harness()
        a = [h.add(SIDE_A, (0.0, 0.1 * k)) for k in range(4)]
        h.add(SIDE_B, (0.5, 0.0))
        inst = h.make()
        assert inst.witness[SIDE_A] == a[0]
        calls = []
        h.empt = (_Counting(h.empt[SIDE_A], calls), h.empt[SIDE_B])
        inst._empt = h.empt
        gone = a[:3]
        for pid in gone:
            h.remove(pid)
        inst.delete_many(gone, SIDE_A)
        assert inst.witness == (a[3], inst.witness[SIDE_B])
        assert len(calls) == 1


class _Counting:
    """Proxy over an emptiness structure that records ``empty`` calls."""

    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def empty(self, q):
        self._calls.append(q)
        return self._inner.empty(q)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def __contains__(self, pid):
        return pid in self._inner
