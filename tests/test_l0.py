"""l0 sampler tests: exactness, linearity, uniformity, bank equivalence."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feww.errors import CoordinateOutOfRange, SketchFailure
from feww.l0 import (
    EMPTY,
    FAILED,
    FIELD_PRIME,
    L0Sketch,
    SamplerBank,
    levels_for,
    repetitions_for,
)


def test_shape_formulas():
    assert levels_for(1) == 1
    assert levels_for(64) == 7
    assert levels_for(100) == 8
    assert repetitions_for(0.01) == 5
    assert repetitions_for(1e-6) == 14
    assert FIELD_PRIME == 2**61 - 1


def test_cancellation_restores_empty_sketch_cellwise():
    sk = L0Sketch(64, delta=0.01, seed=5)
    for c in (7, 20, 63):
        sk.update(c, +1)
    for c in (7, 20, 63):
        sk.update(c, -1)
    assert sk == L0Sketch(64, delta=0.01, seed=5)
    assert sk.sample() is None


def test_singleton_support_recovered():
    hits = 0
    for seed in range(200):
        sk = L0Sketch(64, delta=0.01, seed=seed)
        sk.update(7, +1)
        try:
            hits += sk.sample() == 7
        except SketchFailure:
            pass
    assert hits == 200  # a singleton always survives at level 0


def test_empty_support_returns_none():
    assert L0Sketch(16, seed=0).sample() is None


def test_coordinate_bounds():
    sk = L0Sketch(16, seed=0)
    with pytest.raises(CoordinateOutOfRange):
        sk.update(16, +1)
    with pytest.raises(CoordinateOutOfRange):
        sk.update(-1, +1)
    with pytest.raises(ValueError):
        sk.update(3, 2)


def test_merge_of_disjoint_streams_samples_union():
    support_a = [1, 5, 9]
    support_b = [20, 33]
    seen = set()
    for seed in range(300):
        a = L0Sketch(64, delta=0.01, seed=seed)
        b = L0Sketch(64, delta=0.01, seed=seed)
        for c in support_a:
            a.update(c, +1)
        for c in support_b:
            b.update(c, +1)
        merged = a.merge(b)
        try:
            v = merged.sample()
        except SketchFailure:
            continue
        seen.add(v)
        assert v in set(support_a) | set(support_b)
    assert seen == set(support_a) | set(support_b)


def test_merge_equals_sequential_processing():
    ops = [(3, 1), (9, 1), (13, 1), (9, -1), (40, 1), (3, -1)]
    whole = L0Sketch(64, delta=0.05, seed=4)
    first = L0Sketch(64, delta=0.05, seed=4)
    second = L0Sketch(64, delta=0.05, seed=4)
    for i, (c, d) in enumerate(ops):
        whole.update(c, d)
        (first if i < 3 else second).update(c, d)
    assert first.merge(second) == whole


@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=40),
       st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_linearity_under_random_legal_histories(steps, seed):
    present: set[int] = set()
    ops = []
    for c, want_insert in steps:
        if c in present:
            present.remove(c)
            ops.append((c, -1))
        elif want_insert:
            present.add(c)
            ops.append((c, +1))
    whole = L0Sketch(64, delta=0.05, seed=seed)
    shard_a = L0Sketch(64, delta=0.05, seed=seed)
    shard_b = L0Sketch(64, delta=0.05, seed=seed)
    for i, (c, d) in enumerate(ops):
        whole.update(c, d)
        (shard_a if i % 2 == 0 else shard_b).update(c, d)
    merged = shard_a.merge(shard_b)
    assert merged == whole
    assert whole.support_size() == len(present)
    if present:
        try:
            assert whole.sample() in present
        except SketchFailure:
            pass
    else:
        assert whole.sample() is None


def test_support_two_uniformity():
    counts = Counter()
    fails = 0
    trials = 20_000
    for seed in range(trials):
        sk = L0Sketch(16, delta=0.01, seed=seed)
        sk.update(3, +1)
        sk.update(9, +1)
        try:
            counts[sk.sample()] += 1
        except SketchFailure:
            fails += 1
    good = trials - fails
    assert fails / trials < 0.01
    for c in (3, 9):
        assert abs(counts[c] / good - 0.5) < 0.02


def test_support_sixteen_tv_and_soundness_small():
    support = set(range(0, 64, 4))
    counts = Counter()
    fails = 0
    trials = 4000
    for seed in range(trials):
        sk = L0Sketch(64, delta=0.01, seed=10_000 + seed)
        for c in support:
            sk.update(c, +1)
        try:
            v = sk.sample()
        except SketchFailure:
            fails += 1
            continue
        assert v in support
        counts[v] += 1
    good = trials - fails
    tv = sum(abs(counts[c] / good - 1 / 16) for c in support) / 2
    assert tv <= 0.06  # acceptance runs the tighter 1e4-draw version
    assert fails / trials < 0.01


# -- vectorized bank ---------------------------------------------------------

def test_bank_matches_sketch_cellwise(monkeypatch):
    scans = []
    scan_one = SamplerBank._scan_one
    monkeypatch.setattr(SamplerBank, "_scan_one",
                        lambda bank, k: scans.append(k) or scan_one(bank, k))
    simple = [(3, 1), (9, 1), (13, 1), (9, -1), (55, 1), (0, 1)]
    # Not simple: the sparsest count-1 cell holds all three coordinates,
    # index 0 ^ 3 ^ 10 = 9 and fingerprint 1 + z**3 - z**10 != z**9, so it
    # fails verification and the draw falls back to the full ordered rescan.
    cancelling = [(0, 1), (3, 1), (10, -1)]
    # 2**31 - 2 is the largest dim: its coordinates times the int32 hash
    # parameters need the int64 product.
    for dim in (64, 32768, 2_000_000, 2**31 - 2):
        for ops, seeds in ((simple + [(dim - 1, 1)], (0, 7, 123)), (cancelling, (0,))):
            for seed in seeds:
                sk = L0Sketch(dim, delta=0.02, seed=seed)
                bank = SamplerBank(dim, 1, 0.02, seed)
                for c, d in ops:
                    sk.update(c, d)
                    bank.update(c, d)
                assert bank.sampler_cells(0) == sk.cells()
                scans.clear()
                draw = bank.draw_all()
                try:
                    expect = sk.sample()
                except SketchFailure:
                    expect = FAILED
                assert draw[0] == (expect if expect is not None else EMPTY)
                assert (scans == [0]) == (ops is cancelling)


def test_bank_draws_match_rescan_across_blocks():
    # 4700 samplers x 14 repetitions = 65,800 rows: more than one block of
    # the draw's suffix-count scan.
    empty = SamplerBank(64, 4700, 1e-6, seed=8)
    assert empty.count * empty.reps > 65_536
    assert (empty.draw_all() == EMPTY).all()
    simple = [(c, 1) for c in (2, 11, 23, 42, 59)]
    # Not simple: after a double insert and a dangling delete, some top
    # cells fail verification and their draws fall back to the rescan.
    for ops in (simple, simple + [(5, 1), (5, 1), (30, -1)]):
        bank = SamplerBank(64, 4700, 1e-6, seed=8)
        for c, d in ops:
            bank.update(c, d)
        draws = bank.draw_all()
        assert draws.tolist() == [bank._scan_one(k) for k in range(bank.count)]


def test_bank_pending_stays_at_live_support():
    # 200,000 churn updates: each step inserts one coordinate and deletes
    # the one inserted 64 steps before; 4094 and 4095 survive throughout.
    bank = SamplerBank(4096, 4, 0.05, seed=3)
    live = {4094, 4095}
    for c in live:
        bank.update(c, +1)
    for i in range(100_000):
        c = i % 4093
        bank.update(c, +1)
        live.add(c)
        if i >= 64:
            old = (i - 64) % 4093
            bank.update(old, -1)
            live.remove(old)
        if i % 10_000 == 0:
            assert len(bank._pending) <= len(live)
    reference = SamplerBank(4096, 4, 0.05, seed=3)
    for c in live:
        reference.update(c, +1)
    draws = bank.draw_all()
    assert np.array_equal(draws, reference.draw_all())
    assert set(draws.tolist()) <= live | {FAILED}


def test_bank_draws_are_sound_and_cover_support():
    support = {2, 11, 23, 42, 59}
    bank = SamplerBank(64, 400, 0.01, seed=5)
    for c in support:
        bank.update(c, +1)
    draws = bank.draw_all()
    good = draws[draws >= 0]
    assert len(good) >= 390
    assert set(int(v) for v in good) <= support
    assert set(int(v) for v in good) == support  # 400 samplers cover 5 coords


def test_bank_empty_and_cancellation():
    bank = SamplerBank(32, 8, 0.05, seed=2)
    assert list(bank.draw_all()) == [EMPTY] * 8
    bank.update(3, +1)
    bank.update(3, -1)
    assert list(bank.draw_all()) == [EMPTY] * 8


def test_bank_merge_equals_sequential():
    ops = [(3, 1), (9, 1), (13, 1), (9, -1), (40, 1)]
    whole = SamplerBank(64, 6, 0.05, seed=9)
    a = SamplerBank(64, 6, 0.05, seed=9)
    b = SamplerBank(64, 6, 0.05, seed=9)
    for i, (c, d) in enumerate(ops):
        whole.update(c, d)
        (a if i % 2 else b).update(c, d)
    merged = a.merge(b)
    assert np.array_equal(merged.draw_all(), whole.draw_all())
    for k in range(6):
        assert merged.sampler_cells(k) == whole.sampler_cells(k)


def test_bank_survives_long_streams():
    # 1,125,901 updates: more than a bank without per-update reduction of
    # its fingerprints could take at this dim.
    bank = SamplerBank(16000, 2, 0.05, seed=1)
    bank.update(5, +1)
    for i in range(1_125_900):
        bank.update(i // 2 % 16000, 1 if i % 2 == 0 else -1)
        if i % 131072 == 1:
            assert list(bank.draw_all()) == [5, 5]
    assert list(bank.draw_all()) == [5, 5]


def test_bank_cell_count_formula():
    bank = SamplerBank(100, 37, 1e-6, seed=0)
    assert bank.cell_count() == 37 * 14 * 8 * 3


def test_space_grows_logarithmically():
    # cells = reps * levels * 3 per sampler: log^2-ish in dim, log(1/delta).
    small = L0Sketch(16, delta=0.01, seed=0)
    big = L0Sketch(4096, delta=0.01, seed=0)
    assert small.cell_count() == small.reps * small.levels * 3
    assert big.cell_count() == big.reps * big.levels * 3
    assert big.levels == levels_for(4096) == 13
    assert big.cell_count() <= 3 * (math.ceil(math.log2(4096)) + 1) * 5
