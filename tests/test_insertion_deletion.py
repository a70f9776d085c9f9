"""Insertion-deletion search: derived parameters, regimes, sampling lemma."""

import math

import pytest

from feww.core import Sign, StreamUpdate, replay, verify_witness
from feww.errors import ParameterOrderViolation
from feww.insertion_deletion import (
    InsDelConfig,
    default_delta,
    run_insertion_deletion,
    validate_sampling_lemma,
)
from feww.l0 import levels_for, repetitions_for


def test_x_formula():
    assert InsDelConfig(n=100, m=32, d=32, alpha=4, seed=0).x == 25
    assert InsDelConfig(n=100, m=32, d=32, alpha=20, seed=0).x == 10  # sqrt wins
    assert InsDelConfig(n=10, m=10, d=2, alpha=3, seed=0).x == 4  # both ceilings


def test_sampler_count_formulas():
    cfg = InsDelConfig(n=100, m=32, d=32, alpha=4, seed=0, delta=1e-6)
    assert cfg.vertex_sample_size == min(100, math.ceil(10 * 25 * math.log(100)))
    assert cfg.vertex_sample_size == 100  # capped at n
    assert cfg.samplers_per_vertex == math.ceil(10 * 8 * math.log(100))
    expected_edge = math.ceil(10 * 800 * (1 / 25 + 1 / 4) * math.log(3200))
    assert cfg.edge_samplers == expected_edge


def test_default_delta_formula():
    assert default_delta(10, 4) == 1.0 / (10**10 * 4)
    cfg = InsDelConfig(n=10, m=10, d=4, alpha=2, seed=0)
    assert cfg.sampler_delta == default_delta(10, 4)


def test_sketch_cells_closed_form():
    cfg = InsDelConfig(n=100, m=32, d=32, alpha=4, seed=0, delta=1e-6)
    reps = repetitions_for(1e-6)
    expected = (cfg.vertex_sample_size * cfg.samplers_per_vertex
                * reps * levels_for(32) * 3
                + cfg.edge_samplers * reps * levels_for(3200) * 3)
    assert cfg.sketch_cells == expected


def test_run_reports_cells_matching_closed_form():
    cfg = InsDelConfig(n=20, m=8, d=4, alpha=2, seed=1, delta=1e-4)
    stream = [StreamUpdate(3, b) for b in range(1, 5)]
    run = run_insertion_deletion(cfg, stream)
    assert run.sketch_cells == cfg.sketch_cells
    assert run.sampler_counts == (cfg.vertex_sample_size, cfg.samplers_per_vertex,
                                  cfg.edge_samplers)


def test_run_counts_failed_draws():
    cfg = InsDelConfig(n=20, m=8, d=4, alpha=2, seed=1, delta=1e-4)
    simple = [StreamUpdate(3, b) for b in range(1, 5)]
    assert run_insertion_deletion(cfg, simple).failed_draws == 0
    # Alone, a dangling delete leaves a count of -1 at level 0 and no
    # count-1 cell, so every sampler that saw it fails.
    run = run_insertion_deletion(cfg, [StreamUpdate(5, 2, Sign.DELETE)])
    vertex = cfg.samplers_per_vertex if 5 in run.sampled_vertices else 0
    assert run.failed_draws == cfg.edge_samplers + vertex > 0
    mixed = simple + [StreamUpdate(5, 2, Sign.DELETE)]
    assert run_insertion_deletion(cfg, mixed).failed_draws > 0


def test_single_star_survives_deletion_churn():
    n, m, d, alpha = 40, 16, 8, 2
    star = [StreamUpdate(7, b) for b in range(1, d + 1)]
    churn_in = [StreamUpdate(20 + i, 1 + i % m) for i in range(10)]
    churn_out = [StreamUpdate(u.a, u.b, Sign.DELETE) for u in churn_in]
    stream = churn_in + star + churn_out
    cfg = InsDelConfig(n=n, m=m, d=d, alpha=alpha, seed=5, delta=1e-6)
    run = run_insertion_deletion(cfg, stream)
    assert run.result is not None
    oracle = replay(stream, n, m)
    assert verify_witness(oracle, run.result, cfg.witness_target)


def test_insert_then_delete_everything_fails():
    n, m = 20, 8
    ins = [StreamUpdate(a, b) for a in (1, 5, 9) for b in (1, 2, 3)]
    dels = [StreamUpdate(u.a, u.b, Sign.DELETE) for u in ins]
    cfg = InsDelConfig(n=n, m=m, d=3, alpha=1, seed=2, delta=1e-4)
    run = run_insertion_deletion(cfg, ins + dels)
    assert run.result is None


def test_dense_regime_small():
    # Several vertices at degree >= d/alpha: vertex sampling territory.
    n, m, d, alpha = 50, 16, 16, 4
    stream = [StreamUpdate(9, b) for b in range(1, d + 1)]
    for a in (12, 30, 44):
        stream += [StreamUpdate(a, b) for b in range(1, 5)]
    failures = 0
    for seed in range(25):
        cfg = InsDelConfig(n=n, m=m, d=d, alpha=alpha, seed=seed, delta=1e-6)
        run = run_insertion_deletion(cfg, stream)
        if run.result is None:
            failures += 1
        else:
            oracle = replay(stream, n, m)
            assert verify_witness(oracle, run.result, cfg.witness_target)
    assert failures <= 1


def test_sparse_regime_small():
    # Exactly one heavy vertex, everything else empty: edge sampling territory.
    n, m, d, alpha = 50, 16, 16, 4
    stream = [StreamUpdate(33, b) for b in range(1, d + 1)]
    failures = 0
    for seed in range(25):
        cfg = InsDelConfig(n=n, m=m, d=d, alpha=alpha, seed=seed, delta=1e-6)
        run = run_insertion_deletion(cfg, stream)
        if run.result is None:
            failures += 1
        else:
            assert run.result.center == 33
    assert failures <= 1


def test_witness_sizes_meet_target():
    n, m, d, alpha = 30, 16, 12, 3
    stream = [StreamUpdate(4, b) for b in range(1, d + 1)]
    cfg = InsDelConfig(n=n, m=m, d=d, alpha=alpha, seed=9, delta=1e-6)
    run = run_insertion_deletion(cfg, stream)
    assert run.result is not None
    assert run.result.size >= cfg.witness_target == 4


def test_determinism():
    stream = [StreamUpdate(4, b) for b in range(1, 9)]
    cfg = InsDelConfig(n=20, m=10, d=8, alpha=2, seed=123, delta=1e-5)
    assert run_insertion_deletion(cfg, stream).result == \
        run_insertion_deletion(cfg, stream).result


# -- hit-coverage sampling estimate ------------------------------------------

def test_sampling_lemma_trivial_full_subset():
    # y=1, k=n: the first draw hits.
    assert validate_sampling_lemma(50, 50, 1, 4, trials=200, seed=1) == 1.0


def test_sampling_lemma_parameter_order():
    with pytest.raises(ParameterOrderViolation):
        validate_sampling_lemma(10, 20, 5, 4, trials=10)
    with pytest.raises(ParameterOrderViolation):
        validate_sampling_lemma(10, 5, 6, 4, trials=10)
    with pytest.raises(ParameterOrderViolation):
        validate_sampling_lemma(10, 5, 2, 3, trials=10)


def test_sampling_lemma_coupon_collector_regime():
    # y = k = n at C=4: about 4n ln n draws collect every coupon.
    rate = validate_sampling_lemma(100, 100, 100, 4, trials=500, seed=3)
    assert rate >= 0.99


def test_sampling_lemma_partial_coverage_small():
    rate = validate_sampling_lemma(400, 40, 20, 4, trials=800, seed=7)
    assert rate >= 1 - 1 / 400 - 0.01
