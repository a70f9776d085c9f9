"""Star detection: doubling, guess grid, presets, end-to-end runs."""

import pytest

from feww.core import (
    MODE_INSERTION_DELETION,
    Sign,
    StreamUpdate,
    parse_stream_text,
    replay,
    stream_to_text,
    verify_witness,
)
from feww.errors import DeleteAbsent, MalformedStream, SelfLoop
from feww.generators import gen_general_star
from feww.stars import (
    GeneralUpdate,
    Mode,
    StarConfig,
    double_edge,
    double_stream,
    run_star_detection,
    semi_streaming_preset,
)


def test_double_edge_definition():
    assert double_edge(1, 2) == (StreamUpdate(1, 2), StreamUpdate(2, 1))
    first, second = double_edge(3, 4, Sign.DELETE)
    assert first.sign is Sign.DELETE and second.sign is Sign.DELETE


def test_double_edge_rejects_self_loop():
    with pytest.raises(SelfLoop):
        double_edge(2, 2)


def test_triangle_doubles_to_six_updates_all_degree_two():
    triangle = [GeneralUpdate(1, 2), GeneralUpdate(1, 3), GeneralUpdate(2, 3)]
    doubled = double_stream(triangle)
    assert len(doubled) == 6
    g = replay(doubled, 3, 3)
    assert [g.degree(v) for v in (1, 2, 3)] == [2, 2, 2]


def test_doubled_degree_equals_general_degree():
    updates = gen_general_star(12, 6, seed=4, background_edges=5)
    g = replay(double_stream(updates), 12, 12)
    degree = {}
    for gu in updates:
        degree[gu.u] = degree.get(gu.u, 0) + 1
        degree[gu.v] = degree.get(gu.v, 0) + 1
    for v, dv in degree.items():
        assert g.degree(v) == dv


def test_guess_grid_examples():
    cfg = StarConfig(n=16, epsilon=1.0, alpha=2, mode=Mode.INSERTION_ONLY, seed=0)
    assert cfg.guess_grid() == (1, 2, 4, 8, 16)
    half = StarConfig(n=10, epsilon=0.5, alpha=2, mode=Mode.INSERTION_ONLY, seed=0)
    grid = half.guess_grid()
    assert grid[0] == 1 and grid == tuple(sorted(set(grid)))


def test_grid_covers_every_possible_max_degree():
    for n in (2, 5, 16, 100):
        for eps in (0.5, 1.0, 2.0):
            grid = StarConfig(n=n, epsilon=eps, alpha=1,
                              mode=Mode.INSERTION_ONLY, seed=0).guess_grid()
            for delta in range(1, n):
                best = max(g for g in grid if g <= delta)
                assert best >= delta / (1 + eps)


def test_semi_streaming_presets():
    assert semi_streaming_preset(256, Mode.INSERTION_ONLY).alpha == 8
    assert semi_streaming_preset(256, Mode.INSERTION_DELETION).alpha == 16
    assert semi_streaming_preset(2, Mode.INSERTION_ONLY).alpha == 1
    assert semi_streaming_preset(100, Mode.INSERTION_ONLY).alpha == 7
    assert semi_streaming_preset(100, Mode.INSERTION_DELETION).alpha == 10
    assert semi_streaming_preset(10, Mode.INSERTION_ONLY).epsilon == 1.0


def test_planted_star_insertion_only():
    n, d = 16, 8
    hits = 0
    for seed in range(30):
        updates = gen_general_star(n, d, seed=seed)
        cfg = StarConfig(n=n, epsilon=1.0, alpha=2, mode=Mode.INSERTION_ONLY,
                         seed=seed)
        run = run_star_detection(cfg, updates)
        assert run.result is not None
        g = replay(double_stream(updates), n, n)
        assert verify_witness(g, run.result, 1)
        # The guess-8 run, when it succeeds, certifies exactly ceil(8/2) = 4.
        if run.per_guess.get(8) is not None:
            assert run.per_guess[8].size == 4
        # Delta = 8, alpha(1+eps) = 4: at least 2 witnesses required.
        if run.result.size >= 2:
            hits += 1
    assert hits == 30


def test_winning_guess_is_largest_successful():
    updates = gen_general_star(16, 8, seed=1)
    cfg = StarConfig(n=16, epsilon=1.0, alpha=2, mode=Mode.INSERTION_ONLY, seed=1)
    run = run_star_detection(cfg, updates)
    assert run.winning_guess == max(g for g, nb in run.per_guess.items()
                                    if nb is not None)


def test_insertion_deletion_mode_with_churn():
    n, d = 16, 8
    base = gen_general_star(n, d, seed=2)
    churn = [GeneralUpdate(11, 12), GeneralUpdate(13, 14)]
    removed = [GeneralUpdate(u.u, u.v, Sign.DELETE) for u in churn]
    updates = churn + base + removed
    cfg = StarConfig(n=n, epsilon=1.0, alpha=4, mode=Mode.INSERTION_DELETION,
                     seed=5, delta=1e-6)
    run = run_star_detection(cfg, updates)
    assert run.result is not None
    g = replay(double_stream(updates), n, n)
    assert verify_witness(g, run.result, run.result.size)
    assert run.result.size >= 1  # Delta/(alpha(1+eps)) = 1


def test_empty_graph_fails():
    cfg = StarConfig(n=8, epsilon=1.0, alpha=2, mode=Mode.INSERTION_ONLY, seed=0)
    assert run_star_detection(cfg, []).result is None


def test_general_stream_round_trip():
    updates = [GeneralUpdate(1, 2), GeneralUpdate(2, 3, Sign.DELETE)]
    # The writer parses its own text, so it refuses the dangling delete.
    with pytest.raises(DeleteAbsent, match="line 3"):
        stream_to_text(updates, 4, None, MODE_INSERTION_DELETION)
    with pytest.raises(DeleteAbsent, match="line 3"):
        parse_stream_text("# n=4 mode=insdel\nI 1 2\nD 2 3\n")
    legal = [GeneralUpdate(1, 2), GeneralUpdate(2, 1, Sign.DELETE)]
    text = stream_to_text(legal, 4, None, MODE_INSERTION_DELETION)
    parsed, header = parse_stream_text(text)
    assert parsed == legal and all(type(u) is GeneralUpdate for u in parsed)
    assert header == (4, None, MODE_INSERTION_DELETION)


def test_general_stream_parse_errors():
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 mode=ins\nI 2 2\n")
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 mode=ins\nD 1 2\n")
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 mode=ins\nI 1 5\n")
