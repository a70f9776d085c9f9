"""Exact-model tests: graph oracle, witness verification, stream format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feww.core import (
    ExactGraph,
    Neighbourhood,
    Sign,
    StreamUpdate,
    check_side_sizes,
    parse_stream_text,
    replay,
    stream_to_text,
    verify_witness,
)
from feww.errors import (
    DeleteAbsent,
    DuplicateInsert,
    EmptyGraph,
    MalformedStream,
)
from feww.generators import amri_matrix_updates, amri_reference_instance


def test_single_insert():
    g = ExactGraph(4, 4)
    g.apply_update(StreamUpdate(1, 1))
    assert g.degree(1) == 1
    assert g.max_degree() == 1


def test_insert_then_delete_cancels():
    g = ExactGraph(4, 4)
    g.apply_update(StreamUpdate(1, 1))
    g.apply_update(StreamUpdate(1, 1, Sign.DELETE))
    assert g.degree(1) == 0
    assert g.max_degree() == 0
    assert g.edge_count == 0


def test_reference_matrix_replay_degrees():
    # 4x6 binary matrix streamed row-by-row as edges: row sums 3, 3, 1, 3.
    inst = amri_reference_instance()
    g = replay(amri_matrix_updates(inst), 4, 6)
    assert [g.degree(i) for i in range(1, 5)] == [3, 3, 1, 3]


def test_duplicate_insert_rejected():
    g = ExactGraph(4, 4)
    g.apply_update(StreamUpdate(2, 3))
    with pytest.raises(DuplicateInsert):
        g.apply_update(StreamUpdate(2, 3))


def test_dangling_delete_rejected():
    g = ExactGraph(4, 4)
    with pytest.raises(DeleteAbsent):
        g.apply_update(StreamUpdate(2, 3, Sign.DELETE))


def test_max_neighbourhood_star():
    g = ExactGraph(8, 8)
    for b in range(1, 6):
        g.apply_update(StreamUpdate(1, b))
    nb = g.exact_max_neighbourhood()
    assert nb == Neighbourhood(1, (1, 2, 3, 4, 5))
    assert nb.size == 5


def test_max_neighbourhood_tie_breaks_to_smallest_index():
    g = ExactGraph(8, 8)
    for a in (5, 3):
        for b in (1, 2, 3):
            g.apply_update(StreamUpdate(a, b))
    assert g.exact_max_neighbourhood().center == 3


def test_max_neighbourhood_empty_graph():
    g = ExactGraph(4, 4)
    with pytest.raises(EmptyGraph):
        g.exact_max_neighbourhood()
    g.apply_update(StreamUpdate(1, 1))
    g.apply_update(StreamUpdate(1, 1, Sign.DELETE))
    with pytest.raises(EmptyGraph):
        g.exact_max_neighbourhood()


def test_max_neighbourhood_matches_independent_recount():
    # 50 vertices, 300 random edges; recount degrees with a second,
    # independent pass over the stored stream.
    rng = random.Random(1234)
    seen = set()
    while len(seen) < 300:
        seen.add((rng.randint(1, 50), rng.randint(1, 400)))
    updates = [StreamUpdate(a, b) for a, b in sorted(seen)]
    rng.shuffle(updates)
    g = replay(updates, 50, 400)

    recount: dict[int, set[int]] = {}
    for u in updates:
        recount.setdefault(u.a, set()).add(u.b)
    best = min(a for a, s in recount.items()
               if len(s) == max(len(x) for x in recount.values()))
    nb = g.exact_max_neighbourhood()
    assert nb.center == best
    assert set(nb.witnesses) == recount[best]
    for a in range(1, 51):
        assert g.degree(a) == len(recount.get(a, ()))


def test_verify_witness_basic():
    g = ExactGraph(4, 16)
    g.apply_update(StreamUpdate(1, 1))
    assert verify_witness(g, Neighbourhood(1, (1,)), 1)
    assert not verify_witness(g, Neighbourhood(1, (9,)), 1)
    assert not verify_witness(g, Neighbourhood(1, (1,)), 2)


def test_verify_witness_rejects_duplicates():
    g = ExactGraph(4, 16)
    g.apply_update(StreamUpdate(1, 1))
    g.apply_update(StreamUpdate(1, 2))
    assert not verify_witness(g, Neighbourhood(1, (1, 1)), 2)


def test_full_neighbourhood_always_verifies():
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randint(1, 20)
        m = rng.randint(1, min(30, n**3))
        edges = {(rng.randint(1, n), rng.randint(1, m))
                 for _ in range(rng.randint(1, 60))}
        g = replay([StreamUpdate(a, b) for a, b in sorted(edges)], n, m)
        assert verify_witness(g, g.exact_max_neighbourhood(), g.max_degree())


def test_side_size_restriction():
    check_side_sizes(4, 64)
    with pytest.raises(ValueError):
        check_side_sizes(4, 65)
    with pytest.raises(ValueError):
        ExactGraph(2, 9)


# -- stream files -----------------------------------------------------------

def test_stream_text_example():
    text = stream_to_text([StreamUpdate(1, 2), StreamUpdate(1, 2, Sign.DELETE)],
                          4, 6, "insdel")
    assert text == "# n=4 m=6 mode=insdel\nI 1 2\nD 1 2\n"
    # The writer refuses what the parser would.
    with pytest.raises(DeleteAbsent, match="line 3"):
        stream_to_text([StreamUpdate(1, 2), StreamUpdate(3, 4, Sign.DELETE)],
                       4, 6, "insdel")


def test_parse_rejects_bad_lines():
    with pytest.raises(MalformedStream):
        parse_stream_text("")
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 m=6 mode=weird\n")
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 m=6 mode=ins\nX 1 2\n")
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 m=6 mode=ins\nD 1 2\n")
    with pytest.raises(MalformedStream):
        parse_stream_text("# n=4 m=6 mode=ins\nI 5 2\n")
    with pytest.raises(DuplicateInsert, match="line 3"):
        parse_stream_text("# n=4 m=6 mode=ins\nI 1 2\nI 1 2\n")
    with pytest.raises(DeleteAbsent, match="line 3"):
        parse_stream_text("# n=4 m=6 mode=insdel\nI 1 2\nD 1 3\n")
    # General-graph edges are unordered: (2,1) is the edge (1,2).
    with pytest.raises(DuplicateInsert, match="line 3"):
        parse_stream_text("# n=4 mode=ins\nI 1 2\nI 2 1\n")
    with pytest.raises(DeleteAbsent, match="line 4"):
        parse_stream_text("# n=4 mode=insdel\nI 1 2\nD 2 1\nD 1 2\n")
    # ASCII decimal indices and sizes only: int() alone takes all of these.
    for body in ("I 1_0 2", "I +3 2", "I 1 \u0663", "I \u0663 2"):
        with pytest.raises(MalformedStream, match="line 3"):
            parse_stream_text(f"# n=40 m=6 mode=ins\nI 1 1\n{body}\n")
    for header in ("# n=1_0 m=6 mode=ins", "# n=4 m=+6 mode=ins",
                   "# n=\u0664 mode=ins"):
        with pytest.raises(MalformedStream, match="line 1"):
            parse_stream_text(f"{header}\nI 1 2\n")


@st.composite
def legal_streams(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=min(12, n**3)))
    steps = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, m),
                                    st.booleans()), max_size=40))
    present: set[tuple[int, int]] = set()
    updates = []
    for a, b, want_insert in steps:
        if (a, b) in present:
            present.remove((a, b))
            updates.append(StreamUpdate(a, b, Sign.DELETE))
        elif want_insert:
            present.add((a, b))
            updates.append(StreamUpdate(a, b))
    return updates, n, m


@given(legal_streams())
@settings(max_examples=60, deadline=None)
def test_stream_round_trip_is_byte_exact(data):
    updates, n, m = data
    text = stream_to_text(updates, n, m, "insdel")
    parsed, header = parse_stream_text(text)
    assert parsed == updates
    assert (header.n, header.m, header.mode) == (n, m, "insdel")
    assert stream_to_text(parsed, header.n, header.m, header.mode) == text


@given(legal_streams())
@settings(max_examples=40, deadline=None)
def test_replay_matches_multiset_recount(data):
    updates, n, m = data
    g = replay(updates, n, m)
    net: dict[tuple[int, int], int] = {}
    for u in updates:
        net[(u.a, u.b)] = net.get((u.a, u.b), 0) + (1 if u.sign is Sign.INSERT else -1)
    for (a, b), mult in net.items():
        assert mult in (0, 1)
        assert (b in g.neighbours(a)) == (mult == 1)
