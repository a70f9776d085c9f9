"""Core model: vertices, stream updates, the exact oracle, and stream files.

Inputs are bipartite graphs G = (A, B, E) with |A| = n and |B| = m, where
m is polynomially bounded in n (m <= n**SIDE_RATIO_EXP). Vertex indices
are 1-based on both sides; in updates and neighbourhoods the side is
implied by position (first slot A, second slot B), so indices travel as
plain ints.

Streams are sequences of edge insertions/deletions under simple-graph
discipline: the running multiplicity of every edge stays in {0, 1}.
Duplicate insertions and dangling deletions are hard errors, not silent
no-ops, because downstream degree-triggered sampling is only correct on
simple streams.

`ExactGraph` is the verification oracle: it replays a stream exactly and
answers degree and neighbourhood queries. Algorithms never consult it;
tests and the harness do.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .errors import (
    DeleteAbsent,
    DuplicateInsert,
    EmptyGraph,
    MalformedStream,
)

# Default exponent c in the side-size restriction m <= n**c.
SIDE_RATIO_EXP = 3


def check_side_sizes(n: int, m: int, side_ratio_exp: int = SIDE_RATIO_EXP) -> None:
    """Enforce n >= 1, m >= 1 and the restriction m <= n**side_ratio_exp."""
    if n < 1 or m < 1:
        raise ValueError(f"side sizes must be positive, got n={n} m={m}")
    if m > n**side_ratio_exp:
        raise ValueError(f"m={m} exceeds n**{side_ratio_exp}={n**side_ratio_exp}")


class Sign(Enum):
    INSERT = "I"
    DELETE = "D"


class StreamUpdate(NamedTuple):
    """One edge event: a is the A-side index, b the B-side index."""

    a: int
    b: int
    sign: Sign = Sign.INSERT


class Neighbourhood(NamedTuple):
    """An A-vertex with a duplicate-free ordered tuple of B-side witnesses."""

    center: int
    witnesses: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.witnesses)


class ExactGraph:
    """Exact adjacency/degree oracle for a bipartite edge stream.

    Single-writer: one instance must be driven from one thread. Distinct
    instances share nothing.
    """

    def __init__(self, n: int, m: int, side_ratio_exp: int = SIDE_RATIO_EXP):
        check_side_sizes(n, m, side_ratio_exp)
        self.n = n
        self.m = m
        self._adj: dict[int, set[int]] = {}
        self._edge_count = 0

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def apply_update(self, u: StreamUpdate) -> None:
        if not (1 <= u.a <= self.n):
            raise MalformedStream(f"A-index {u.a} outside [1, {self.n}]")
        if not (1 <= u.b <= self.m):
            raise MalformedStream(f"B-index {u.b} outside [1, {self.m}]")
        neigh = self._adj.setdefault(u.a, set())
        if u.sign is Sign.INSERT:
            if u.b in neigh:
                raise DuplicateInsert(f"edge ({u.a},{u.b}) inserted twice")
            neigh.add(u.b)
            self._edge_count += 1
        else:
            if u.b not in neigh:
                raise DeleteAbsent(f"edge ({u.a},{u.b}) deleted but absent")
            neigh.remove(u.b)
            self._edge_count -= 1

    def degree(self, a: int) -> int:
        return len(self._adj.get(a, ()))

    def neighbours(self, a: int) -> frozenset[int]:
        return frozenset(self._adj.get(a, ()))

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(len(s) for s in self._adj.values())

    def degrees(self) -> dict[int, int]:
        """Degrees of all A-vertices that ever appeared (possibly now 0)."""
        return {a: len(s) for a, s in self._adj.items()}

    def vertices_with_degree_at_least(self, threshold: int) -> int:
        return sum(1 for s in self._adj.values() if len(s) >= threshold)

    def exact_max_neighbourhood(self) -> Neighbourhood:
        """A maximum-degree vertex with its full neighbour set.

        Ties broken by smallest A-index. Raises EmptyGraph if no edge is
        present.
        """
        if self._edge_count == 0:
            raise EmptyGraph("graph has no edges")
        best_a = 0
        best_deg = -1
        for a, neigh in self._adj.items():
            d = len(neigh)
            if d > best_deg or (d == best_deg and a < best_a):
                best_a, best_deg = a, d
        return Neighbourhood(best_a, tuple(sorted(self._adj[best_a])))


def verify_witness(graph: ExactGraph, nb: Neighbourhood, threshold: int) -> bool:
    """True iff the witnesses are real, distinct neighbours of the center
    and there are at least `threshold` of them."""
    wits = set(nb.witnesses)
    if len(wits) != len(nb.witnesses):
        return False
    if len(wits) < threshold:
        return False
    return wits <= graph.neighbours(nb.center)


def replay(updates: Iterable[StreamUpdate], n: int, m: int) -> ExactGraph:
    """Build the exact graph described by a full update sequence."""
    g = ExactGraph(n, m)
    for u in updates:
        g.apply_update(u)
    return g


# ---------------------------------------------------------------------------
# Stream file format
#
# Text, UTF-8, LF line endings. One header line, then one update per line:
#
#   # n=<n> m=<m> mode=<ins|insdel>
#   I <a> <b>
#   D <a> <b>
#
# The format round-trips byte-for-byte through write_stream / parse_stream.
# ---------------------------------------------------------------------------

MODE_INSERTION_ONLY = "ins"
MODE_INSERTION_DELETION = "insdel"


class StreamHeader(NamedTuple):
    n: int
    m: int
    mode: str


def stream_to_text(updates: Iterable[StreamUpdate], n: int, m: int, mode: str) -> str:
    if mode not in (MODE_INSERTION_ONLY, MODE_INSERTION_DELETION):
        raise ValueError(f"unknown mode {mode!r}")
    check_side_sizes(n, m)
    lines = [f"# n={n} m={m} mode={mode}\n"]
    for u in updates:
        if mode == MODE_INSERTION_ONLY and u.sign is Sign.DELETE:
            raise MalformedStream("deletion in an insertion-only stream")
        lines.append(f"{u.sign.value} {u.a} {u.b}\n")
    return "".join(lines)


def write_stream(updates: Iterable[StreamUpdate], n: int, m: int, mode: str, path) -> None:
    text = stream_to_text(updates, n, m, mode)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedStream(f"line {lineno}: bad {what} {token!r}") from None


def parse_stream_text(text: str) -> tuple[list[StreamUpdate], StreamHeader]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedStream("empty stream file")
    header = lines[0]
    parts = header.split()
    if (
        len(parts) != 4
        or parts[0] != "#"
        or not parts[1].startswith("n=")
        or not parts[2].startswith("m=")
        or not parts[3].startswith("mode=")
    ):
        raise MalformedStream(f"bad header line {header!r}")
    n = _parse_int(parts[1][2:], "n", 1)
    m = _parse_int(parts[2][2:], "m", 1)
    mode = parts[3][5:]
    if mode not in (MODE_INSERTION_ONLY, MODE_INSERTION_DELETION):
        raise MalformedStream(f"bad mode {mode!r}")
    check_side_sizes(n, m)
    updates = []
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != 3 or toks[0] not in ("I", "D"):
            raise MalformedStream(f"line {i}: bad update line {line!r}")
        sign = Sign.INSERT if toks[0] == "I" else Sign.DELETE
        if mode == MODE_INSERTION_ONLY and sign is Sign.DELETE:
            raise MalformedStream(f"line {i}: deletion in insertion-only stream")
        a = _parse_int(toks[1], "A-index", i)
        b = _parse_int(toks[2], "B-index", i)
        if not (1 <= a <= n):
            raise MalformedStream(f"line {i}: A-index {a} outside [1, {n}]")
        if not (1 <= b <= m):
            raise MalformedStream(f"line {i}: B-index {b} outside [1, {m}]")
        updates.append(StreamUpdate(a, b, sign))
    return updates, StreamHeader(n, m, mode)


def parse_stream(path) -> tuple[list[StreamUpdate], StreamHeader]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_stream_text(fh.read())
