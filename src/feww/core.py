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
simple streams. `parse_stream` enforces this for every stream file, both
bipartite and general-graph (where `I u v` and `I v u` are the same edge),
and names the offending line.

`ExactGraph` is the verification oracle: it replays a stream exactly and
answers degree and neighbourhood queries. Algorithms never consult it;
tests and the harness do.
"""

from __future__ import annotations

import io
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .errors import (
    DeleteAbsent,
    DuplicateInsert,
    EmptyGraph,
    MalformedStream,
    StreamError,
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


class GeneralUpdate(NamedTuple):
    """One undirected edge event on vertices of [n]."""

    u: int
    v: int
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
# Stream files
#
# Text, UTF-8, LF line endings. One header line, then one update per line:
#
#   # n=<n> [m=<m>] mode=<ins|insdel>
#   I <a> <b>
#   D <a> <b>
#
# A header with `m=` marks a bipartite file of StreamUpdates; without it,
# a general-graph file of GeneralUpdates on [n]. The format round-trips
# byte-for-byte through write_stream / parse_stream.
# ---------------------------------------------------------------------------

MODE_INSERTION_ONLY = "ins"
MODE_INSERTION_DELETION = "insdel"

SIGNS = {"I": Sign.INSERT, "D": Sign.DELETE}


class StreamHeader(NamedTuple):
    n: int
    m: Optional[int]  # None for a general-graph file
    mode: str


def stream_to_text(updates: Iterable[tuple[int, int, Sign]], n: int, m: Optional[int],
                   mode: str) -> str:
    """The stream file text of `updates`. It is parsed before it is
    returned, so the writer raises what the parser would (a bad header, a
    duplicate insert, a dangling delete, an index out of range)."""
    lines = [f"# n={n} mode={mode}\n" if m is None else f"# n={n} m={m} mode={mode}\n"]
    lines += [f"{sign.value} {a} {b}\n" for a, b, sign in updates]
    text = "".join(lines)
    parse_stream_text(text)
    return text


def write_stream(updates: Iterable[tuple[int, int, Sign]], n: int, m: Optional[int],
                 mode: str, path) -> None:
    text = stream_to_text(updates, n, m, mode)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_header(line: str) -> StreamHeader:
    parts = line.split()
    keys = ("n=", "m=", "mode=") if len(parts) == 4 else ("n=", "mode=")
    if (len(parts) != len(keys) + 1 or parts[0] != "#"
            or not all(p.startswith(k) for p, k in zip(parts[1:], keys))):
        raise MalformedStream(f"line 1: bad header line {line.rstrip()!r}")
    sizes = [p.split("=", 1)[1] for p in parts[1:-1]]
    # int() alone would also take "1_0", "+3" and non-ASCII digits.
    if not (line.isascii() and all(v.isdigit() for v in sizes)):
        raise MalformedStream(f"line 1: bad size in header {line.rstrip()!r}")
    sizes = [int(v) for v in sizes]
    mode = parts[-1][5:]
    if mode not in (MODE_INSERTION_ONLY, MODE_INSERTION_DELETION):
        raise MalformedStream(f"line 1: bad mode {mode!r}")
    n, m = sizes if len(sizes) == 2 else (sizes[0], None)
    check_side_sizes(n, n if m is None else m)
    return StreamHeader(n, m, mode)


def _parse_lines(lines: Iterable[str]) -> tuple[list, StreamHeader]:
    """The one parse loop: a header, then updates that must keep every edge
    multiplicity in {0, 1}. General-graph edges are unordered pairs."""
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        raise MalformedStream("empty stream file")
    header = _parse_header(first)
    n, m, mode = header
    general = m is None
    hi = n if general else m
    width = hi + 1
    insertion_only = mode == MODE_INSERTION_ONLY
    make = GeneralUpdate if general else StreamUpdate
    insert = Sign.INSERT
    live: set[int] = set()  # keys a * width + b of the edges present
    updates = []
    append = updates.append
    for line in lines:
        # Every earlier line after the header became an update, so the
        # line number of a bad line is len(updates) + 2.
        try:
            s, x, y = line.split()
            sign = SIGNS[s]
            # ASCII decimal indices only, so every file round-trips.
            if not (x.isdigit() and y.isdigit() and line.isascii()):
                raise ValueError
            a = int(x)
            b = int(y)
            if not (0 < a <= n and 0 < b <= hi):
                raise MalformedStream(f"edge ({a},{b}) outside [1, {n}] x [1, {hi}]")
            if general:
                if a == b:
                    raise MalformedStream(f"self-loop at {a}")
                key = a * width + b if a < b else b * width + a
            else:
                key = a * width + b
            if sign is insert:
                if key in live:
                    raise DuplicateInsert(f"edge ({a},{b}) inserted twice")
                live.add(key)
            else:
                if insertion_only:
                    raise MalformedStream("deletion in insertion-only stream")
                if key not in live:
                    raise DeleteAbsent(f"edge ({a},{b}) deleted but absent")
                live.remove(key)
            append(make(a, b, sign))
        except StreamError as exc:
            raise type(exc)(f"line {len(updates) + 2}: {exc}") from None
        except (ValueError, KeyError):
            raise MalformedStream(f"line {len(updates) + 2}: bad update line "
                                  f"{line.rstrip()!r}") from None
    return updates, header


def parse_stream_text(text: str) -> tuple[list, StreamHeader]:
    return _parse_lines(io.StringIO(text, newline="\n"))


def parse_stream(path) -> tuple[list, StreamHeader]:
    """Updates (StreamUpdates, or GeneralUpdates if the header has no `m=`)
    and the header of a stream file, read line by line."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return _parse_lines(fh)
