"""Instance generators: planted positives and communication-style hard cases.

All generators are pure functions of their parameters and seed, and every
emitted stream obeys simple-graph discipline (multiplicities stay in
{0, 1} at all prefixes), so they can be replayed through the exact oracle
without errors.

Families:

* planted star — one hidden heavy A-vertex of degree d, everything else
  at a low background degree; the standard positive instance.
* set-disjointness graphs — p party edge sets over a shared A-universe
  whose maximum degree is exactly k (pairwise disjoint sets) or exactly
  k*p (sets sharing one planted element), so any witness set of size
  >= k+1 separates the branches.
* bit-vector-learning graphs — nested index sets X_1 ⊇ ... ⊇ X_p with
  k-bit strings per held index; party i encodes bit j of its string for
  index l as the single edge (l, 2k(i-1) + 2(j-1) + bit + 1). A witness
  neighbourhood of the heavy vertex decodes back into bits of the
  concatenated string.
* augmented-matrix-row-index streams — Alice inserts the 1-entries of a
  per-row-permuted n x m binary matrix (m = 2d), Bob deletes his known
  positions in every row except a hidden target row J, which ends up as
  the only row with >= d surviving ones while all others keep at most
  d/alpha - 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .core import GeneralUpdate, Neighbourhood, Sign, StreamUpdate
from .errors import ColumnOutOfRange, ParameterOrderViolation


# ---------------------------------------------------------------------------
# Planted stars
# ---------------------------------------------------------------------------

def gen_planted_star(n: int, m: int, d: int, background_degree: int,
                     seed: int) -> list[StreamUpdate]:
    """One uniformly chosen A-vertex with d distinct random neighbours; all
    other A-vertices at `background_degree`. Updates uniformly shuffled."""
    if not 1 <= d <= m:
        raise ParameterOrderViolation(f"need 1 <= d <= m, got d={d} m={m}")
    if not 0 <= background_degree < d:
        raise ParameterOrderViolation(
            f"need 0 <= background_degree < d, got {background_degree}"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    center = rng.randint(1, n)
    updates = [StreamUpdate(center, b) for b in rng.sample(range(1, m + 1), d)]
    for a in range(1, n + 1):
        if a == center:
            continue
        for b in rng.sample(range(1, m + 1), background_degree):
            updates.append(StreamUpdate(a, b))
    rng.shuffle(updates)
    return updates


def gen_general_star(n: int, d: int, seed: int,
                     background_edges: int = 0) -> list[GeneralUpdate]:
    """A star K_{1,d} planted among n vertices of a general graph, plus
    optional scattered background edges avoiding the hub."""
    if not 1 <= d <= n - 1:
        raise ParameterOrderViolation(f"need 1 <= d <= n-1, got d={d} n={n}")
    rng = random.Random(seed)
    hub = rng.randint(1, n)
    others = [v for v in range(1, n + 1) if v != hub]
    leaves = rng.sample(others, d)
    updates = [GeneralUpdate(hub, v) for v in leaves]
    seen = set()
    attempts = 0
    while len(seen) < background_edges and attempts < 50 * (background_edges + 1):
        attempts += 1
        u, v = rng.sample(others, 2)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            updates.append(GeneralUpdate(key[0], key[1]))
    rng.shuffle(updates)
    return updates


# ---------------------------------------------------------------------------
# Set-disjointness graphs
# ---------------------------------------------------------------------------

def gen_set_disjointness(p: int, k: int, universe_n: int, intersecting: bool,
                         seed: int) -> list[list[StreamUpdate]]:
    """Per-party edge streams over A = [universe_n], B = [k*p].

    Party i holds a set S_i of A-elements and connects each of them to its
    private column block (i-1)*k+1 .. i*k. Sets are pairwise disjoint, or
    share exactly one planted element; elsewhere they stay disjoint so the
    maximum degree is exactly k or exactly k*p.
    """
    if p < 2 or k < 1:
        raise ParameterOrderViolation(f"need p >= 2 and k >= 1, got p={p} k={k}")
    rng = random.Random(seed)
    per_party = max(1, universe_n // (2 * p))
    needed = p * per_party if not intersecting else 1 + p * (per_party - 1)
    if needed > universe_n:
        raise ParameterOrderViolation(
            f"universe of {universe_n} too small for {p} sets of {per_party}"
        )
    pool = rng.sample(range(1, universe_n + 1), needed)
    streams: list[list[StreamUpdate]] = []
    if intersecting:
        shared = pool[0]
        rest = pool[1:]
        sets = [
            [shared] + rest[i * (per_party - 1):(i + 1) * (per_party - 1)]
            for i in range(p)
        ]
    else:
        sets = [pool[i * per_party:(i + 1) * per_party] for i in range(p)]
    for i, members in enumerate(sets):
        cols = range(i * k + 1, (i + 1) * k + 1)
        edges = [StreamUpdate(u, b) for u in members for b in cols]
        rng.shuffle(edges)
        streams.append(edges)
    return streams


# ---------------------------------------------------------------------------
# Bit-vector-learning graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BVLInstance:
    """Nested index sets with per-party bit strings.

    `index_sets[i-1]` is X_i with |X_i| = n**(1-(i-1)/(p-1)); X_1 = [n]
    and each X_i is a subset of X_{i-1}. `strings[i-1]` maps j in X_i to a
    k-character '0'/'1' string.
    """

    p: int
    n: int
    k: int
    index_sets: tuple[frozenset[int], ...]
    strings: tuple[dict[int, str], ...]

    def __post_init__(self):
        if len(self.index_sets) != self.p or len(self.strings) != self.p:
            raise ValueError("need one index set and one string table per party")
        if self.index_sets[0] != frozenset(range(1, self.n + 1)):
            raise ValueError("X_1 must be the full index universe")
        for i in range(1, self.p):
            if not self.index_sets[i] <= self.index_sets[i - 1]:
                raise ValueError(f"X_{i + 1} is not nested in X_{i}")
        for i in range(self.p):
            if set(self.strings[i]) != set(self.index_sets[i]):
                raise ValueError(f"party {i + 1} strings do not match X_{i + 1}")
            for s in self.strings[i].values():
                if len(s) != self.k or set(s) - {"0", "1"}:
                    raise ValueError(f"bad bit string {s!r}")

    @property
    def columns(self) -> int:
        return 2 * self.k * self.p

    def holders(self, j: int) -> int:
        """Number of parties holding index j (they are parties 1..holders)."""
        return sum(1 for xs in self.index_sets if j in xs)

    def concatenated(self, j: int) -> str:
        """Z^j: the concatenation of all non-empty strings for index j."""
        return "".join(self.strings[i].get(j, "") for i in range(self.p))


def gen_bvl_instance(p: int, n: int, k: int, seed: int) -> BVLInstance:
    if p < 2 or k < 1 or n < 1:
        raise ParameterOrderViolation(f"need p >= 2, k >= 1, n >= 1; got p={p} k={k} n={n}")
    ratio = round(n ** (1.0 / (p - 1)))
    if ratio**(p - 1) != n:
        raise ParameterOrderViolation(
            f"n**(1/(p-1)) must be integral, got n={n} p={p}"
        )
    rng = random.Random(seed)
    sets = [list(range(1, n + 1))]
    for i in range(2, p + 1):
        size = n // ratio**(i - 1)
        sets.append(sorted(rng.sample(sets[-1], size)))
    strings = []
    for members in sets:
        strings.append({
            j: format(rng.getrandbits(k), f"0{k}b") for j in sorted(members)
        })
    return BVLInstance(
        p=p, n=n, k=k,
        index_sets=tuple(frozenset(s) for s in sets),
        strings=tuple(strings),
    )


def bvl_reference_instance() -> BVLInstance:
    """The fixed 3-party worked example used throughout the tests
    (n=4, k=5; concatenations Z^2 = 01000, Z^4 = 011110101000011)."""
    return BVLInstance(
        p=3, n=4, k=5,
        index_sets=(
            frozenset({1, 2, 3, 4}),
            frozenset({1, 4}),
            frozenset({4}),
        ),
        strings=(
            {1: "10010", 2: "01000", 3: "01011", 4: "01111"},
            {1: "11011", 4: "01010"},
            {4: "00011"},
        ),
    )


def gen_bvl_graph(inst: BVLInstance) -> list[list[StreamUpdate]]:
    """Party i's edges: (l, 2k(i-1) + 2(j-1) + bit + 1) for l in X_i, j in [k]."""
    streams = []
    k = inst.k
    for i in range(1, inst.p + 1):
        edges = []
        for l in sorted(inst.index_sets[i - 1]):
            bits = inst.strings[i - 1][l]
            for j in range(1, k + 1):
                col = 2 * k * (i - 1) + 2 * (j - 1) + int(bits[j - 1]) + 1
                edges.append(StreamUpdate(l, col))
        streams.append(edges)
    return streams


def decode_bvl_witnesses(nb: Neighbourhood, k: int, p: int) -> tuple[int, list[tuple[int, int]]]:
    """Map witness columns back to (global bit position, bit value) pairs.

    Column c encodes party i = (c-1)//(2k) + 1, in-party position
    j = ((c-1) % (2k))//2 + 1 and bit value (c-1) % 2; the global position
    in the concatenated string is (i-1)*k + j. Distinct genuine witnesses
    decode to distinct positions.
    """
    decoded = {}
    for col in nb.witnesses:
        if not 1 <= col <= 2 * k * p:
            raise ColumnOutOfRange(f"column {col} outside [1, {2 * k * p}]")
        i = (col - 1) // (2 * k) + 1
        j = ((col - 1) % (2 * k)) // 2 + 1
        bit = (col - 1) % 2
        pos = (i - 1) * k + j
        if pos in decoded and decoded[pos] != bit:
            raise ValueError(f"conflicting bit columns for position {pos}")
        decoded[pos] = bit
    return nb.center, sorted(decoded.items())


# ---------------------------------------------------------------------------
# Augmented-matrix-row-index streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AMRIInstance:
    """A binary matrix with one hidden target row and per-row side knowledge.

    `matrix` is n x m binary with m = 2d; `known[i-1]` holds the m-k
    column positions of row i whose values the deleting side knows (None
    for the target row); `perms[i-1]` permutes row i's columns before the
    matrix is streamed; `invert` streams the complement matrix instead
    (set when the target row has fewer than d ones, so the heavy row
    always survives).
    """

    matrix: tuple[tuple[int, ...], ...]
    target_row: int
    known: tuple[Optional[frozenset[int]], ...]
    perms: tuple[tuple[int, ...], ...]
    invert: bool
    k: int

    def __post_init__(self):
        m = self.m
        if m % 2 != 0:
            raise ValueError("matrix width must be even (m = 2d)")
        for row in self.matrix:
            if len(row) != m or set(row) - {0, 1}:
                raise ValueError("matrix must be rectangular and binary")
        if not 1 <= self.target_row <= self.n:
            raise ValueError(f"target row {self.target_row} outside [1, {self.n}]")
        for i, pos in enumerate(self.known, start=1):
            if i == self.target_row:
                if pos is not None:
                    raise ValueError("target row must have no known positions")
            elif pos is None or len(pos) != m - self.k:
                raise ValueError(f"row {i} must expose exactly m-k known positions")
        for perm in self.perms:
            if sorted(perm) != list(range(1, m + 1)):
                raise ValueError("each row permutation must permute [1, m]")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def m(self) -> int:
        return len(self.matrix[0])

    @property
    def d(self) -> int:
        return self.m // 2

    def effective_bit(self, row: int, col: int) -> int:
        bit = self.matrix[row - 1][col - 1]
        return 1 - bit if self.invert else bit

    def permuted_column(self, row: int, col: int) -> int:
        return self.perms[row - 1][col - 1]

    def original_column(self, row: int, permuted_col: int) -> int:
        return self.perms[row - 1].index(permuted_col) + 1


def gen_amri_instance(n: int, d: int, alpha: int, seed: int) -> AMRIInstance:
    """Random instance with m = 2d and k = d/alpha - 1 (alpha must divide d)."""
    if n < 2 or d < 1:
        raise ParameterOrderViolation(f"need n >= 2 and d >= 1, got n={n} d={d}")
    if d % alpha != 0:
        raise ParameterOrderViolation(f"alpha={alpha} must divide d={d}")
    k = d // alpha - 1
    if k < 0:
        raise ParameterOrderViolation(f"d/alpha - 1 must be >= 0, got {k}")
    m = 2 * d
    rng = random.Random(seed)
    matrix = tuple(
        tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)
    )
    target = rng.randint(1, n)
    known = tuple(
        None if i == target else frozenset(rng.sample(range(1, m + 1), m - k))
        for i in range(1, n + 1)
    )
    perms = tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))
    invert = sum(matrix[target - 1]) < d
    return AMRIInstance(matrix=matrix, target_row=target, known=known,
                        perms=perms, invert=invert, k=k)


def with_fresh_permutations(inst: AMRIInstance, seed: int) -> AMRIInstance:
    """Same matrix/target/knowledge, new independent row permutations.

    Repeated replays with fresh permutations expose different surviving
    columns of the target row; `amri_protocol_rounds` says how many
    replays recover the whole row with comfortable probability.
    """
    rng = random.Random(seed)
    perms = tuple(tuple(rng.sample(range(1, inst.m + 1), inst.m)) for _ in range(inst.n))
    return AMRIInstance(matrix=inst.matrix, target_row=inst.target_row,
                        known=inst.known, perms=perms, invert=inst.invert, k=inst.k)


def amri_protocol_rounds(n: int, alpha: int) -> int:
    """ceil(8 * alpha * ln n) independent replays; each surviving 1 of the
    target row is recovered per replay with probability >= 1/(2*alpha)."""
    return math.ceil(8 * alpha * math.log(max(2, n)))


def amri_reference_instance() -> AMRIInstance:
    """Fixed 4 x 6 worked example (d = 3, alpha = 1, k = 2, target row 3).

    Row degrees of the raw matrix are 3, 3, 1, 3; the target row has a
    single 1, so the streamed instance is the inverted matrix.
    """
    matrix = (
        (0, 1, 1, 1, 0, 0),
        (1, 1, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, 1, 0, 1, 0),
    )
    rng = random.Random(20260809)
    known = tuple(
        None if i == 3 else frozenset(rng.sample(range(1, 7), 4))
        for i in range(1, 5)
    )
    identity = tuple(range(1, 7))
    return AMRIInstance(matrix=matrix, target_row=3, known=known,
                        perms=(identity,) * 4, invert=True, k=2)


def amri_matrix_updates(inst: AMRIInstance) -> list[StreamUpdate]:
    """The raw matrix's 1-entries as insertions (row i -> A-vertex i),
    without permutation or inversion; a replay fixture for oracle tests."""
    return [
        StreamUpdate(i, j)
        for i, row in enumerate(inst.matrix, start=1)
        for j, bit in enumerate(row, start=1)
        if bit == 1
    ]


def gen_amri_stream(inst: AMRIInstance, alpha: int) -> list[StreamUpdate]:
    """Insert the permuted (possibly inverted) matrix, then delete the
    known-position entries of every non-target row.

    The final graph keeps all >= d ones of the target row and at most
    d/alpha - 1 ones in every other row.
    """
    if inst.k != inst.d // alpha - 1 or inst.d % alpha != 0:
        raise ParameterOrderViolation(
            f"instance k={inst.k} inconsistent with alpha={alpha} (d={inst.d})"
        )
    inserts = []
    for i in range(1, inst.n + 1):
        for c in range(1, inst.m + 1):
            if inst.effective_bit(i, c) == 1:
                inserts.append(StreamUpdate(i, inst.permuted_column(i, c)))
    deletes = []
    for i in range(1, inst.n + 1):
        if i == inst.target_row:
            continue
        for c in sorted(inst.known[i - 1]):
            if inst.effective_bit(i, c) == 1:
                deletes.append(StreamUpdate(i, inst.permuted_column(i, c), Sign.DELETE))
    return inserts + deletes


def amri_recovered_columns(inst: AMRIInstance, nb: Neighbourhood) -> set[int]:
    """Original-column positions of the target row learnt from a witness set."""
    if nb.center != inst.target_row:
        return set()
    return {inst.original_column(inst.target_row, b) for b in nb.witnesses}
