"""l0 samplers: uniform draws from the surviving coordinates of a stream.

An l0 sampler summarises an insert/delete stream over coordinates
[0, dim) and, on request, returns a (near-)uniform random element of the
set of coordinates with non-zero net count, surviving any number of
deletions. Construction: geometric subsampling by a pairwise-independent
hash into levels 0..L-1 (L = ceil(log2 dim) + 1, level j keeps a 2**-j
fraction), each level a one-sparse recovery cell (count, index-weighted
sum, fingerprint sum_c x_c * z**c in the field of the Mersenne prime
p = 2**61 - 1), the whole structure repeated ceil(ln(1/delta)) times with
fresh hashes. Sampling scans levels from sparsest down and accepts the
first singleton cell whose fingerprint verifies. A cell that is not a
true singleton verifies only if z is a root of a non-zero polynomial of
degree below dim, so false recovery has probability at most
dim/p <= 2**-30 per cell for every accepted dim < 2**31 - 1.

The structures are linear: merging two sketches of disjoint stream parts
cellwise equals sketching the concatenation, exactly.

Two implementations share the same construction, the same field and the
same per-seed hash parameters:

* `L0Sketch` — one sampler, pure-Python cells.
* `SamplerBank` — many independent samplers over one coordinate space,
  cells held column-wise in numpy arrays so one stream update touches
  every sampler in a few vector operations. Fingerprint bases are shared
  per repetition across the bank's samplers (the per-cell false-recovery
  bound is unaffected); subsampling hashes stay per-sampler.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CoordinateOutOfRange, SketchFailure

# Level-hash field: pairwise-independent family h(c) = (a*c + b) mod P.
LEVEL_HASH_PRIME = (1 << 31) - 1

# Fingerprint field. Residues stay below 2**61, so the sum of two fits an
# int64 and the bank reduces once per cell update.
FIELD_PRIME = (1 << 61) - 1

# Sampler verdicts used by SamplerBank.draw_all.
EMPTY = -1
FAILED = -2


def levels_for(dim: int) -> int:
    return max(1, math.ceil(math.log2(dim)) + 1) if dim > 1 else 1


def repetitions_for(delta: float) -> int:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")
    return max(1, math.ceil(math.log(1.0 / delta)))


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim >= LEVEL_HASH_PRIME:
        raise ValueError(f"dim={dim} too large for the level-hash field")


def _check_update(dim: int, coordinate: int, delta: int) -> None:
    if not 0 <= coordinate < dim:
        raise CoordinateOutOfRange(f"coordinate {coordinate} outside [0, {dim})")
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, got {delta}")


def _draw_params(dim: int, delta: float, seed: int, count: int):
    """Hash parameters for `count` samplers; shared between both engines."""
    levels = levels_for(dim)
    reps = repetitions_for(delta)
    rng = np.random.default_rng(seed)
    kr = count * reps
    ha = rng.integers(1, LEVEL_HASH_PRIME, size=kr, dtype=np.int64)
    hb = rng.integers(0, LEVEL_HASH_PRIME, size=kr, dtype=np.int64)
    z = rng.integers(2, FIELD_PRIME, size=reps, dtype=np.int64)
    return levels, reps, ha, hb, [int(v) for v in z]


def _trailing_zeros(h: int, cap: int) -> int:
    if h == 0:
        return cap
    return min((h & -h).bit_length() - 1, cap)


def _verifies(cell: tuple, z: int, dim: int) -> bool:
    """One-sparse test of a (count, sum, fingerprint) cell."""
    count, s, fp = cell
    return count == 1 and 0 <= s < dim and fp == pow(z, s, FIELD_PRIME)


def _scan(cells: tuple, zs: list, dim: int, rng=None) -> Optional[int]:
    """First verified singleton in `cells` (L0Sketch.cells() layout),
    levels from sparsest down, repetitions in order (shuffled per level
    when an rng is supplied); None when no cell verifies."""
    reps, levels = len(cells), len(cells[0])
    order = list(range(reps))
    for j in range(levels - 1, -1, -1):
        if rng is not None:
            rng.shuffle(order)
        for r in order:
            if _verifies(cells[r][j], zs[r], dim):
                return cells[r][j][1]
    return None


class L0Sketch:
    """A single l0 sampler with exact integer cells.

    Updates are sequential; sketches are mergeable values, so streams may
    be sharded, sketched independently and merged.
    """

    def __init__(self, dim: int, delta: float = 0.01, seed: int = 0):
        _check_dim(dim)
        self.dim = dim
        self.delta = delta
        self.seed = seed
        self.levels, self.reps, ha, hb, self._z = _draw_params(dim, delta, seed, 1)
        self._ha = [int(v) for v in ha]
        self._hb = [int(v) for v in hb]
        self._count = [[0] * self.levels for _ in range(self.reps)]
        self._sum = [[0] * self.levels for _ in range(self.reps)]
        self._fp = [[0] * self.levels for _ in range(self.reps)]

    def update(self, coordinate: int, delta: int) -> None:
        """Apply one +1/-1 change to a coordinate's net count."""
        _check_update(self.dim, coordinate, delta)
        cap = self.levels - 1
        for r in range(self.reps):
            h = (self._ha[r] * coordinate + self._hb[r]) % LEVEL_HASH_PRIME
            top = _trailing_zeros(h, cap)
            zc = pow(self._z[r], coordinate, FIELD_PRIME)
            crow, srow, frow = self._count[r], self._sum[r], self._fp[r]
            for j in range(top + 1):
                crow[j] += delta
                srow[j] += delta * coordinate
                frow[j] = (frow[j] + delta * zc) % FIELD_PRIME

    def support_size(self) -> int:
        # Level 0 admits every coordinate, so its count is the support size
        # whenever all net multiplicities are in {0, 1}.
        return self._count[0][0]

    def sample(self, rng=None) -> Optional[int]:
        """A member of the support, None if the support is empty.

        Scans levels from sparsest down, repetitions in order (shuffled
        per level when an rng is supplied), and returns the first
        verified singleton. Raises SketchFailure when no cell verifies;
        this is the rare event counted toward delta.
        """
        if self.support_size() == 0:
            return None
        s = _scan(self.cells(), self._z, self.dim, rng)
        if s is None:
            raise SketchFailure("no level passed one-sparse verification")
        return s

    def merge(self, other: "L0Sketch") -> "L0Sketch":
        """Cellwise combination; equals sketching the concatenated streams."""
        if (self.dim, self.delta, self.seed) != (other.dim, other.delta, other.seed):
            raise ValueError("can only merge sketches with identical parameters")
        out = L0Sketch(self.dim, self.delta, self.seed)
        for r in range(self.reps):
            for j in range(self.levels):
                out._count[r][j] = self._count[r][j] + other._count[r][j]
                out._sum[r][j] = self._sum[r][j] + other._sum[r][j]
                out._fp[r][j] = (self._fp[r][j] + other._fp[r][j]) % FIELD_PRIME
        return out

    def cells(self) -> tuple:
        """Cell contents as nested tuples (count, sum, fingerprint)."""
        return tuple(
            tuple((self._count[r][j], self._sum[r][j], self._fp[r][j])
                  for j in range(self.levels))
            for r in range(self.reps)
        )

    def cell_count(self) -> int:
        return self.reps * self.levels * 3

    def __eq__(self, other) -> bool:
        if not isinstance(other, L0Sketch):
            return NotImplemented
        return (
            (self.dim, self.delta, self.seed) == (other.dim, other.delta, other.seed)
            and self.cells() == other.cells()
        )


# ---------------------------------------------------------------------------
# Vectorized bank
# ---------------------------------------------------------------------------

class SamplerBank:
    """`count` independent l0 samplers over one coordinate space.

    Cell state is stored as point histograms over the level of each
    update's hash (one touched row per sampler-repetition per update);
    the per-level prefix-admission cells are suffix sums recovered at
    draw time. Updates are buffered, collapsed to net changes and applied
    when the bank is next read, which keeps a stream update cheap even
    with tens of thousands of samplers in the bank.
    """

    def __init__(self, dim: int, count: int, delta: float, seed: int):
        _check_dim(dim)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.dim = dim
        self.count = count
        self.delta = delta
        self.seed = seed
        self.levels, self.reps, self._ha, self._hb, self._z = _draw_params(
            dim, delta, seed, count
        )
        kr = count * self.reps
        self._row_base = np.arange(kr, dtype=np.int64) * self.levels
        self._hist_count = np.zeros((kr, self.levels), dtype=np.int64)
        self._hist_sum = np.zeros((kr, self.levels), dtype=np.int64)
        self._hist_fp = np.zeros((kr, self.levels), dtype=np.int64)
        self._cnt_flat = self._hist_count.reshape(-1)
        self._sum_flat = self._hist_sum.reshape(-1)
        self._fp_flat = self._hist_fp.reshape(-1)
        self._pending: list[tuple[int, int]] = []

    def cell_count(self) -> int:
        return self.count * self.reps * self.levels * 3

    def update(self, coordinate: int, delta: int) -> None:
        _check_update(self.dim, coordinate, delta)
        self._pending.append((coordinate, delta))

    def _flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        # Same-coordinate updates hit the same cells with the same
        # fingerprint term, so collapsing to net deltas is exact.
        net: dict[int, int] = {}
        for c, d in pending:
            net[c] = net.get(c, 0) + d
        for c, d in net.items():
            if d != 0:
                self._apply(c, d)

    def _apply(self, coordinate: int, delta: int) -> None:
        h = (self._ha * coordinate + self._hb) % LEVEL_HASH_PRIME
        # Trailing zeros of h, capped at the top level; h == 0 counts 64.
        lev = np.minimum(np.bitwise_count(((h & -h) - 1).view(np.uint64)), self.levels - 1)
        idx = self._row_base + lev
        self._cnt_flat[idx] += delta
        self._sum_flat[idx] += delta * coordinate
        # Rows are sampler-major, so one term per repetition broadcasts.
        terms = [delta * pow(z, coordinate, FIELD_PRIME) % FIELD_PRIME for z in self._z]
        fp = self._fp_flat[idx].reshape(self.count, self.reps)
        fp += np.array(terms, dtype=np.int64)
        fp %= FIELD_PRIME
        self._fp_flat[idx] = fp.reshape(-1)

    def merge(self, other: "SamplerBank") -> "SamplerBank":
        if (self.dim, self.count, self.delta, self.seed) != (
            other.dim, other.count, other.delta, other.seed
        ):
            raise ValueError("can only merge banks with identical parameters")
        self._flush()
        other._flush()
        out = SamplerBank(self.dim, self.count, self.delta, self.seed)
        out._hist_count[:] = self._hist_count + other._hist_count
        out._hist_sum[:] = self._hist_sum + other._hist_sum
        out._hist_fp[:] = (self._hist_fp + other._hist_fp) % FIELD_PRIME
        return out

    def sampler_cells(self, k: int) -> tuple:
        """Cells of sampler k in L0Sketch.cells() layout (debug/diff aid)."""
        self._flush()
        rows = []
        for r in range(self.reps):
            i = k * self.reps + r
            acc_c = acc_s = acc_f = 0
            cells = [None] * self.levels
            for j in range(self.levels - 1, -1, -1):
                acc_c += int(self._hist_count[i, j])
                acc_s += int(self._hist_sum[i, j])
                acc_f = (acc_f + int(self._hist_fp[i, j])) % FIELD_PRIME
                cells[j] = (acc_c, acc_s, acc_f)
            rows.append(tuple(cells))
        return tuple(rows)

    def _scan_one(self, k: int) -> int:
        """Full ordered rescan of sampler k, verifying every singleton."""
        s = _scan(self.sampler_cells(k), self._z, self.dim)
        return FAILED if s is None else s

    def draw_all(self) -> np.ndarray:
        """One draw per sampler: a coordinate, EMPTY, or FAILED."""
        self._flush()
        shape = (self.count, self.reps)
        # Suffix sums of the count cells, sparsest level in column 0.
        counts = np.cumsum(self._hist_count[:, ::-1], axis=1)
        singleton = counts == 1
        first = np.argmax(singleton, axis=1)
        has = singleton.any(axis=1).reshape(shape)
        # Each row's sparsest singleton level; priority: sparsest level
        # first, then lowest repetition index.
        lev = (self.levels - 1 - first).reshape(shape)
        prio = np.where(has, (lev + 1) * self.reps - np.arange(self.reps), 0)
        win_rep = np.argmax(prio, axis=1)
        samplers = np.arange(self.count)
        rows = samplers * self.reps + win_rep
        support = counts[rows, -1]
        out = np.full(self.count, FAILED, dtype=np.int64)
        out[support == 0] = EMPTY
        cand = np.nonzero((support > 0) & has[samplers, win_rep])[0]
        # Sum and fingerprint only at each candidate's winning cell.
        above = np.arange(self.levels) >= lev[cand, win_rep[cand]][:, None]
        sums = np.where(above, self._hist_sum[rows[cand]], 0).sum(axis=1)
        fps = np.where(above, self._hist_fp[rows[cand]], 0).tolist()
        for k, s, fp in zip(cand.tolist(), sums.tolist(), fps):
            r = int(win_rep[k])
            if _verifies((1, s, sum(fp) % FIELD_PRIME), self._z[r], self.dim):
                out[k] = s
            else:
                # A top-priority cell that failed verification does not
                # end the scan: fall back to a full ordered rescan.
                out[k] = self._scan_one(k)
        return out
