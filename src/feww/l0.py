"""l0 samplers: uniform draws from the surviving coordinates of a stream.

An l0 sampler summarises an insert/delete stream over coordinates
[0, dim) and, on request, returns a (near-)uniform random element of the
set of coordinates with non-zero net count, surviving any number of
deletions. Construction: geometric subsampling by a pairwise-independent
hash into levels 0..L-1 (L = ceil(log2 dim) + 1, level j keeps a 2**-j
fraction), each level a one-sparse recovery cell (count; index, the XOR
of the coordinates with odd net count; fingerprint sum_c x_c * z**c in
the field of the Mersenne prime p = 2**61 - 1), the whole structure
repeated ceil(ln(1/delta)) times with fresh hashes. Sampling scans levels
from sparsest down and accepts the first cell with count 1 whose index s
is below dim and whose fingerprint equals z**s. A cell that is not a true
singleton verifies only if z is a root of the non-zero polynomial
sum_c x_c * z**c - z**s of degree below dim, so false recovery has
probability at most dim/p <= 2**-30 per cell for every accepted
dim < 2**31 - 1. Any index function the fingerprint test can check will
do (Cormode & Firmani, 2014); the XOR of coordinates below 2**31 - 1
fits 32 bits and cannot overflow.

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
    ha = rng.integers(1, LEVEL_HASH_PRIME, size=kr, dtype=np.int64).astype(np.int32)
    hb = rng.integers(0, LEVEL_HASH_PRIME, size=kr, dtype=np.int64).astype(np.int32)
    z = rng.integers(2, FIELD_PRIME, size=reps, dtype=np.int64)
    return levels, reps, ha, hb, [int(v) for v in z]


def _trailing_zeros(h: int, cap: int) -> int:
    if h == 0:
        return cap
    return min((h & -h).bit_length() - 1, cap)


def _verifies(cell: tuple, z: int, dim: int) -> bool:
    """One-sparse test of a (count, index, fingerprint) cell."""
    count, s, fp = cell
    return count == 1 and s < dim and fp == pow(z, s, FIELD_PRIME)


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
        self._xor = [[0] * self.levels for _ in range(self.reps)]
        self._fp = [[0] * self.levels for _ in range(self.reps)]

    def update(self, coordinate: int, delta: int) -> None:
        """Apply one +1/-1 change to a coordinate's net count."""
        _check_update(self.dim, coordinate, delta)
        cap = self.levels - 1
        for r in range(self.reps):
            h = (self._ha[r] * coordinate + self._hb[r]) % LEVEL_HASH_PRIME
            top = _trailing_zeros(h, cap)
            zc = pow(self._z[r], coordinate, FIELD_PRIME)
            crow, xrow, frow = self._count[r], self._xor[r], self._fp[r]
            for j in range(top + 1):
                crow[j] += delta
                xrow[j] ^= coordinate
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
                out._xor[r][j] = self._xor[r][j] ^ other._xor[r][j]
                out._fp[r][j] = (self._fp[r][j] + other._fp[r][j]) % FIELD_PRIME
        return out

    def cells(self) -> tuple:
        """Cell contents as nested tuples (count, index, fingerprint)."""
        return tuple(
            tuple((self._count[r][j], self._xor[r][j], self._fp[r][j])
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

# Rows per block of the draw's suffix-count scan; bounds its temporaries.
DRAW_BLOCK_ROWS = 1 << 16


class SamplerBank:
    """`count` independent l0 samplers over one coordinate space.

    Cell state is stored as point histograms over the level of each
    update's hash (one touched row per sampler-repetition per update);
    the per-level prefix-admission cells are suffix sums (suffix XORs for
    the index cell) recovered at draw time. The index cell is the XOR of
    the admitted coordinates with odd net count, held in `int32` because
    coordinates are below 2**31 - 1; the false-recovery bound stays
    dim/p per cell. Updates are buffered as one non-zero net delta per
    coordinate whose count changed since the bank was last read, so the
    buffer is O(support), not O(stream), and applied when the bank is next
    read, which keeps a stream update cheap even with tens of thousands of
    samplers in the bank.
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
        self._hist_xor = np.zeros((kr, self.levels), dtype=np.int32)
        self._hist_fp = np.zeros((kr, self.levels), dtype=np.int64)
        self._cnt_flat = self._hist_count.reshape(-1)
        self._xor_flat = self._hist_xor.reshape(-1)
        self._fp_flat = self._hist_fp.reshape(-1)
        # coordinate -> net delta, never 0.
        self._pending: dict[int, int] = {}

    def cell_count(self) -> int:
        return self.count * self.reps * self.levels * 3

    def update(self, coordinate: int, delta: int) -> None:
        _check_update(self.dim, coordinate, delta)
        # Same-coordinate updates hit the same cells with the same
        # fingerprint term, so keeping only the net delta is exact.
        net = self._pending.pop(coordinate, 0) + delta
        if net:
            self._pending[coordinate] = net

    def _flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        kr = self._row_base.size
        h = np.empty(kr, dtype=np.int64)
        idx = np.empty(kr, dtype=np.int64)
        cell = np.empty(kr, dtype=np.int64)
        cell32 = np.empty(kr, dtype=np.int32)
        # `cell` by (sampler, repetition): rows are sampler-major, so one
        # fingerprint term per repetition broadcasts.
        cell_by_rep = cell.reshape(self.count, self.reps)
        cap = self.levels - 1
        for c, d in pending.items():
            # int32 parameters: the product needs an int64 loop.
            np.multiply(self._ha, c, out=h, dtype=np.int64)
            h += self._hb
            h %= LEVEL_HASH_PRIME
            # Trailing zeros of h, capped at the top level; h == 0 counts 64.
            np.negative(h, out=idx)
            idx &= h
            idx -= 1
            np.bitwise_count(idx.view(np.uint64), out=idx)
            np.minimum(idx, cap, out=idx)
            idx += self._row_base
            # idx is in range by construction; "clip" skips the buffered
            # bounds check of take's default mode.
            np.take(self._cnt_flat, idx, out=cell, mode="clip")
            cell += d
            self._cnt_flat[idx] = cell
            if d & 1:
                np.take(self._xor_flat, idx, out=cell32, mode="clip")
                cell32 ^= c
                self._xor_flat[idx] = cell32
            np.take(self._fp_flat, idx, out=cell, mode="clip")
            cell_by_rep += [d * pow(z, c, FIELD_PRIME) % FIELD_PRIME for z in self._z]
            cell %= FIELD_PRIME
            self._fp_flat[idx] = cell

    def merge(self, other: "SamplerBank") -> "SamplerBank":
        if (self.dim, self.count, self.delta, self.seed) != (
            other.dim, other.count, other.delta, other.seed
        ):
            raise ValueError("can only merge banks with identical parameters")
        self._flush()
        other._flush()
        out = SamplerBank(self.dim, self.count, self.delta, self.seed)
        out._hist_count[:] = self._hist_count + other._hist_count
        out._hist_xor[:] = self._hist_xor ^ other._hist_xor
        out._hist_fp[:] = (self._hist_fp + other._hist_fp) % FIELD_PRIME
        return out

    def sampler_cells(self, k: int) -> tuple:
        """Cells of sampler k in L0Sketch.cells() layout (debug/diff aid)."""
        self._flush()
        rows = []
        for r in range(self.reps):
            i = k * self.reps + r
            acc_c = acc_x = acc_f = 0
            cells = [None] * self.levels
            for j in range(self.levels - 1, -1, -1):
                acc_c += int(self._hist_count[i, j])
                acc_x ^= int(self._hist_xor[i, j])
                acc_f = (acc_f + int(self._hist_fp[i, j])) % FIELD_PRIME
                cells[j] = (acc_c, acc_x, acc_f)
            rows.append(tuple(cells))
        return tuple(rows)

    def _scan_one(self, k: int) -> int:
        """Full ordered rescan of sampler k, verifying every singleton."""
        s = _scan(self.sampler_cells(k), self._z, self.dim)
        return FAILED if s is None else s

    def _winners(self) -> tuple[np.ndarray, np.ndarray]:
        """Per sampler: the winning repetition and its sparsest singleton
        level (-1 if none). Scans blocks of whole samplers, so the
        temporaries stay block-sized."""
        levels, reps = self.levels, self.reps
        win_rep = np.empty(self.count, dtype=np.int64)
        win_lev = np.empty(self.count, dtype=np.int64)
        step = max(1, DRAW_BLOCK_ROWS // reps)
        counts_buf = np.empty((min(step, self.count) * reps, levels), dtype=np.int64)
        singleton_buf = np.empty(counts_buf.shape, dtype=bool)
        for k0 in range(0, self.count, step):
            k1 = min(k0 + step, self.count)
            n = (k1 - k0) * reps
            # Suffix sums of the count cells, sparsest level in column 0.
            counts = np.cumsum(self._hist_count[k0 * reps:k1 * reps, ::-1], axis=1,
                               out=counts_buf[:n])
            singleton = np.equal(counts, 1, out=singleton_buf[:n])
            first = np.argmax(singleton, axis=1)
            lev = np.where(singleton.any(axis=1), levels - 1 - first, -1)
            lev = lev.reshape(k1 - k0, reps)
            # Priority: sparsest singleton level first, then lowest
            # repetition index; a row without a singleton scores <= 0.
            wr = np.argmax((lev + 1) * reps - np.arange(reps), axis=1)
            win_rep[k0:k1] = wr
            win_lev[k0:k1] = lev[np.arange(k1 - k0), wr]
        return win_rep, win_lev

    def draw_all(self) -> np.ndarray:
        """One draw per sampler: a coordinate, EMPTY, or FAILED."""
        self._flush()
        # Level 0 admits every coordinate, so every row holds the same
        # level-0 count: the net count of the whole stream.
        support = int(self._hist_count[0].sum())
        if support <= 0:
            return np.full(self.count, EMPTY if support == 0 else FAILED, dtype=np.int64)
        win_rep, win_lev = self._winners()
        out = np.full(self.count, FAILED, dtype=np.int64)
        cand = np.nonzero(win_lev >= 0)[0]
        # Index and fingerprint only at each candidate's winning cell.
        crows, clev = cand * self.reps + win_rep[cand], win_lev[cand]
        xors = np.zeros(cand.size, dtype=np.int32)
        fps = np.zeros(cand.size, dtype=np.int64)
        for j in range(self.levels):
            above = clev <= j
            xors ^= np.where(above, self._hist_xor[crows, j], 0)
            fps += np.where(above, self._hist_fp[crows, j], 0)
            fps %= FIELD_PRIME
        for k, s, fp, r in zip(cand.tolist(), xors.tolist(), fps.tolist(),
                               win_rep[cand].tolist()):
            if _verifies((1, s, fp), self._z[r], self.dim):
                out[k] = s
            else:
                # A top-priority cell that failed verification does not
                # end the scan: fall back to a full ordered rescan.
                out[k] = self._scan_one(k)
        return out
