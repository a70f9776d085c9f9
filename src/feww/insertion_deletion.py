"""Witness search over insertion-deletion streams via l0 sampler pools.

Two sampling strategies run side by side and their draws are pooled:

* Vertex sampling: before the stream, draw a uniform subset A' of the
  A-side of size min(n, ceil(10*x*ln n)) where x = max(ceil(n/alpha),
  ceil(sqrt(n))); give every sampled vertex ceil(10*(d/alpha)*ln n)
  l0 samplers restricted to its own m potential edges. Succeeds when the
  graph has many vertices of degree >= d/alpha.
* Edge sampling: ceil(10*(n*d/alpha)*(1/x + 1/alpha)*ln(n*m)) l0 samplers
  over the full n*m edge-coordinate space. Succeeds when the graph is
  sparse enough that a maximum-degree vertex owns a fair share of edges.

After the stream, every sampler is drawn once, failed samplers contribute
nothing (`InsDelRun.failed_draws` counts them), draws are pooled per
center with duplicates removed, and any center holding at least
ceil(d/alpha) distinct witnesses is returned (smallest index first). Only the final vector matters to the linear
sketches, so deletions anywhere in the stream are free.

Per-vertex samplers index coordinates as b-1 over [0, m); edge samplers
index (a-1)*m + (b-1) over [0, n*m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import Neighbourhood, Sign, StreamUpdate
from .errors import MalformedStream, ParameterOrderViolation
from .l0 import FAILED, SamplerBank, levels_for, repetitions_for
from .seeds import derive


def default_delta(n: int, d: int) -> float:
    """Per-sampler failure probability making a union bound over the whole
    pool comfortable: 1 / (n**10 * d)."""
    return 1.0 / (float(n) ** 10 * d)


@dataclass(frozen=True)
class InsDelConfig:
    n: int
    m: int
    d: int
    alpha: int
    seed: int
    delta: Optional[float] = None

    def __post_init__(self):
        if min(self.n, self.m, self.d, self.alpha) < 1:
            raise ValueError("n, m, d, alpha must all be >= 1")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta={self.delta} outside (0, 1)")

    @property
    def sampler_delta(self) -> float:
        return self.delta if self.delta is not None else default_delta(self.n, self.d)

    @property
    def x(self) -> int:
        """max(ceil(n/alpha), ceil(sqrt(n)))."""
        root = math.isqrt(self.n)
        if root * root < self.n:
            root += 1
        return max(-(-self.n // self.alpha), root)

    @property
    def vertex_sample_size(self) -> int:
        """|A'|: min(n, ceil(10 * x * ln n))."""
        if self.n == 1:
            return 1
        return min(self.n, math.ceil(10 * self.x * math.log(self.n)))

    @property
    def samplers_per_vertex(self) -> int:
        """ceil(10 * (d/alpha) * ln n)."""
        return max(1, math.ceil(10 * (self.d / self.alpha) * math.log(max(2, self.n))))

    @property
    def edge_samplers(self) -> int:
        """ceil(10 * (n*d/alpha) * (1/x + 1/alpha) * ln(n*m))."""
        return max(1, math.ceil(
            10 * (self.n * self.d / self.alpha)
            * (1.0 / self.x + 1.0 / self.alpha)
            * math.log(self.n * self.m)
        ))

    @property
    def witness_target(self) -> int:
        return -(-self.d // self.alpha)

    @property
    def sketch_cells(self) -> int:
        """Closed-form total cell count for this configuration."""
        reps = repetitions_for(self.sampler_delta)
        vertex_cells = reps * levels_for(self.m) * 3
        edge_cells = reps * levels_for(self.n * self.m) * 3
        return (self.vertex_sample_size * self.samplers_per_vertex * vertex_cells
                + self.edge_samplers * edge_cells)


class InsDelRun:
    """Outcome of one insertion-deletion execution.

    `failed_draws` counts the samplers, over all banks, whose draw found no
    verified cell (the event each sampler's delta bounds)."""

    def __init__(self, config: InsDelConfig, result: Optional[Neighbourhood],
                 sampled_vertices: tuple[int, ...], pooled: dict[int, set[int]],
                 sketch_cells: int, failed_draws: int):
        self.config = config
        self.result = result
        self.sampled_vertices = sampled_vertices
        self.pooled = pooled
        self.sketch_cells = sketch_cells
        self.failed_draws = failed_draws

    @property
    def sampler_counts(self) -> tuple[int, int, int]:
        cfg = self.config
        return (cfg.vertex_sample_size, cfg.samplers_per_vertex, cfg.edge_samplers)


def run_insertion_deletion(config: InsDelConfig,
                           updates: Iterable[StreamUpdate]) -> InsDelRun:
    n, m = config.n, config.m
    delta = config.sampler_delta
    rng = np.random.default_rng(derive(config.seed, 0))
    sampled = tuple(sorted(int(v) + 1 for v in
                           rng.choice(n, size=config.vertex_sample_size, replace=False)))
    vertex_banks = {
        a: SamplerBank(m, config.samplers_per_vertex, delta, derive(config.seed, 1, a))
        for a in sampled
    }
    edge_bank = SamplerBank(n * m, config.edge_samplers, delta, derive(config.seed, 2))

    for u in updates:
        if not 1 <= u.a <= n:
            raise MalformedStream(f"A-index {u.a} outside [1, {n}]")
        if not 1 <= u.b <= m:
            raise MalformedStream(f"B-index {u.b} outside [1, {m}]")
        sign = 1 if u.sign is Sign.INSERT else -1
        bank = vertex_banks.get(u.a)
        if bank is not None:
            bank.update(u.b - 1, sign)
        edge_bank.update((u.a - 1) * m + (u.b - 1), sign)

    pooled: dict[int, set[int]] = {}
    failed = 0
    for a, bank in vertex_banks.items():
        draws = bank.draw_all()
        failed += int(np.count_nonzero(draws == FAILED))
        good = draws[draws >= 0]
        if good.size:
            pooled.setdefault(a, set()).update(int(b) + 1 for b in good)
    edge_draws = edge_bank.draw_all()
    failed += int(np.count_nonzero(edge_draws == FAILED))
    for coord in edge_draws[edge_draws >= 0]:
        a, b0 = divmod(int(coord), m)
        pooled.setdefault(a + 1, set()).add(b0 + 1)

    target = config.witness_target
    result = None
    for a in sorted(pooled):
        if len(pooled[a]) >= target:
            result = Neighbourhood(a, tuple(sorted(pooled[a])))
            break

    cells = sum(b.cell_count() for b in vertex_banks.values()) + edge_bank.cell_count()
    return InsDelRun(config, result, sampled, pooled, cells, failed)


def validate_sampling_lemma(n: int, k: int, y: int, c: int, trials: int,
                            seed: int = 0) -> float:
    """Monte Carlo estimate of the hit-coverage guarantee.

    Per trial, draw ceil(c * ln(n) * n * y / k) uniform samples with
    repetition from [n] and count the trial a success when at least y
    distinct members of a fixed k-subset were hit. Returns the success
    fraction, to compare against 1 - 1/n**(c-3).
    """
    if not (1 <= y <= k <= n):
        raise ParameterOrderViolation(f"need 1 <= y <= k <= n, got y={y} k={k} n={n}")
    if c < 4:
        raise ParameterOrderViolation(f"need c >= 4, got {c}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draws = math.ceil(c * math.log(n) * n * y / k)
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(trials):
        samples = rng.integers(1, n + 1, size=draws)
        hits = np.unique(samples[samples <= k]).size
        if hits >= y:
            successes += 1
    return successes / trials
