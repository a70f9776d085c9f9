"""Star detection in general graphs via doubling and threshold guesses.

A general graph G = (V, E) on [n] is mapped to its bipartite double
H = (V, V, E') by emitting, for every edge uv, the two updates (A:u, B:v)
and (A:v, B:u); the A-side degree of v in H equals deg_G(v). A geometric
grid of threshold guesses {floor((1+eps)**i)} then covers the unknown
maximum degree up to a 1+eps factor, one witness search runs per guess,
and the successful run with the largest guess wins: if the largest guess
D' <= max degree succeeds, it certifies at least D'/alpha >= Delta /
(alpha*(1+eps)) true neighbours.

General-graph stream files are the `feww.core` format with no `m=` in
the header; `write_general_stream` writes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import (
    MODE_INSERTION_DELETION,
    MODE_INSERTION_ONLY,
    GeneralUpdate,
    Neighbourhood,
    Sign,
    StreamUpdate,
    write_stream,
)
from .errors import SelfLoop
from .insertion_deletion import InsDelConfig, run_insertion_deletion
from .insertion_only import InsertionOnlyConfig, run_insertion_only
from .seeds import derive


class Mode(Enum):
    INSERTION_ONLY = MODE_INSERTION_ONLY
    INSERTION_DELETION = MODE_INSERTION_DELETION


def double_edge(u: int, v: int, sign: Sign = Sign.INSERT) -> tuple[StreamUpdate, StreamUpdate]:
    """The two bipartite updates an undirected edge contributes to the double."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return StreamUpdate(u, v, sign), StreamUpdate(v, u, sign)


def double_stream(updates: Iterable[GeneralUpdate]) -> list[StreamUpdate]:
    doubled: list[StreamUpdate] = []
    for gu in updates:
        first, second = double_edge(gu.u, gu.v, gu.sign)
        doubled.append(first)
        doubled.append(second)
    return doubled


@dataclass(frozen=True)
class StarConfig:
    n: int
    epsilon: float
    alpha: int
    mode: Mode
    seed: int
    delta: Optional[float] = None  # forwarded to the insertion-deletion engine

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")

    def guess_grid(self) -> tuple[int, ...]:
        """Ascending deduplicated {floor((1+eps)**i)} for i = 0..ceil(log_{1+eps} n)."""
        if self.n == 1:
            return (1,)
        top = math.ceil(math.log(self.n) / math.log(1.0 + self.epsilon))
        values = {int(math.floor((1.0 + self.epsilon) ** i)) for i in range(top + 1)}
        return tuple(sorted(values))


class StarRun:
    def __init__(self, config: StarConfig, result: Optional[Neighbourhood],
                 winning_guess: Optional[int], per_guess: dict[int, Optional[Neighbourhood]],
                 stored_edges: int, sketch_cells: int):
        self.config = config
        self.result = result
        self.winning_guess = winning_guess
        self.per_guess = per_guess
        self.stored_edges = stored_edges
        self.sketch_cells = sketch_cells


def run_star_detection(config: StarConfig,
                       updates: Iterable[GeneralUpdate]) -> StarRun:
    """One witness search per grid guess on the doubled stream; the
    successful run with the largest guess wins."""
    doubled = double_stream(updates)
    per_guess: dict[int, Optional[Neighbourhood]] = {}
    stored_edges = 0
    sketch_cells = 0
    for gi, guess in enumerate(config.guess_grid()):
        run_seed = derive(config.seed, 3, gi)
        if config.mode is Mode.INSERTION_ONLY:
            run = run_insertion_only(
                InsertionOnlyConfig(n=config.n, d=guess, alpha=config.alpha, seed=run_seed),
                doubled,
            )
            per_guess[guess] = run.result
            stored_edges += run.space_report().stored_edges
        else:
            run = run_insertion_deletion(
                InsDelConfig(n=config.n, m=config.n, d=guess, alpha=config.alpha,
                             seed=run_seed, delta=config.delta),
                doubled,
            )
            per_guess[guess] = run.result
            sketch_cells += run.sketch_cells
    result = None
    winning = None
    for guess in sorted(per_guess, reverse=True):
        if per_guess[guess] is not None:
            result, winning = per_guess[guess], guess
            break
    return StarRun(config, result, winning, per_guess, stored_edges, sketch_cells)


def semi_streaming_preset(n: int, mode: Mode, seed: int = 0) -> StarConfig:
    """Space-frugal defaults: alpha = ceil(log2 n) insertion-only,
    alpha = ceil(sqrt(n)) insertion-deletion, epsilon = 1."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if mode is Mode.INSERTION_ONLY:
        alpha = max(1, math.ceil(math.log2(n)))
    else:
        root = math.isqrt(n)
        alpha = root if root * root == n else root + 1
    return StarConfig(n=n, epsilon=1.0, alpha=alpha, mode=mode, seed=seed)


def write_general_stream(updates: Iterable[GeneralUpdate], n: int, mode: Mode, path) -> None:
    write_stream(updates, n, None, mode.value, path)
