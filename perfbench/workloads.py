"""Benchmark workloads: stream files made from a seed, and the CLI search
each operation runs on them.

A workload is one or more instances. An instance is a stream file plus
the `feww` command line that searches it; operations differ only in the
search `--seed`. Streams are written before any timing starts, and the
oracle graph of each stream is replayed once, here, for the checks.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from feww.core import (
    MODE_INSERTION_DELETION,
    MODE_INSERTION_ONLY,
    ExactGraph,
    Sign,
    StreamUpdate,
    replay,
    write_stream,
)
from feww.generators import gen_general_star, gen_planted_star
from feww.stars import Mode, write_general_stream


@dataclass
class Instance:
    """One stream file and the search that runs on it."""

    name: str
    command: str  # feww-ins | feww-del | star
    path: Path
    params: dict  # CLI flags other than --seed and --stream
    updates: list[StreamUpdate]  # bipartite form (doubled for star)
    graph: ExactGraph = field(repr=False)
    threshold: int  # witnesses a sound certificate must carry
    cancelled_share: float = field(init=False)

    def __post_init__(self):
        # Share of updates whose coordinate nets to zero over the stream.
        live = {a: self.graph.neighbours(a) for a in {u.a for u in self.updates}}
        cancelled = sum(1 for u in self.updates if u.b not in live[u.a])
        self.cancelled_share = cancelled / len(self.updates)

    def argv(self, search_seed: int) -> list[str]:
        args = [self.command]
        for key, value in self.params.items():
            args += [f"--{key}", str(value)]
        return args + ["--seed", str(search_seed), "--stream", str(self.path)]


# Sizes per workload. `tiny` is the self-test scale: same shapes, seconds
# of work in total.
SIZES = {
    "full": {
        "ins-planted": dict(n=20000, m=20000, d=2000, background=10, alpha=8),
        "del-regimes": dict(),
        "del-churn": dict(n=128, m=256, d=32, alpha=4, delta=1e-6,
                          background=128, window=64, churn=59920),
        "star-ins": dict(n=2000, d=200, background=20000, alpha=11, epsilon=1),
    },
    "tiny": {
        "ins-planted": dict(n=200, m=200, d=40, background=3, alpha=4),
        "del-regimes": dict(),
        "del-churn": dict(n=16, m=16, d=8, alpha=2, delta=0.01,
                          background=8, window=8, churn=300),
        "star-ins": dict(n=100, d=30, background=200, alpha=4, epsilon=1),
    },
}

WORKLOADS = tuple(SIZES["full"])


def churn_stream(n: int, m: int, d: int, background: int, window: int,
                 churn: int, seed: int) -> list[StreamUpdate]:
    """Insert/delete churn around a small surviving graph.

    The survivors are a hub of degree exactly d and `background` edges on
    other A-vertices; they are inserted at random points of the stream and
    never deleted. `churn` further edges are inserted one by one; each is
    deleted once `window` newer ones are live, and the last `window` are
    deleted at the end, so every churn coordinate nets to zero. The stream
    has exactly d + background + 2 * churn updates whatever the seed.
    """
    rng = random.Random(seed)
    hub = rng.randint(1, n)
    survivors = {(hub, b) for b in rng.sample(range(1, m + 1), d)}
    while len(survivors) < d + background:
        a = rng.randint(1, n)
        if a != hub:
            survivors.add((a, rng.randint(1, m)))
    order = sorted(survivors)
    rng.shuffle(order)
    due = sorted(rng.sample(range(churn), len(order)))
    live: deque = deque()
    live_set: set = set()
    out: list[StreamUpdate] = []
    k = 0
    for t in range(churn):
        while True:
            e = (rng.randint(1, n), rng.randint(1, m))
            if e not in survivors and e not in live_set:
                break
        out.append(StreamUpdate(*e))
        live.append(e)
        live_set.add(e)
        if len(live) > window:
            old = live.popleft()
            live_set.remove(old)
            out.append(StreamUpdate(*old, Sign.DELETE))
        while k < len(order) and due[k] == t:
            out.append(StreamUpdate(*order[k]))
            k += 1
    while live:
        out.append(StreamUpdate(*live.popleft(), Sign.DELETE))
    return out


def regime_stream(dense: bool) -> list[StreamUpdate]:
    """The two fixed insertion-deletion instances of acceptance criterion 5
    (n=100, m=32): dense has four vertices at degree >= d/alpha plus
    deletion churn, sparse exactly one heavy vertex."""
    if dense:
        updates = [StreamUpdate(5, b) for b in range(1, 33)]
        for a in (10, 20, 30):
            updates += [StreamUpdate(a, b) for b in range(1, 9)]
        churn = [(50 + i, 1 + (i % 32)) for i in range(16)]
    else:
        updates = [StreamUpdate(42, b) for b in range(1, 33)]
        churn = [(70 + i, 1 + (i % 32)) for i in range(8)]
    updates += [StreamUpdate(a, b) for a, b in churn]
    updates += [StreamUpdate(a, b, Sign.DELETE) for a, b in churn]
    return updates


def _bipartite(name, command, path, params, updates, n, m, mode) -> Instance:
    write_stream(updates, n, m, mode, path)
    threshold = -(-params["d"] // params["alpha"])
    return Instance(name, command, path, params, updates, replay(updates, n, m),
                    threshold)


def build(workload: str, stream_seed: int, out_dir: Path,
          size: str = "full") -> list[Instance]:
    """Write the workload's stream files under out_dir and return its
    instances, oracle graphs replayed."""
    p = SIZES[size][workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "ins-planted":
        updates = gen_planted_star(p["n"], p["m"], p["d"], p["background"], stream_seed)
        params = dict(n=p["n"], m=p["m"], d=p["d"], alpha=p["alpha"])
        return [_bipartite("planted", "feww-ins", out_dir / "ins-planted.txt", params,
                           updates, p["n"], p["m"], MODE_INSERTION_ONLY)]
    if workload == "del-regimes":
        params = dict(n=100, m=32, d=32, alpha=4, delta=1e-6)
        return [_bipartite(name, "feww-del", out_dir / f"del-{name}.txt", params,
                           regime_stream(name == "dense"), 100, 32,
                           MODE_INSERTION_DELETION)
                for name in ("dense", "sparse")]
    if workload == "del-churn":
        updates = churn_stream(p["n"], p["m"], p["d"], p["background"], p["window"],
                               p["churn"], stream_seed)
        params = dict(n=p["n"], m=p["m"], d=p["d"], alpha=p["alpha"], delta=p["delta"])
        return [_bipartite("churn", "feww-del", out_dir / "del-churn.txt", params,
                           updates, p["n"], p["m"], MODE_INSERTION_DELETION)]
    if workload == "star-ins":
        n = p["n"]
        general = gen_general_star(n, p["d"], stream_seed, background_edges=p["background"])
        path = out_dir / "star-ins.txt"
        write_general_stream(general, n, Mode.INSERTION_ONLY, path)
        # The oracle doubles the graph itself rather than trusting the
        # program's doubling.
        doubled = [x for g in general
                   for x in (StreamUpdate(g.u, g.v, g.sign), StreamUpdate(g.v, g.u, g.sign))]
        graph = replay(doubled, n, n)
        bound = Fraction(graph.max_degree()) / (p["alpha"] * (1 + Fraction(p["epsilon"])))
        params = dict(n=n, alpha=p["alpha"], epsilon=p["epsilon"], mode=MODE_INSERTION_ONLY)
        return [Instance("star", "star", path, params, doubled, graph, math.ceil(bound))]
    raise ValueError(f"unknown workload {workload!r}")
