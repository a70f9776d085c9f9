"""Per-layer spans recorded from outside the package.

`traced(tracer)` replaces, for the duration of one operation, the names
through which each layer is called with timing wrappers, and restores the
originals afterwards. Each name is wrapped where the caller looks it up
(`feww.cli.run_insertion_only` and `feww.stars.run_insertion_only` are
two separate sites), and `SamplerBank` methods on the class. Per-update
calls (`SamplerBank.update`) are folded into one count-and-total span per
operation; `DegResSampler.offer` is not wrapped, because it runs for every
update of every reservoir run.

A span's self time is its duration minus the time of the spans it
called, so the self times of one operation add up to its `cli` span.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import feww.cli
import feww.stars
from feww.l0 import EMPTY, FAILED, SamplerBank


class Tracer:
    """Spans and counts of one traced operation."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.insdel_runs: list = []  # returned InsDelRun objects, for row counts
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(tracer, args, result)` records counts."""
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._stack.pop()
                self.total[name] += took
                self.self_time[name] += took - frame[0]
                self.counts[name + ".calls"] += 1
                if self._stack:
                    self._stack[-1][0] += took
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def leaf_total(self, name: str, fn):
        """Fold every call of a per-update method into one total."""
        def wrapper(*args):
            start = perf_counter()
            fn(*args)
            took = perf_counter() - start
            self.total[name] += took
            self.self_time[name] += took
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][0] += took
        return wrapper


def _after_parse(tr, args, result):
    tr.counts["core.updates"] += len(result[0])


def _after_insertion_only(tr, args, result):
    tr.counts["insertion_only.updates"] += len(args[1])
    for smp in result.samplers:
        tr.counts["reservoir.candidates"] += smp.candidates
        tr.counts["reservoir.entries"] += len(smp.reservoir)
        tr.counts["reservoir.stored_edges"] += smp.stored_edges()


def _after_insertion_deletion(tr, args, result):
    tr.counts["insertion_deletion.pooled_edges"] += sum(len(v) for v in result.pooled.values())
    tr.insdel_runs.append(result)


def _after_star_inner(tr, args, result):
    tr.counts["stars.inner_runs"] += 1
    tr.counts["stars.updates_replayed"] += len(args[1])


def _after_bank_init(tr, args, result):
    bank = args[0]
    tr.counts["l0.banks"] += 1
    tr.counts["l0.cells"] += bank.cell_count()


def _after_draw(tr, args, draws):
    tr.counts["l0.draw_ok"] += int(np.count_nonzero(draws >= 0))
    tr.counts["l0.draw_empty"] += int(np.count_nonzero(draws == EMPTY))
    tr.counts["l0.draw_failed"] += int(np.count_nonzero(draws == FAILED))


def _chain(*hooks):
    def after(tr, args, result):
        for hook in hooks:
            hook(tr, args, result)
    return after


# (owner, attribute, span, count hook). `l0.update` runs once per update
# and bank, so it is folded into a count and a total.
SITES = [
    (feww.cli, "parse_stream", "core.parse", _after_parse),
    (feww.cli, "parse_general_stream", "core.parse", _after_parse),
    (feww.cli, "run_insertion_only", "insertion_only.run", _after_insertion_only),
    (feww.stars, "run_insertion_only", "insertion_only.run",
     _chain(_after_insertion_only, _after_star_inner)),
    (feww.cli, "run_insertion_deletion", "insertion_deletion.run", _after_insertion_deletion),
    (feww.stars, "run_insertion_deletion", "insertion_deletion.run",
     _chain(_after_insertion_deletion, _after_star_inner)),
    (feww.cli, "run_star_detection", "stars.run", None),
    (feww.stars, "double_stream", "stars.double", None),
    (SamplerBank, "__init__", "l0.setup", _after_bank_init),
    (SamplerBank, "update", "l0.update", None),
    (SamplerBank, "draw_all", "l0.draw", _after_draw),
]


@contextlib.contextmanager
def traced(tr: Tracer):
    """Install tr's wrappers on every site; restore the originals on exit.

    A site the program no longer has is skipped, so its metrics read 0.
    """
    saved = []
    try:
        for owner, attr, span, hook in SITES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            wrapper = (tr.leaf_total(span, original) if span == "l0.update"
                       else tr.span(span, original, hook))
            setattr(owner, attr, wrapper)
        yield tr
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
