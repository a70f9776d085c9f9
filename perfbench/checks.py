"""Oracle check of one operation's output, run outside the timed region.

An operation is an error when it raised, exited non-zero, printed output
that does not parse, printed a certificate the exact oracle rejects, or
printed `space=` / `samplers=` figures that disagree with the
configuration's closed forms. An honest `fail` is not an error, but it is
not a success either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from feww.core import Neighbourhood, verify_witness
from feww.insertion_deletion import InsDelConfig
from feww.insertion_only import InsertionOnlyConfig
from feww.stars import Mode, StarConfig

from workloads import Instance


@dataclass(frozen=True)
class Verdict:
    error: Optional[str]  # None when the output is sound
    success: bool  # a certificate was printed and the oracle accepted it
    space_edges: int = 0
    space_words: int = 0


def _pair(line: str, key: str, parts: int) -> tuple[int, ...]:
    if not line.startswith(key + "="):
        raise ValueError(f"expected {key}=..., got {line!r}")
    values = tuple(int(v) for v in line[len(key) + 1:].split(","))
    if len(values) != parts:
        raise ValueError(f"{key}= needs {parts} fields, got {line!r}")
    return values


def _space_error(inst: Instance, seed: int, edges: int, words: int,
                 rest: list[str]) -> Optional[str]:
    p = inst.params
    if inst.command == "feww-ins":
        cfg = InsertionOnlyConfig(n=p["n"], d=p["d"], alpha=p["alpha"], seed=seed)
        lo = cfg.n + cfg.alpha
        hi = lo + cfg.alpha * cfg.reservoir_size
        if edges > cfg.edge_bound() or not lo <= words <= hi:
            return f"space={edges},{words} outside edges<={cfg.edge_bound()}, words in [{lo},{hi}]"
        return None
    if inst.command == "feww-del":
        cfg = InsDelConfig(n=p["n"], m=p["m"], d=p["d"], alpha=p["alpha"], seed=seed,
                           delta=p["delta"])
        want_words = cfg.sketch_cells + cfg.vertex_sample_size
        want_samplers = (cfg.vertex_sample_size, cfg.samplers_per_vertex, cfg.edge_samplers)
        draws = cfg.vertex_sample_size * cfg.samplers_per_vertex + cfg.edge_samplers
        if words != want_words or edges > draws:
            return f"space={edges},{words}, want words={want_words}, edges<={draws}"
        if len(rest) != 1 or _pair(rest[0], "samplers", 3) != want_samplers:
            return f"samplers line {rest!r}, want {want_samplers}"
        return None
    cfg = StarConfig(n=p["n"], epsilon=p["epsilon"], alpha=p["alpha"],
                     mode=Mode(p["mode"]), seed=seed)
    bound = sum(InsertionOnlyConfig(n=cfg.n, d=g, alpha=cfg.alpha, seed=0).edge_bound()
                for g in cfg.guess_grid())
    if words != 0 or edges > bound:
        return f"space={edges},{words}, want edges<={bound} and no sketch cells"
    return None


def check(inst: Instance, seed: int, rc: Optional[int], stdout: str,
          raised: Optional[str] = None) -> Verdict:
    """Verdict on one operation: `rc` is the exit code, `raised` the
    exception text if the call raised instead."""
    if raised is not None:
        return Verdict(f"raised {raised}", False)
    if rc != 0:
        return Verdict(f"exit code {rc}", False)
    lines = stdout.splitlines()
    try:
        nb = None
        if lines and lines[0] == "fail":
            lines = lines[1:]
        else:
            head = lines[0].split()
            wits = lines[1].split()
            if len(head) != 3 or head[0] != "result" or wits[0] != "witnesses":
                raise ValueError(f"bad result lines {lines[:2]!r}")
            nb = Neighbourhood(int(head[1]), tuple(int(w) for w in wits[1:]))
            if nb.size != int(head[2]):
                return Verdict(f"declared {head[2]} witnesses, printed {nb.size}", False)
            lines = lines[2:]
        if inst.command == "star" and nb is not None:
            p = inst.params
            grid = StarConfig(n=p["n"], epsilon=p["epsilon"], alpha=p["alpha"],
                              mode=Mode(p["mode"]), seed=seed).guess_grid()
            (guess,) = _pair(lines[0], "guess", 1)
            if guess not in grid:
                return Verdict(f"guess={guess} not on the grid", False)
            lines = lines[1:]
        edges, words = _pair(lines[0], "space", 2)
        space_error = _space_error(inst, seed, edges, words, lines[1:])
        if inst.command != "feww-del" and len(lines) != 1:
            raise ValueError(f"trailing output {lines[1:]!r}")
    except (IndexError, ValueError) as exc:
        return Verdict(f"unparsable output: {exc}", False)
    if space_error is not None:
        return Verdict(space_error, False)
    if nb is not None and not verify_witness(inst.graph, nb, inst.threshold):
        return Verdict(f"unsound certificate center={nb.center} "
                       f"witnesses={nb.size} threshold={inst.threshold}", False)
    return Verdict(None, nb is not None, edges, words)
