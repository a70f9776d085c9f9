"""Command-line front end.

Subcommands:
  gen         write an instance stream file (planted | setdisj | bvl | amri)
  feww-ins    insertion-only witness search on a bipartite stream file
  feww-del    insertion-deletion witness search on a bipartite stream file
  star        star detection on a general-graph stream file
  experiment  run a trial batch from a key=value config file, write CSV
  verify      check a result file against a stream file with the oracle

All output is deterministic for fixed arguments and seed. Results print
as `result <center> <count>` followed by a `witnesses ...` line, or
`fail`; searches append a `space=<edges>,<words>` line, and feww-del also
reports `samplers=<|A'|>,<per-vertex>,<edge>`.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    MODE_INSERTION_DELETION,
    MODE_INSERTION_ONLY,
    Neighbourhood,
    parse_stream,
    replay,
    verify_witness,
    write_stream,
)
from .errors import SketchFailure, SpaceBoundViolation, UnsoundWitness
from .generators import (
    gen_amri_instance,
    gen_amri_stream,
    gen_bvl_graph,
    gen_bvl_instance,
    gen_planted_star,
    gen_set_disjointness,
)
from .harness import ExperimentConfig, run_experiment, space_audit, summary_text
from .insertion_deletion import InsDelConfig, run_insertion_deletion
from .insertion_only import InsertionOnlyConfig, run_insertion_only
from .stars import Mode, StarConfig, run_star_detection


def _print_result(nb: Neighbourhood | None) -> None:
    if nb is None:
        print("fail")
        return
    print(f"result {nb.center} {nb.size}")
    print("witnesses " + " ".join(str(b) for b in nb.witnesses))


def _cmd_gen(args) -> int:
    if args.family == "planted":
        updates = gen_planted_star(args.n, args.m, args.d, args.background, args.seed)
        write_stream(updates, args.n, args.m, MODE_INSERTION_ONLY, args.out)
    elif args.family == "setdisj":
        streams = gen_set_disjointness(args.parties, args.k, args.n,
                                       args.intersecting, args.seed)
        flat = [u for s in streams for u in s]
        write_stream(flat, args.n, args.k * args.parties, MODE_INSERTION_ONLY, args.out)
    elif args.family == "bvl":
        inst = gen_bvl_instance(args.parties, args.n, args.k, args.seed)
        flat = [u for s in gen_bvl_graph(inst) for u in s]
        write_stream(flat, args.n, inst.columns, MODE_INSERTION_ONLY, args.out)
        truth_path = args.out + ".truth"
        with open(truth_path, "w", encoding="utf-8", newline="") as fh:
            for i, xs in enumerate(inst.index_sets, start=1):
                fh.write(f"X{i} " + " ".join(str(j) for j in sorted(xs)) + "\n")
            for i, table in enumerate(inst.strings, start=1):
                for j in sorted(table):
                    fh.write(f"Y{i}^{j} {table[j]}\n")
        print(f"wrote {truth_path}")
    elif args.family == "amri":
        inst = gen_amri_instance(args.n, args.d, args.alpha, args.seed)
        updates = gen_amri_stream(inst, args.alpha)
        write_stream(updates, args.n, 2 * args.d, MODE_INSERTION_DELETION, args.out)
    else:
        raise AssertionError(args.family)
    print(f"wrote {args.out}")
    return 0


def _parse_checked(path, general=False, n=None, m=None,
                   search=MODE_INSERTION_DELETION):
    """Parse a stream file and check its header against the command: a
    general-graph file (no `m=`) iff `general`, sizes `n`/`m` unless n is
    None, and an insertion-deletion file only for an insertion-deletion
    `search`. A mismatch raises ValueError."""
    updates, header = parse_stream(path)
    if (header.m is None) != general:
        raise ValueError(f"{path}: needs a {'general-graph' if general else 'bipartite'} "
                         "stream file")
    if n is not None and (header.n, header.m) != (n, m):
        raise ValueError(f"header n={header.n} m={header.m} does not match "
                         f"--n {n} --m {m}")
    if header.mode == MODE_INSERTION_DELETION and search == MODE_INSERTION_ONLY:
        raise ValueError("an insertion-deletion stream needs an insertion-deletion search")
    return updates, header


def _cmd_feww_ins(args) -> int:
    updates, _ = _parse_checked(args.stream, n=args.n, m=args.m, search=MODE_INSERTION_ONLY)
    cfg = InsertionOnlyConfig(n=args.n, d=args.d, alpha=args.alpha, seed=args.seed)
    run = run_insertion_only(cfg, updates)
    _print_result(run.result)
    report = run.space_report()
    print(f"space={report.stored_edges},{report.words}")
    return 0


def _cmd_feww_del(args) -> int:
    updates, _ = _parse_checked(args.stream, n=args.n, m=args.m)
    cfg = InsDelConfig(n=args.n, m=args.m, d=args.d, alpha=args.alpha,
                       seed=args.seed, delta=args.delta)
    run = run_insertion_deletion(cfg, updates)
    _print_result(run.result)
    pooled = sum(len(v) for v in run.pooled.values())
    print(f"space={pooled},{run.sketch_cells + cfg.vertex_sample_size}")
    s_v, k_a, k_e = run.sampler_counts
    print(f"samplers={s_v},{k_a},{k_e}")
    return 0


def _cmd_star(args) -> int:
    updates, _ = _parse_checked(args.stream, general=True, n=args.n, search=args.mode)
    cfg = StarConfig(n=args.n, epsilon=args.epsilon, alpha=args.alpha,
                     mode=Mode(args.mode), seed=args.seed, delta=args.delta)
    run = run_star_detection(cfg, updates)
    _print_result(run.result)
    if run.winning_guess is not None:
        print(f"guess={run.winning_guess}")
    print(f"space={run.stored_edges},{run.sketch_cells}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    result = run_experiment(cfg)
    space_audit(result)
    print(summary_text(result))
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_verify(args) -> int:
    updates, header = _parse_checked(args.stream)
    graph = replay(updates, header.n, header.m)
    with open(args.result, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        print("error: empty result file", file=sys.stderr)
        return 2
    if lines[0] == "fail":
        print("result=fail")
        return 0
    head = lines[0].split()
    if len(head) != 3 or head[0] != "result":
        print(f"error: bad result line {lines[0]!r}", file=sys.stderr)
        return 2
    center, count = int(head[1]), int(head[2])
    witnesses: tuple[int, ...] = ()
    if len(lines) > 1 and lines[1].startswith("witnesses"):
        witnesses = tuple(int(t) for t in lines[1].split()[1:])
    if len(witnesses) != count:
        print(f"unsound witness count {len(witnesses)} != declared {count}")
        return 1
    nb = Neighbourhood(center, witnesses)
    threshold = args.threshold if args.threshold is not None else len(witnesses)
    if verify_witness(graph, nb, threshold):
        print(f"ok {len(witnesses)}")
        return 0
    missing = sorted(set(witnesses) - graph.neighbours(center))
    print(f"unsound center={center} missing={' '.join(map(str, missing)) or '-'} "
          f"threshold={threshold}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feww",
                                     description="witnessed frequent-element search "
                                                 "over edge streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance stream file")
    p.add_argument("family", choices=("planted", "setdisj", "bvl", "amri"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--background", type=int, default=0)
    p.add_argument("--parties", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--intersecting", dest="intersecting", action="store_true",
                       default=True)
    group.add_argument("--disjoint", dest="intersecting", action="store_false")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("feww-ins", help="insertion-only witness search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", required=True)
    p.set_defaults(func=_cmd_feww_ins)

    p = sub.add_parser("feww-del", help="insertion-deletion witness search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--stream", required=True)
    p.set_defaults(func=_cmd_feww_del)

    p = sub.add_parser("star", help="largest-star search in a general graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--mode", choices=(MODE_INSERTION_ONLY, MODE_INSERTION_DELETION),
                   default=MODE_INSERTION_ONLY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--stream", required=True)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("experiment", help="run a seeded trial batch")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="oracle-check a result file")
    p.add_argument("--stream", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--threshold", type=int, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SketchFailure, SpaceBoundViolation, UnsoundWitness) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
