"""Command-line surface: gen | solve | verify | oracle | bench.

Exit codes are a stable contract: 0 success, 1 usage or input error,
2 honest solver failure (stats are still written).  All randomness flows
from --seed, which a params file may not set; identical invocations
produce byte-identical files.  The stats JSON deliberately omits wall time
so reruns diff clean; timing goes to the status line (on stderr when
``solve`` prints the cover to stdout) and to the bench CSV instead.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from .graphs import (
    CoverError,
    GraphFormatError,
    Params,
    _param_values,
    _read_header,
    dump_cover,
    dump_graph,
    load_cover,
    load_graph,
    validate_cover,
)
from .instances import (
    InstanceSpec,
    ORACLE_CAP,
    gen_cliques_hamilton,
    gen_cliques_matching,
    gen_planted,
    gen_triangles_biclique,
    oracle_exists_k_factor,
)
from .pipeline import solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILURE = 2


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclesplit",
        description="Transform a 2-factor into one with exactly k cycles via C4-switches.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--model", required=True, choices=("planted", "cliques", "triangles"))
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, help="vertex count (planted)")
    gen.add_argument("--p", type=float, help="extra-edge probability (planted)")
    gen.add_argument("--q", type=int, help="clique order (cliques)")
    gen.add_argument("--allow-even", action="store_true", help="permit even clique order")
    gen.add_argument("--k", type=int, help="cycle parameter (triangles)")
    gen.add_argument("--m", type=int, help="bipartite side size (triangles)")

    sol = sub.add_parser("solve", help="solve an instance")
    sol.add_argument("--graph", required=True)
    sol.add_argument("--cover", required=True)
    sol.add_argument("--k", type=int, required=True)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--params", help="params file (flat key = value)")
    sol.add_argument(
        "--strict",
        action="store_true",
        help="walk first; split the input cover only if the walk lands no cycle",
    )
    sol.add_argument("--out", help="output cover file")
    sol.add_argument("--stats", help="stats JSON file")

    ver = sub.add_parser("verify", help="validate a graph + cover pair")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--cover", required=True)

    orc = sub.add_parser("oracle", help="exhaustive 2-factor existence (n <= %d)" % ORACLE_CAP)
    orc.add_argument("--graph", required=True)
    orc.add_argument("--k", type=int, required=True)

    ben = sub.add_parser("bench", help="run a seeded corpus, emit a CSV of run stats")
    ben.add_argument("--corpus", default="small", choices=("small", "planted"))
    ben.add_argument("--seeds", type=int, default=3)
    ben.add_argument("--out", required=True, help="CSV output path")
    ben.add_argument("--seed", type=int, default=0, help="base seed")
    return top


def cmd_gen(args) -> int:
    seed = args.seed
    cover = None
    if args.model == "planted":
        if args.n is None or args.p is None:
            print("gen planted requires --n and --p", file=sys.stderr)
            return EXIT_INPUT
        g, cover = gen_planted(args.n, args.p, seed)
        spec = InstanceSpec("planted", g.n, seed, {"p": args.p})
    elif args.model == "cliques":
        if args.q is None:
            print("gen cliques requires --q", file=sys.stderr)
            return EXIT_INPUT
        g = gen_cliques_matching(args.q, seed, allow_even=args.allow_even)
        spec = InstanceSpec("cliques", g.n, seed, {"q": args.q})
    else:
        if args.k is None or args.m is None:
            print("gen triangles requires --k and --m", file=sys.stderr)
            return EXIT_INPUT
        g, cover = gen_triangles_biclique(args.k, args.m, seed)
        spec = InstanceSpec("triangles", g.n, seed, {"k": args.k, "m": args.m})
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.graph").write_text(dump_graph(g))
    if cover is not None:
        Path(f"{prefix}.cover").write_text(dump_cover(cover))
    Path(f"{prefix}.json").write_text(spec.to_json())
    print(f"wrote {prefix}.graph (n={g.n}, m={g.m})")
    return EXIT_OK


def _load_instance(args):
    """The graph and cover files, the cover first: a graph header n other
    than the cover's vertex count is refused in ``validate_cover``'s words
    before the graph allocates anything."""
    cover = load_cover(Path(args.cover).read_text())
    text = Path(args.graph).read_text()
    # the first line as ``splitlines`` reads it, leaving the rest unsplit
    n, _ = _read_header(text.split("\n", 1)[0].splitlines())
    if n != cover.n:
        raise CoverError(f"cover spans {cover.n} vertices, graph has {n}")
    return load_graph(text), cover


def cmd_solve(args) -> int:
    g, cover = _load_instance(args)
    values = _param_values(Path(args.params).read_text()) if args.params else {}
    if "seed" in values:
        raise ValueError("set the seed with --seed")
    params = Params(**values, seed=args.seed)
    t0 = time.perf_counter()
    result = solve(g, cover, args.k, params, strict=args.strict)
    elapsed = time.perf_counter() - t0
    if args.stats:
        Path(args.stats).write_text(result.stats.to_json(drop_timing=True))
    if result.cover is None:
        print(f"failure: no {args.k}-cycle 2-factor found ({elapsed:.2f}s)")
        return EXIT_FAILURE
    out_text = dump_cover(result.cover)
    status = sys.stdout
    if args.out:
        Path(args.out).write_text(out_text)
    else:
        # the cover alone goes to stdout, so that it loads back as a cover file
        sys.stdout.write(out_text)
        status = sys.stderr
    print(f"success: {args.k} cycles ({elapsed:.2f}s)", file=status)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, cover = _load_instance(args)
    comps = validate_cover(g, cover)
    print(f"valid, {comps} components")
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_graph(Path(args.graph).read_text(), max_n=ORACLE_CAP)
    answer = oracle_exists_k_factor(g, args.k)
    print("yes" if answer else "no")
    return EXIT_OK


_BENCH_CORPORA = {
    "small": (
        ("planted", {"n": 24, "p": 0.4}, 2),
        ("planted", {"n": 24, "p": 0.4}, 4),
        ("planted", {"n": 60, "p": 0.3}, 3),
        ("triangles", {"k": 3, "m": 4}, 3),
        ("cliques_ham", {"q": 5}, 2),
    ),
    "planted": (
        ("planted", {"n": 100, "p": 0.25}, 2),
        ("planted", {"n": 100, "p": 0.25}, 8),
        ("planted", {"n": 200, "p": 0.2}, 4),
    ),
}


def _bench_instance(model: str, spec: dict, seed: int):
    if model == "planted":
        return gen_planted(spec["n"], spec["p"], seed)
    if model == "triangles":
        return gen_triangles_biclique(spec["k"], spec["m"], seed)
    if model == "cliques_ham":
        return gen_cliques_hamilton(spec["q"], seed)
    raise ValueError(f"unknown bench model {model}")


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    rows = []
    for idx, (model, spec, k) in enumerate(_BENCH_CORPORA[args.corpus]):
        for s in range(args.seeds):
            seed = args.seed + s
            g, cover = _bench_instance(model, spec, seed)
            params = Params(seed=seed)
            t0 = time.perf_counter()
            result = solve(g, cover, k, params)
            elapsed = time.perf_counter() - t0
            st = result.stats
            rows.append(
                {
                    "instance": f"{model}-{idx}",
                    "model": model,
                    "n": st.n,
                    "m": st.m,
                    "min_degree": st.min_degree,
                    "ell_initial": st.ell_initial,
                    "k": k,
                    "seed": seed,
                    "success": int(st.success),
                    "switches": len(st.switch_log),
                    "rewire_calls": st.rewire_calls,
                    "wall_time": f"{elapsed:.4f}",
                }
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    ok = sum(r["success"] for r in rows)
    print(f"bench: {ok}/{len(rows)} solved; wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "bench": cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except (GraphFormatError, CoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
