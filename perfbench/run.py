"""cyclesplit benchmark: seeded workloads through ``solve``, with a correctness gate.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-planted --seed 1 --seconds 20 --trace 0

One process, one client, a closed loop: each solve starts after the previous
one returned.  Set-up builds the workload's instance list from the seed (and
the oracle answers where the workload has them) several times and reports the
median.  The measured loop then runs whole passes over the instance list
until ``--seconds`` have elapsed.  Every time is corrected for the speed of
the shared host (see ``hostspeed``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics of the traced passes,
with the tracing overhead measured against the plain ones.  Both modes check
every result (see ``Gate``); a violation counts as a failed operation and
makes the command exit 1 after printing its result.  The last stdout line is
one JSON object; a fuller record with run metadata and the output digest is
written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
from array import array
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
SPAN_CAP = 100_000  # a traced run starts no further pass once it holds this many spans


def _import_package():
    """Import cyclesplit from this checkout's sources, never from elsewhere."""
    init = SRC / "cyclesplit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import cyclesplit

    if Path(cyclesplit.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: cyclesplit imported from {cyclesplit.__file__}")
    return cyclesplit


cs = _import_package()
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, Instance, instance_list  # noqa: E402


# -- correctness gate and per-pass accounting --------------------------------


@dataclass
class Tally:
    # start and end of every solve call, per instance, flat; in an array so
    # that the harness's own memory does not grow with the number of passes
    # and show in peak_rss_mb
    times: dict[int, array] = field(default_factory=dict)
    successes: int = 0
    failed: int = 0
    unsound: int = 0
    feasible: int = 0  # attempts whose k the oracle allows
    steps: Counter = field(default_factory=Counter)

    def record(self, i: int, t0: float, t1: float) -> None:
        self.times.setdefault(i, array("d")).extend((t0, t1))

    @property
    def attempted(self) -> int:
        return sum(map(len, self.times.values())) // 2

    def _adjusted(self, hs: HostSpeed):
        """Host-speed corrected solve times, per instance."""
        for v in self.times.values():
            yield [hs.adjust(t0, t1) for t0, t1 in zip(v[::2], v[1::2])]

    def total_s(self, hs: HostSpeed) -> float:
        """All solve time in the run, host-speed corrected."""
        return sum(map(sum, self._adjusted(hs)))

    def medians(self, hs: HostSpeed) -> list[float]:
        """Each instance's median solve time in the run, host-speed corrected."""
        return [statistics.median(v) for v in self._adjusted(hs)]


class Gate:
    """Checks every solve of one instance list.

    A success must validate as a k-cycle 2-factor of the input graph and, where
    the oracle is known, have a k it allows; the input graph and cover must
    serialise as before the solve; a rerun of an instance must give the same
    output and deterministic stats as its first run.
    """

    def __init__(self, instances: list[Instance]):
        self.instances = instances
        self.cover_text = [cs.dump_cover(inst.cover) for inst in instances]
        self.graph_text = {}
        for inst in instances:
            self.graph_text.setdefault(id(inst.graph), (inst.graph, cs.dump_graph(inst.graph)))
        self.digests: list[bytes] = []

    def round_trip(self) -> int:
        """Reload every input from its text; returns the number that differ."""
        bad = 0
        for g, text in self.graph_text.values():
            bad += cs.load_graph(text) != g
        for inst, text in zip(self.instances, self.cover_text):
            bad += cs.load_cover(text, inst.graph.n) != inst.cover
        return bad

    def check(self, i: int, res, tally: Tally) -> None:
        inst = self.instances[i]
        problems = []
        out = res.cover
        if out is not None:
            try:
                got = cs.validate_cover(inst.graph, out)
            except cs.CoverError as exc:
                got = str(exc)
            sound = got == inst.k and (inst.feasible is None or inst.k in inst.feasible)
            if not sound:
                problems.append(f"unsound success: validate_cover gave {got!r}")
                tally.unsound += 1
        if res.stats.success != (out is not None):
            problems.append("stats.success disagrees with the returned cover")
        if cs.dump_cover(inst.cover) != self.cover_text[i]:
            problems.append("input cover modified")
        digest = hashlib.sha256(
            ((cs.dump_cover(out) if out is not None else "no cover\n")
             + res.stats.to_json(drop_timing=True)).encode()
        ).digest()
        if i == len(self.digests):
            self.digests.append(digest)
        elif digest != self.digests[i]:
            problems.append("rerun differs from the first run")
        if problems:
            self.fail(i, tally, "; ".join(problems))
        elif out is not None:
            tally.successes += 1
        tally.feasible += inst.feasible is not None and inst.k in inst.feasible
        for plan in res.stats.switch_log:
            tally.steps[plan["case"]] += 1

    def check_graphs(self, tally: Tally) -> None:
        for key, (g, text) in self.graph_text.items():
            if cs.dump_graph(g) != text:
                for i, inst in enumerate(self.instances):
                    if id(inst.graph) == key:
                        self.fail(i, tally, "input graph modified")

    def fail(self, i: int, tally: Tally, why: str) -> None:
        inst = self.instances[i]
        tally.failed += 1
        print(f"FAIL instance {i} (n={inst.graph.n}, k={inst.k}): {why}", file=sys.stderr)

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.digests)).hexdigest()


def run_pass(gate: Gate, tally: Tally, hs: HostSpeed) -> None:
    for i, inst in enumerate(gate.instances):
        hs.maybe_probe()
        rng = random.Random(inst.params.seed)
        t0 = perf_counter()
        try:
            res = cs.solve(inst.graph, inst.cover, inst.k, inst.params, rng, inst.strict)
        except Exception:
            tally.record(i, t0, perf_counter())
            traceback.print_exc()
            gate.fail(i, tally, "solve raised")
            continue
        tally.record(i, t0, perf_counter())
        gate.check(i, res, tally)
    hs.probe()
    gate.check_graphs(tally)


# -- metrics ------------------------------------------------------------------


def end_to_end(tally: Tally, setup_times: list[float], hs: HostSpeed) -> dict[str, tuple[float, str]]:
    times = tally.medians(hs)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.p90": (statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0], "s"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "success_rate": (tally.successes / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metrics taken per traced solve from the span totals
PER_SOLVE = (
    "graphs.validate_cover",
    "graphs.CycleCover.from_edge_set",
    "switching.count_h_edges",
    "switching.enumerate_implanted",
    "switching.increase_by_one_with_diag",
    "switching.split_to_k",
    "pipeline.solve",
    "pipeline.merge_cover",
    "pipeline.unmerge",
    "embedding.partition_vertices",
    "embedding.cover_graph",
    "embedding.close_graph",
    "embedding.enrich",
    "rewire.second_hamilton_cycle",
    "rewire.sample_switch_set",
)
GENERATORS = (
    "patterns.iter_interleaved_pairs",
    "patterns.iter_increasing_triples",
    "patterns.iter_decreasing_triples",
)
MODULES = ("graphs", "switching", "patterns", "pipeline", "embedding", "rewire")


def per_layer(tr: tracer.Tracer, traced: Tally, plain: Tally, hs: HostSpeed) -> dict[str, tuple[float, str]]:
    spans = tr.spans
    tot = tracer.totals(spans)
    solves = traced.attempted

    def agg(name: str) -> list:
        return tot.get(name, [0, 0.0, 0, 0, 0.0])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in PER_SOLVE:
        calls, self_s, _, _, _ = agg(name)
        m[f"{name}.calls"] = (calls / solves, "count/solve")
        m[f"{name}.self_s"] = (self_s / solves, "s/solve")
    for name in GENERATORS:
        _, self_s, items, _, _ = agg(name)
        m[f"{name}.items"] = (items / solves, "count/solve")
        m[f"{name}.s"] = (self_s / solves, "s/solve")
    for name in ("graphs.load_graph", "graphs.load_cover", "graphs.dump_cover",
                 "instances.gen_planted", "instances.oracle_component_counts"):
        m[f"{name}.s"] = (tracer.mean_outside_solves(spans, name), "s")

    solve_time = agg("pipeline.solve")[4]
    m["pipeline.solve.s"] = (solve_time / solves, "s/solve")
    m["switching.enumerate_implanted.c4s"] = (agg("switching.enumerate_implanted")[2] / solves, "count/solve")
    for case in (1, 2, 3, 4):
        m[f"switching.steps.case{case}"] = (traced.steps[case] / solves, "count/solve")
    calls, _, parts, _, _ = agg("embedding.partition_vertices")
    m["embedding.partition_vertices.parts"] = (ratio(parts, calls), "count/call")
    rewires, _, found, raised, _ = agg("rewire.second_hamilton_cycle")
    m["embedding.enrich.accept_ratio"] = (ratio(agg("embedding.enrich")[2], rewires), "ratio")
    m["rewire.second_hamilton_cycle.raised"] = (raised / solves, "count/solve")
    m["rewire.second_hamilton_cycle.none"] = ((rewires - raised - found) / solves, "count/solve")
    m["rewire.second_hamilton_cycle.found_ratio"] = (ratio(found, rewires), "ratio")

    module_self = Counter()
    for name, (_, self_s, _, _, _) in tot.items():
        module_self[name.split(".", 1)[0]] += self_s
    for module in MODULES:
        m[f"{module}.self_share"] = (ratio(module_self[module], solve_time), "ratio")

    plain_mean = plain.total_s(hs) / plain.attempted
    traced_mean = traced.total_s(hs) / solves
    m["trace.overhead"] = (traced_mean / plain_mean - 1.0, "ratio")
    m["trace.spans"] = (sum(s[tracer.SOLVE] is not None for s in spans) / solves, "count/solve")
    return m


# -- command line -------------------------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(build, seed: int, repeats: int, hs: HostSpeed) -> tuple[list[Instance], list[float]]:
    """Builds the instance list ``repeats`` times; returns it and the
    host-speed corrected time of each build.  A build is timed graph by
    graph, with probes between graphs outside the timed intervals."""
    times = []
    instances: list[Instance] = []
    for _ in range(repeats):
        instances = []
        gc.collect()
        hs.probe()
        spans = []
        graphs = build(seed)
        while True:
            hs.maybe_probe()
            t0 = perf_counter()
            group = next(graphs, None)
            spans.append((t0, perf_counter()))
            if group is None:
                break
            instances.extend(group)
        hs.probe()
        times.append(sum(hs.adjust(t0, t1) for t0, t1 in spans))
    gc.collect()
    return instances, times


def measure(args) -> dict:
    build = WORKLOADS[args.workload]
    tr = tracer.Tracer() if args.trace else None
    hs = HostSpeed()
    if tr is not None:
        missing = tr.install()
        if missing:
            print(f"note: not traced, absent from the package: {', '.join(missing)}", file=sys.stderr)
        instances, setup_times = setup(build, args.seed, 1, hs)
    else:
        instances, setup_times = setup(build, args.seed, SETUP_REPEATS, hs)
    gate = Gate(instances)
    plain, traced = Tally(), Tally()
    if gate.round_trip():
        plain.failed += 1
        print("FAIL: an input does not survive dump/load", file=sys.stderr)
    if tr is not None:
        tr.uninstall()
    # The inputs live for the whole run.  Frozen, they stay out of the
    # collections the solver's own garbage triggers, as they would in a
    # process that solves one instance.  Otherwise the cost of those
    # collections grows with the instance list and, since a pass allocates
    # the same way each time, falls on the same solves in every pass.
    gc.collect()
    gc.freeze()

    first = instances[0]  # warm-up solve, not counted
    cs.solve(first.graph, first.cover, first.k, first.params, random.Random(first.params.seed), first.strict)

    # Whole passes only, so every instance weighs the same in the metrics;
    # another pass starts only if it is expected to end within --seconds.
    passes = 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if tr is not None and passes % 2:
            tr.install()
            run_pass(gate, traced, hs)
            tr.uninstall()
        else:
            run_pass(gate, plain, hs)
        passes += 1
        now = perf_counter()
        if tr is None:
            if now - start + (now - t0) > args.seconds:
                break
        elif passes >= 2 and (now - start + (now - t0) > args.seconds or len(tr.spans) > SPAN_CAP):
            break
    elapsed = perf_counter() - start

    tallies = [plain, traced]
    result = {
        "workload": args.workload,
        "passes": passes,
        "instances": len(instances),
        "measured_s": elapsed,
        "digest": gate.digest(),
        "unsound": plain.unsound + traced.unsound,
    }
    if any(inst.feasible is not None for inst in instances):
        result["completeness"] = plain.successes / plain.feasible if plain.feasible else 0.0

    if args.check_seed is not None:
        check_gate = Gate(instance_list(build(args.check_seed)))
        check = Tally()
        run_pass(check_gate, check, hs)
        tallies.append(check)
        result["check_seed"] = {
            "seed": args.check_seed,
            "attempted": check.attempted,
            "successes": check.successes,
            "failed": check.failed,
            "unsound": check.unsound,
            "digest": check_gate.digest(),
        }
        result["unsound"] += check.unsound

    result["attempted"] = sum(t.attempted for t in tallies)
    result["failed"] = sum(t.failed for t in tallies)
    if tr is None:
        result["metrics"] = end_to_end(plain, setup_times, hs)
    else:
        result["metrics"] = per_layer(tr, traced, plain, hs)
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    return result


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check-seed", type=int, default=None,
        help="held-out workload seed: one more gated pass on its instances, "
             "recorded beside the result (its solves are not in the metrics)",
    )
    args = parser.parse_args(argv)
    warnings.filterwarnings("ignore", message="rewire degree precondition overridden")

    declared = declared_metrics(args.trace)
    result = measure(args)
    metrics = result.pop("metrics")
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        print("error: metrics differ from BENCHMARK.json:",
              sorted(set(printed.items()) ^ set(declared.items())), file=sys.stderr)
        return 2

    result["metadata"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "check_seed": args.check_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:48s} {value:14.6g} {unit}")
    extras = {k: result[k] for k in ("passes", "attempted", "failed", "unsound", "completeness", "digest") if k in result}
    for key, value in extras.items():
        print(f"{args.workload:15s} {key:48s} {value}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
