"""The lattmark benchmark.

    python3 perfbench/run.py --workload chain-ladder --seed 1 --seconds 55 --trace 0

Runs one workload in one process against the lattmark sources under ``src/``
of the checkout it sits in.  Set-up generates the workload's input files from
the seed; then passes over the workload's instances repeat, one client and
one thread, until ``--seconds`` are used.  Every answer is checked against an
oracle outside the timed region.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and it carries the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``; ``perfbench/README.md`` says what each
metric means and which workload should move it.  A full record of each run
(environment, tail percentile and sample count, failures, spans) goes under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Untraced passes a --trace 0 run makes even when --seconds runs out first.
MIN_PASSES = 5
# instance_s.p50 is the median instance's fastest time.  The tail is this
# percentile of all timed instance runs, because the fastest times are too
# few to have ten beyond it.  Every workload has at least 9 instances, so
# MIN_PASSES passes time at least 45 runs: 75 is the highest of the
# percentiles 50/75/90/95/99 with at least ten runs beyond it then.  It is
# fixed so that runs with more passes compare.
TAIL_PERCENTILE = 75
# Imports the modules workloads.py imports, in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "from lattmark import antimatroids, augment, cli, fixtures, generators, jsonio, markets, orders; "
                "print(time.perf_counter() - start)")
# End-to-end times are reported at the machine speed at which the 10th
# percentile of a run's reference_loop times is this long: about its typical
# value on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_S = 0.014
# Counts that must repeat exactly for a seed and a source tree.
REPEAT_COUNTS = (
    "markets.choose.calls",
    "markets.enumerate_stable.results",
    "rotations.matching_to_rotations.calls",
    "augment.agents",
    "jsonio.bundle_bytes",
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="lattmark benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_hash_seed(seed: int) -> None:
    """Re-exec with PYTHONHASHSEED taken from the workload seed: set iteration
    order steers the search, so counts repeat exactly only under a fixed hash
    seed, and different seeds still sample different orders."""
    want = str(seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def fastest(passes, key) -> list[float]:
    """Each instance's fastest time over the passes.  CPU speed on a shared
    machine varies by a fifth from pass to pass for the same work, and
    interference only ever adds time, so the fastest of several passes is
    the steadiest estimate of an instance's cost."""
    return [min(key(p.times[i]) for p in passes) for i in range(len(passes[0].times))]


def reference_loop() -> float:
    """Seconds one fixed loop of set, dict, sort and Fraction work takes.  It
    uses no lattmark code, so a change to the program leaves it alone, while
    a change in the machine's speed moves it as it moves the workload."""
    start = perf_counter()
    counts: dict = {}
    for i in range(6000):
        key = frozenset((i % 97, i % 89, i % 83))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], sorted(kv[0])))
    sum((Fraction(i, 7) for i in range(600)), Fraction(0))
    return perf_counter() - start


def time_import() -> float:
    """Seconds a fresh interpreter takes to import lattmark.  The benchmark's
    own process imported it first, so the bytecode cache is already written."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_digest": tree_digest((ROOT / "src" / "lattmark").glob("*.py"))[:16],
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "load": "closed loop, one client, one thread",
    }


class Pass:
    """One timed pass over the instances, plus its untimed checks."""

    def __init__(self, workloads, instances, tracer=None):
        self.tracer = tracer
        self.reference = []  # reference_loop seconds, one before each instance of an untraced pass
        records = []
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            for inst in instances:
                if tracer is not None:
                    tracer.instance = inst.name
                else:
                    self.reference.append(reference_loop())
                records.append(workloads.run_instance(inst))
            self.wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.records = records
        self.times = [t for t, _ in records]
        self.problems = [workloads.problems_of(inst, out) for inst, (_, out) in zip(instances, records)]
        self.bundles = {inst.name: hashlib.sha256(inst.bundle.read_bytes()).hexdigest()
                        for inst in instances if inst.bundle.exists()}
        self.bundle_bytes = sum(inst.bundle.stat().st_size for inst in instances if inst.bundle.exists())
        self.agents = sum(json.loads(outputs[0][1])["agents"]
                          for (_, outputs), problems in zip(records, self.problems) if not problems)

    def layer_metrics(self) -> dict:
        """Calls and self seconds of every traced function and layer; a
        function or layer that the pass never entered reads 0."""
        tracer = self.tracer
        selfs = tracer.self_times()
        out = {f"{layer}.{kind}": 0 for layer in tracer.layers for kind in ("calls", "self_s")}
        for name in tracer.traced:
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = tracer.calls[name]
            out[f"{name}.self_s"] = selfs[name]
            out[f"{layer}.calls"] += tracer.calls[name]
            out[f"{layer}.self_s"] += selfs[name]
        out.update(tracer.counts)
        out["augment.agents"] = self.agents
        out["jsonio.bundle_bytes"] = self.bundle_bytes
        return out


def run(args) -> int:
    if not (ROOT / "src" / "lattmark" / "__init__.py").is_file():
        print(f"perfbench: no lattmark sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    import workloads  # imports lattmark
    import spans

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    problems: list[str] = []
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    import_times, generate_times, digests = [], [], []

    def set_up(into: Path) -> list:
        """Time one import of lattmark in a fresh interpreter and one
        generation of the input files into ``into``."""
        import_times.append(time_import())
        shutil.rmtree(into, ignore_errors=True)
        into.mkdir(parents=True)
        start = perf_counter()
        generated = workloads.generate(args.workload, args.seed, into)
        generate_times.append(perf_counter() - start)
        digests.append(tree_digest(into.iterdir()))
        return generated

    # The passes run on the first set-up's files.  Set-up is repeated into a
    # spare directory before every untraced pass, so that the set-ups sample
    # the machine's speed over the whole run, as the passes do.
    instances = set_up(work)
    spare = work.with_name(work.name + "-setup")

    deadline = perf_counter() + args.seconds
    untraced: list[Pass] = []
    traced: list[Pass] = []
    while True:
        next_traced = bool(args.trace) and len(traced) < len(untraced)
        if args.trace:
            done = bool(untraced) and bool(traced)
        else:
            done = len(untraced) >= MIN_PASSES
        if done:
            estimate = max(p.wall for p in (traced if next_traced else untraced))
            if not next_traced:
                estimate += max(i + g for i, g in zip(import_times, generate_times))
            if perf_counter() + estimate > deadline:
                break
        if next_traced:
            traced.append(Pass(workloads, instances, spans.Tracer()))
        else:
            set_up(spare)
            untraced.append(Pass(workloads, instances))
    setup_s = statistics.median(i + g for i, g in zip(import_times, generate_times))
    if len(set(digests)) != 1:
        problems.append("set-up wrote different inputs for the same seed")

    passes = untraced + traced
    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for pr in p.problems if pr)
    for p in passes:
        for pr in p.problems:
            problems.extend(pr)
    if any(p.bundles != passes[0].bundles for p in passes):
        problems.append("bundles are not byte-identical between passes")

    first = next(((inst, out) for inst, (_, out), pr in zip(instances, untraced[0].records, untraced[0].problems)
                  if not pr), None)
    if first is not None and not workloads.problems_of(first[0], first[0].tamper(first[1])):
        problems.append(f"negative control: the oracle accepted an altered answer of {first[0].name}")

    record = {
        "workload": args.workload,
        "env": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in traced]},
        "instances": len(instances),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
    }

    if args.trace:
        metrics = traced_metrics(untraced, traced, args, problems, record)
        wanted = spec["per_layer"]
    else:
        instance_s = fastest(untraced, lambda t: t["build"] + t["check"])
        samples = [t["build"] + t["check"] for p in untraced for t in p.times]
        tail = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
        measured = {
            "setup_s": setup_s,
            "run_s": sum(instance_s),
            "build_s": sum(fastest(untraced, lambda t: t["build"])),
            "check_s": sum(fastest(untraced, lambda t: t["check"])),
            "instance_s.p50": statistics.median(instance_s),
            "instance_s.tail": tail,
        }
        # The machine's speed drifts by a third over minutes.  The 10th
        # percentile of the run's reference loops tracks that drift better
        # than their minimum, which one lucky moment sets; times are scaled to
        # the speed at which it is REFERENCE_S.
        references = [r for p in untraced for r in p.reference]
        reference = statistics.quantiles(references, n=10, method="inclusive")[0]
        metrics = {name: value * REFERENCE_S / reference for name, value in measured.items()}
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["measured_s"] = measured
        record["reference_s"] = {"p10": reference, "all": references}
        record["instance_s.tail"] = {"percentile": TAIL_PERCENTILE, "samples": len(samples),
                                     "beyond": sum(1 for s in samples if s > tail)}
        record["setup"] = {"import_s": import_times, "generate_s": generate_times}
        record["instance_fastest_s"] = dict(zip((inst.name for inst in instances), instance_s))
        record["instance_runs_s"] = [[t["build"] + t["check"] for t in p.times] for p in untraced]
        wanted = spec["end_to_end"]

    record["metrics"] = metrics
    record["problems"] = problems
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")

    for pr in problems[:20]:
        print(f"perfbench: {pr}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances, passes {record['passes']}, "
          f"failed {failed}/{attempted} (failed_ratio {failed / attempted:g})")
    if not args.trace:
        tail = record["instance_s.tail"]
        print(f"instance_s.tail is p{tail['percentile']} of {tail['samples']} timed instance runs "
              f"({len(instances)} instances, {tail['beyond']} runs beyond it)")
    unknown = [m["name"] for m in wanted if m["name"] not in metrics]
    if unknown:
        print(f"perfbench: BENCHMARK.json names metrics this benchmark does not make: {unknown}", file=sys.stderr)
        return 2
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<42} {result[m['name']]['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def traced_metrics(untraced, traced, args, problems, record) -> dict:
    per_pass = [p.layer_metrics() for p in traced]
    metrics = {}
    for key in per_pass[0]:
        values = [m.get(key, 0) for m in per_pass]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced passes: {values}")
    whole = lambda t: t["build"] + t["check"]
    metrics["trace.overhead_s"] = sum(fastest(traced, whole)) - sum(fastest(untraced, whole))

    repeat = {k: metrics.get(k, 0) for k in REPEAT_COUNTS}
    record["repeat_counts"] = repeat
    store = OUT / "counts" / f"{args.workload}-seed{args.seed}-{record['env']['source_digest']}.json"
    if store.exists():
        before = json.loads(store.read_text(encoding="utf-8"))
        if before != repeat:
            problems.append(f"exact-repeat counts differ from an earlier run of this seed and source: "
                            f"{before} != {repeat}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(repeat, sort_keys=True) + "\n", encoding="utf-8")

    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    with open(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
        for i, p in enumerate(traced):
            for row in p.tracer.span_rows(i):
                fh.write(json.dumps(row) + "\n")
    record["layer_metrics"] = metrics
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed(args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
