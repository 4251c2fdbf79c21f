"""Benchmark of isocant: seeded workloads, an exact-output gate and a traced run.

Run from the root of a checkout::

    python3 bench/run.py --workload polytope --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run is a closed loop with one client: one process runs the workload's fixed
op list (see ``workloads.py``) one op at a time, with no threads; the ``cli``
workload runs one ``isocant`` child process at a time.  Passes over the op
list repeat until ``--seconds`` have elapsed (two passes at least).  No CPU
pinning and no machine setting is used: the machine may be shared, so the
benchmark reports medians and writes the load average into its record.

Before timing, the bytecode cache is warmed and one op runs untimed.
``setup_s`` is measured on its own, in fresh processes: the median over
several ``--setup-probe`` children of the time from starting the child until
it has imported isocant and built the inputs.

Times are reported at a reference machine speed.  A shared 2-vCPU x86_64
virtual machine was measured drifting by +-25% in speed within minutes, more
than any useful regression bound, so after every op (outside its timing) the
benchmark runs a fixed slice of pure-Python work that uses no isocant code,
and scales the pass's times by ``REFERENCE_SLICE_S`` over the mean slice time
of that pass.  A faster or slower isocant moves the scaled times in the same
proportion as the raw ones; a faster or slower machine moves both the ops and
the slices and cancels out.  The raw medians and the speed factors are
printed on standard error.

Every pass is checked: each op's output against an independent reference
where one exists, and the digest of all outputs against the digest committed
in ``digests.json`` for that seed (seeds without one are checked against the
references, and across passes, only).  Any mismatch prints ``"correct":
false`` and exits 1.

With ``--trace 1`` the passes alternate untraced and traced; the traced ones
give the per-layer metrics (self time of the spans around each call into a
layer, and counts the benchmark computes from the calls' inputs and outputs),
and ``trace.overhead_ratio`` is the traced over the untraced pass wall time.
The spans themselves (name, start, end, parent, op id) are written to
standard error, one line per traced pass, when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the human-readable
report, with sample counts, goes to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import isocant  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import BUILDERS, WORKLOADS, Workload, canon, cli_env  # noqa: E402

SETUP_PROBES = 15
IMPORT_PROBES = 7
MIN_PASSES = 2
WORK = ROOT / ".bench_work"
# Slice time, in seconds, that defines the reference speed: about the slice's
# time on a 2.1 GHz x86_64 vCPU under Python 3.11.
REFERENCE_SLICE_S = 0.0005
SETUP_SLICES = 20


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
        "pinning": "none: no CPU pinning or machine setting, the machine may be shared",
    }


def calibration_slice() -> float:
    """Seconds taken by a fixed slice of pure-Python work that uses no isocant code.

    Exact fractions, tuple/set hashing and frozensets: the same interpreter
    paths the workloads spend their time in.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 - 3, 1 + i % 5)
    seen = set()
    for a, b, c in itertools.combinations(range(14), 3):
        seen.add((a * b - c, frozenset((a, b, c))))
    return perf_counter() - start


def speed(slices: list[float]) -> float:
    """Factor that scales a time measured next to ``slices`` to the reference speed."""
    return REFERENCE_SLICE_S / statistics.fmean(slices)


def quantile(values: list[float], q: int) -> float:
    """The q-th decile boundary, as ``statistics.quantiles(values, n=10)`` gives it."""
    return statistics.quantiles(values, n=10)[q - 1]


# -------------------------------------------------------------------- set-up
def setup_probe(workload: str, seed: int) -> None:
    """Body of a ``--setup-probe`` child: build the inputs, then say so."""
    probe_dir = WORK / f"probe-{os.getpid()}"
    probe_dir.mkdir(parents=True)
    try:
        BUILDERS[workload](seed, probe_dir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(probe_dir)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh child until its inputs are built."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], float]:
    """Raw set-up times of fresh probes, and the speed factor measured between them."""
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    time_setup(workload, seed)  # untimed: warms the file cache
    times, slices = [], []
    for _ in range(SETUP_PROBES):
        slices.extend(calibration_slice() for _ in range(SETUP_SLICES))
        times.append(time_setup(workload, seed))
    return times, speed(slices)


def measure_import(root: Path) -> list[float]:
    """Fresh ``import isocant`` minus a bare interpreter start, in seconds."""
    env = cli_env(root)

    def start(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - t0

    return [start("import isocant") - start("pass") for _ in range(IMPORT_PROBES)]


# -------------------------------------------------------------------- passes
class Pass:
    """One timed pass over the op list, then its checks.

    ``latencies`` and ``wall`` (their sum) are raw seconds; ``speed`` scales
    them to the reference speed.
    """

    def __init__(self, workload: Workload, traced: bool) -> None:
        self.tracer = Tracer(traced)
        self.latencies: list[float] = []
        self.failed = 0
        records = []
        outputs = []
        slices = []
        for op_id, op in enumerate(workload.ops):
            self.tracer.op_id = op_id
            t0 = perf_counter()
            try:
                outputs.append((True, self.tracer.span("bench.op", op.run, self.tracer)))
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                outputs.append((False, exc))
                log(f"op {op_id} ({op.kind} {op.size}) raised:\n" + traceback.format_exc())
            self.latencies.append(perf_counter() - t0)
            slices.append(calibration_slice())
        self.wall = sum(self.latencies)
        self.speed = speed(slices)
        for op_id, (op, (ok, out)) in enumerate(zip(workload.ops, outputs)):
            if not ok:
                self.failed += 1
                records.append({"raised": type(out).__name__, "message": str(out)})
                continue
            try:
                records.append(canon(op.check(out)))
            except Exception as exc:  # a malformed output fails its op like a wrong one
                self.failed += 1
                records.append({"check_failed": f"{type(exc).__name__}: {exc}"})
                log(f"op {op_id} ({op.kind} {op.size}) check failed: {type(exc).__name__}: {exc}")
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(text.encode()).hexdigest()


def run_passes(workload: Workload, seconds: float, trace: bool) -> list[Pass]:
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(Pass(workload, traced=trace and len(passes) % 2 == 1))
        last = passes[-1]
        log(f"pass {len(passes)} raw wall {last.wall:.4f} s speed {last.speed:.4f} traced {last.tracer.on}")
    return passes


# ------------------------------------------------------------------- metrics
def end_to_end(workload: Workload, passes: list[Pass], setups: list[float], setup_speed: float) -> tuple[dict, dict]:
    latencies_ms = [t * 1000 * p.speed for p in passes for t in p.latencies]
    if workload.children is not None:
        peak_kib = workload.children.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups) * setup_speed,
        "wall_s": statistics.median(p.wall * p.speed for p in passes),
        "op_p50_ms": quantile(latencies_ms, 5),
        "op_p90_ms": quantile(latencies_ms, 9),
        "peak_rss_mb": peak_kib / 1024,
    }
    beyond = sum(t > values["op_p90_ms"] for t in latencies_ms)
    samples = {
        "setup_s": f"median of {len(setups)} set-up probes (raw {statistics.median(setups):.4g} s, speed {setup_speed:.4f})",
        "wall_s": f"median of {len(passes)} passes (raw {statistics.median(p.wall for p in passes):.4g} s)",
        "op_p50_ms": f"{len(latencies_ms)} ops",
        "op_p90_ms": f"{len(latencies_ms)} ops, {beyond} beyond",
        "peak_rss_mb": "largest child process" if workload.children else "this process",
    }
    return values, samples


def per_layer(workload: str, passes: list[Pass], names: list[str]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.tracer.on]
    plain = [p for p in passes if not p.tracer.on]
    summaries = [
        {k: v * p.speed if k.endswith("_s") else v for k, v in p.tracer.summary().items()} for p in traced
    ]
    values = {name: statistics.median(s.get(name, 0.0) for s in summaries) for name in names}
    if values.get("geometry.subsets"):
        values["geometry.vertex_yield"] = values["geometry.vertices"] / values["geometry.subsets"]
    values["trace.overhead_ratio"] = statistics.median(p.wall * p.speed for p in traced) / statistics.median(
        p.wall * p.speed for p in plain
    )
    if workload == "cli":
        values["cli.import_s"] = statistics.median(measure_import(ROOT))
    busy = {n: v for n, v in values.items() if n.endswith(".busy_s") or n == "cli.proc_s"}
    total = sum(busy.values()) or 1.0
    shares = {n.partition(".")[0]: v / total for n, v in busy.items()}
    note = {name: f"median of {len(traced)} traced passes" for name in names}
    note["trace.overhead_ratio"] = f"{len(traced)} traced / {len(plain)} untraced passes"
    if workload == "cli":
        note["cli.import_s"] = f"median of {IMPORT_PROBES} probe pairs"
    log("self-time share by layer: " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    for p in traced:
        log("spans " + json.dumps(p.tracer.spans))
    return values, note


# ---------------------------------------------------------------------- main
def bench_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    log("env " + json.dumps(environment()))
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    setups, setup_speed = measure_setup(args.workload, args.seed)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = BUILDERS[args.workload](args.seed, workdir)
        warm = workload.ops[0]
        warm.check(warm.run(Tracer(False)))  # untimed warm-up op
        passes = run_passes(workload, args.seconds, bool(args.trace))
        if args.trace:
            defs = spec["per_layer"]
            values, samples = per_layer(args.workload, passes, [m["name"] for m in defs])
        else:
            defs = spec["end_to_end"]
            values, samples = end_to_end(workload, passes, setups, setup_speed)
    finally:
        shutil.rmtree(workdir)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    committed = load_digests().get(args.workload, {}).get(str(args.seed))
    digest = passes[0].digest
    if len(digests) > 1:
        gate = "MISMATCH: passes disagree"
    elif committed is None:
        gate = "no committed digest for this seed: references and pass agreement only"
    else:
        gate = "match" if committed == digest else f"MISMATCH: committed {committed}"
    correct = failed == 0 and not gate.startswith("MISMATCH")
    log(f"passes {len(passes)}  ops/pass {len(workload.ops)}  digest {digest}  gate: {gate}")
    log(f"op_fail_ratio {failed / attempted} ({failed}/{attempted} ops)")
    for m in defs:
        log(f"{m['name']:<28} {values[m['name']]:<24.10g} {m['unit']:<6} {samples[m['name']]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def bench_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another, and one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"{workload}: exited {proc.returncode} without a result")
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    log(f"{'workload.metric':<40} {'value':<24} unit")
    for name, metric in merged["metrics"].items():
        log(f"{name:<40} {metric['value']:<24.10g} {metric['unit']}")
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if Path(isocant.__file__).resolve().parent != ROOT / "src" / "isocant":
        log(f"isocant was imported from {isocant.__file__}, not from this checkout's src/")
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return bench_all(args)
    return bench_one(args)


if __name__ == "__main__":
    sys.exit(main())
