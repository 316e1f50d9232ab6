"""End-to-end benchmark of the paracosym command line.

    python3 bench/run.py --workload {lie3d,analyze_5d,verify_deform} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a paracosym checkout; the engine is taken from
`src/` there (nothing is installed).  Each workload is a closed loop with
one client: every call is a fresh `python -m paracosym.cli ... --json`
process, started only after the previous one has exited, so sympy's cache
and the `StructureAnalysis` cached properties start cold, as they do for
a user.  A run makes whole passes over the workload's calls and starts
another pass only while the last pass still fits in `--seconds`; it always
makes at least one.  Every call's answer is checked against a known answer
(`oracle.py`) and its `--json` bytes against the sha256 pinned in
`digests.json`.

The speed of a shared machine's CPU drifts by a third in phases of seconds
to minutes, so timings are reported at a fixed reference speed: the
benchmark and its children share one pinned CPU, and while a child runs
the benchmark times a small fixed unit of interpreter work (`probe`) every
PROBE_INTERVAL_S.  A timing is the measured time times PROBE_REF_S over
the mean probe time during it; the raw times are printed beside it.

`--trace 0` prints the end-to-end metrics; `--trace 1` makes one pass in
which every call runs once untraced and once under `traced.py`, and prints
the per-layer metrics.  The last line of stdout is the result object;
the lines before it name each metric with its unit, the failure and JSON
drift ratios, and the environment.  See README.md for what each workload
and metric is for.
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
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from workloads import HERE, WORKLOADS, Call, definitions, workload_calls

SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.2
# One probe unit takes this long at the reference speed (about the fast
# phase of a 2-vCPU Xeon host); timings are reported in seconds at it.
PROBE_REF_S = 0.002
CALL_LIMIT_S = 120.0
# No call starts later than this after the benchmark started, so a run
# ends well inside 180 s even when the engine got much slower.
RUN_LIMIT_S = 160.0
DIGESTS_FILE = os.path.join(HERE, "digests.json")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed on every timed run but not in BENCHMARK.json: on lie3d the slowest
# call depends on which structures the seed drew, and the raw times carry
# the machine's drift that the reference-speed times take out.
PRINTED_ONLY = {
    "slowest_call_s": "s",
    "raw_wall_s": "s",
    "raw_cpu_s": "s",
    "raw_setup_s": "s",
    "speed": "ratio",
}
# per-layer metric -> unit; names ending in _s are span totals
PER_LAYER = {
    "scalars.cancel_calls": "count",
    "scalars.cancel_s": "s",
    "scalars.cancel_noop_ratio": "ratio",
    "scalars.simplify_calls": "count",
    "scalars.simplify_s": "s",
    "geometry.christoffel_s": "s",
    "geometry.riemann_s": "s",
    "geometry.ricci_s": "s",
    "geometry.nabla_s": "s",
    "geometry.riemann_ops": "count",
    "parser.load_s": "s",
    "cli.import_s": "s",
    "structures.build_s": "s",
    "structures.axioms_s": "s",
    "structures.alpha_gate_s": "s",
    "structures.A_h_s": "s",
    "structures.identity_suite_s": "s",
    "structures.normality_s": "s",
    "structures.leaves_s": "s",
    "curvature.reeb_s": "s",
    "curvature.ricci_suite_s": "s",
    "curvature.phi_average_s": "s",
    "curvature.commutator_s": "s",
    "curvature.space_form_s": "s",
    "curvature.rough_laplacian_s": "s",
    "curvature.jacobi_s": "s",
    "curvature.harmonicity_s": "s",
    "nullity.fit_s": "s",
    "nullity.consequences_s": "s",
    "classify.h_type_s": "s",
    "classify.frame_s": "s",
    "classify.frame_table_s": "s",
    "classify.ricci_formula_s": "s",
    "classify.harmonic_nullity_s": "s",
    "deform.apply_s": "s",
    "deform.rederive_s": "s",
    "deform.laws_s": "s",
    "deform.transport_s": "s",
    "report.to_json_s": "s",
    "report.check_items": "count",
    "trace.overhead_ratio": "ratio",
}


def probe_unit() -> int:
    """A fixed unit of the interpreter work sympy does: small-int and
    Fraction arithmetic, tuple keys, dict inserts, str of big ints."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i)
        table[(i, i % 13)] = str(i * 12345678901)
    return len(table) + acc.denominator % 2


def probe() -> float:
    """CPU seconds one probe unit takes now."""
    t = time.process_time()
    probe_unit()
    return time.process_time() - t


def speed(outcomes: List["Outcome"]) -> float:
    """Reference over measured probe time, pooled over OUTCOMES: above 1
    while the machine runs fast.  A time times this is at the reference speed."""
    samples = [p for o in outcomes for p in o.probes]
    return PROBE_REF_S / statistics.fmean(samples) if samples else 1.0


@dataclass
class Outcome:
    """One finished (or killed) child process."""

    wall: float
    cpu: float
    code: Optional[int]  # None: killed at the time limit
    stdout: bytes
    probes: List[float]  # probe times taken just before and while it ran


class Runner:
    """Starts one child at a time, accounts its wall and CPU time, and
    probes the CPU's speed while it runs."""

    def __init__(self, root: str, deadline: float):
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.root = root
        self.deadline = deadline  # time.perf_counter() after which no call starts
        # The probes measure the CPU the children run on only if both stay
        # on the same one; children inherit this affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: List[str]) -> Outcome:
        timeout = min(CALL_LIMIT_S, self.time_left())
        if timeout <= 0:
            return Outcome(0.0, 0.0, None, b"", [])
        probes = [probe()]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            cwd=self.root,
        )
        code: Optional[int] = None
        try:
            while True:
                try:
                    out, _ = proc.communicate(timeout=PROBE_INTERVAL_S)
                    code = proc.returncode
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - t0 > timeout:
                        proc.kill()
                        out, _ = proc.communicate()
                        break
                    probes.append(probe())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Outcome(wall, cpu, code, out, probes)

    def cli(self, call: Call, defs_dir: str) -> Outcome:
        return self.run(["-m", "paracosym.cli", *call.argv(defs_dir)])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest peak of any child waited for
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------
# correctness


def check(calls: List[Call], outcomes: List[Outcome], expected) -> Dict[str, List[str]]:
    """Problems per call key: 'failed' (crash, time limit, wrong answer)
    and 'drift' (--json bytes differ from the pinned digest)."""
    from oracle import mismatches

    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    failed: List[str] = []
    drift: List[str] = []
    for call, res in zip(calls, outcomes):
        if res.code is None:
            failed.append(f"{call.key}: did not finish (time limit, or its traced run failed)")
            continue
        try:
            tree = json.loads(res.stdout)
        except ValueError:
            tree = None
        problems = mismatches(call, res.code, tree, expected)
        if problems:
            failed.append(f"{call.key}: " + "; ".join(problems))
        digest = hashlib.sha256(res.stdout).hexdigest()
        if pinned.get(call.key) != digest:
            drift.append(f"{call.key}: sha256 {digest} != pinned {pinned.get(call.key)}")
    return {"failed": failed, "drift": drift}


# --------------------------------------------------------------------
# the two kinds of run


def timed_run(runner: Runner, calls: List[Call], defs_dir: str, seconds: float):
    passes = []  # (wall, cpu, slowest, speed) per pass
    all_calls: List[Call] = []
    outcomes: List[Outcome] = []
    measure_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done = [runner.cli(call, defs_dir) for call in calls]
        wall = time.perf_counter() - t0
        passes.append((wall, sum(o.cpu for o in done), max(o.wall for o in done), speed(done)))
        all_calls += calls
        outcomes += done
        elapsed = time.perf_counter() - measure_start
        if elapsed + wall > seconds or runner.time_left() < 2 * wall:
            break
    metrics = {
        "wall_s": statistics.median(p[0] * p[3] for p in passes),
        "cpu_s": statistics.median(p[1] * p[3] for p in passes),
        "slowest_call_s": statistics.median(p[2] * p[3] for p in passes),
        "raw_wall_s": statistics.median(p[0] for p in passes),
        "raw_cpu_s": statistics.median(p[1] for p in passes),
        "speed": speed(outcomes),
    }
    return all_calls, outcomes, metrics, len(passes)


def traced_run(runner: Runner, calls: List[Call], defs_dir: str, work: str):
    outcomes: List[Outcome] = []
    traces = []
    untraced_wall = traced_wall = 0.0
    for i, call in enumerate(calls):
        res = runner.cli(call, defs_dir)
        outcomes.append(res)
        untraced_wall += res.wall * speed([res])
        if res.code is None:
            continue
        call_path = os.path.join(work, f"call-{i}.json")
        report_path = os.path.join(work, f"report-{i}.json")
        with open(call_path, "w", encoding="utf-8") as fh:
            spec = dict(asdict(call), key=call.key, path=call.argv(defs_dir)[1])
            json.dump(spec, fh)
        with open(report_path, "wb") as fh:
            fh.write(res.stdout)
        traced = runner.run([os.path.join(HERE, "traced.py"), call_path, report_path])
        traced_wall += traced.wall * speed([traced])
        if traced.code != 0:
            # a traced call that dies is a failed call of this run
            outcomes[-1] = Outcome(res.wall, res.cpu, None, res.stdout, res.probes)
            continue
        tr = json.loads(traced.stdout.splitlines()[-1])
        tr["speed"] = speed([traced])
        traces.append(tr)

    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER if name.endswith("_s")}
    # span and counter seconds at the reference speed, like the timed runs
    for tr in traces:
        for span in tr["spans"]:
            metrics[span["name"]] += (span["end"] - span["start"]) * tr["speed"]
    cancel = [t["counters"]["cancel"] for t in traces]
    simplify = [t["counters"]["simplify"] for t in traces]
    cancel_calls = sum(c["calls"] for c in cancel)
    metrics.update(
        {
            "scalars.cancel_calls": cancel_calls,
            "scalars.cancel_s": sum(t["counters"]["cancel"]["seconds"] * t["speed"] for t in traces),
            "scalars.cancel_noop_ratio": sum(c["noop"] for c in cancel) / max(cancel_calls, 1),
            "scalars.simplify_calls": sum(c["calls"] for c in simplify),
            "scalars.simplify_s": sum(t["counters"]["simplify"]["seconds"] * t["speed"] for t in traces),
            "geometry.riemann_ops": sum(t["riemann_ops"] for t in traces),
            "report.check_items": sum(t["check_items"] for t in traces),
            "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall else 0.0,
        }
    )
    return outcomes, metrics, traces


# --------------------------------------------------------------------


def write_definitions(calls: List[Call], base: str) -> str:
    """Write the definition file of every call under BASE/defs; return that directory."""
    defs_dir = os.path.join(base, "defs")
    os.makedirs(defs_dir, exist_ok=True)
    for stem, text in definitions(calls).items():
        with open(os.path.join(defs_dir, stem + ".def"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return defs_dir


def use_checkout(root: str) -> bool:
    """Put ROOT/src first on sys.path; False (with a message) outside a checkout."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paracosym", "cli.py")):
        print(f"error: {root} holds no src/paracosym; run from a paracosym checkout", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    return True


def environment() -> Dict[str, object]:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not use_checkout(root):
        return 2

    calls = workload_calls(args.workload, args.seed)
    from paracosym.catalog import catalog

    expected = {e.name: e.expected for e in catalog()}
    base = os.path.join(root, ".bench_work")
    defs_dir = write_definitions(calls, base)
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    runner = Runner(root, started + RUN_LIMIT_S)
    setup: List[Outcome] = []
    printed: Dict[str, str] = {}
    try:
        if args.trace:
            outcomes, metrics, traces = traced_run(runner, calls, defs_dir, work)
            run_calls, units = calls, PER_LAYER
            with open(os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
                json.dump(traces, fh)
            print(f"{args.workload} seed {args.seed}: {len(calls)} calls, traced")
        else:
            setup = [runner.run(["-m", "paracosym.cli", "catalog", "--list"]) for _ in range(SETUP_REPEATS)]
            run_calls, outcomes, metrics, passes = timed_run(runner, calls, defs_dir, args.seconds)
            metrics["raw_setup_s"] = statistics.median(o.wall for o in setup)
            metrics["setup_s"] = metrics["raw_setup_s"] * speed(setup)
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
            printed = PRINTED_ONLY
            print(f"{args.workload} seed {args.seed}: {len(calls)} calls x {passes} pass(es)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = check(run_calls, outcomes, expected)
    attempted = len(run_calls) + len(setup)
    failed = len(problems["failed"]) + sum(1 for o in setup if o.code != 0)
    for line in problems["failed"] + problems["drift"]:
        print("  problem:", line)
    for name, unit in {**units, **printed}.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    drift = len(problems["drift"])
    print(f"  {'json_drift_ratio':32s} {drift / len(run_calls):.6g} ratio ({drift}/{len(run_calls)})")
    print("environment: " + json.dumps(environment()))
    result = {
        "correct": failed == 0 and drift == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
