"""Pin the `--json` digests the benchmark checks, and build the lie3d bundles.

    python3 bench/pin.py             # re-pin digests.json
    python3 bench/pin.py --bundles   # re-draw the lie3d pool, regroup it, re-pin

Run from the root of a checkout whose output is known to be right.  Every
call any seed can make runs once; if the oracle rejects any answer,
nothing is written.  Re-pin only when a change alters the JSON on purpose,
and say so in that change.

The lie3d pool is POOL_SIZE distinct draws of `workloads.draw_lie_params`
from random.Random(POOL_SEED).  `--bundles` times each member in
TIMING_PASSES passes (alternating direction), at the reference speed the
benchmark reports (`run.speed`), and groups the pool by mean time into
bundles of about BUNDLE_SECONDS each (`balance`), so the seed, which picks
a bundle, changes the inputs but hardly the amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List

from oracle import mismatches
from run import DIGESTS_FILE, Runner, environment, speed, use_checkout, write_definitions
from workloads import BUNDLES_FILE, Call, draw_lie_params, lie_call, load_bundles, workload_calls

POOL_SEED = 0
POOL_SIZE = 36
TIMING_PASSES = 2
BUNDLE_SECONDS = 32.0


def draw_pool():
    rng = random.Random(POOL_SEED)
    pool: List = []
    while len(pool) < POOL_SIZE:
        params = draw_lie_params(rng)
        if params not in pool:
            pool.append(params)
    return pool


def balance(costs: Dict[tuple, float]) -> List[List[tuple]]:
    """Group COSTS' keys into bundles of about BUNDLE_SECONDS: longest
    first, each into the lightest bundle, then single moves and swaps
    between two bundles while they make the bundle totals more even."""
    n = max(1, int(sum(costs.values()) // BUNDLE_SECONDS))
    bundles: List[List[tuple]] = [[] for _ in range(n)]

    def total(b: List[tuple]) -> float:
        return sum(costs[p] for p in b)

    for params in sorted(costs, key=lambda p: -costs[p]):
        min(bundles, key=total).append(params)

    def gain(move) -> float:  # cost that moves from the heavier bundle to the lighter
        a, b = move
        return costs[a] - (costs[b] if b else 0.0)

    improved = True
    while improved:
        improved = False
        for hi in bundles:
            for lo in bundles:
                gap = total(hi) - total(lo)
                moves = [(a, None) for a in hi if len(hi) > 1] + [(a, b) for a in hi for b in lo]
                if gap <= 0 or not moves:
                    continue
                a, b = min(moves, key=lambda m: abs(gap - 2 * gain(m)))
                if 0 < gain((a, b)) < gap:  # the two totals end closer together
                    hi.remove(a)
                    lo.append(a)
                    if b:
                        lo.remove(b)
                        hi.append(b)
                    improved = True
    for b in bundles:
        b.sort(key=lambda p: -costs[p])
    return bundles


def main(argv: List[str]) -> int:
    root = os.getcwd()
    if not use_checkout(root):
        return 2
    from paracosym.catalog import catalog

    expected = {e.name: e.expected for e in catalog()}
    rebundle = "--bundles" in argv
    pool = draw_pool() if rebundle else [p for b in load_bundles() for p in b]
    calls: List[Call] = workload_calls("analyze_5d", 0) + workload_calls("verify_deform", 0)
    calls += [lie_call(p) for p in pool]
    defs_dir = write_definitions(calls, os.path.join(root, ".bench_work"))
    runner = Runner(root, float("inf"))

    digests: Dict[str, str] = {}
    costs: Dict[tuple, List[float]] = {}
    bad = 0
    for call in calls:
        res = runner.cli(call, defs_dir)
        tree = json.loads(res.stdout) if res.stdout else None
        problems = mismatches(call, res.code, tree, expected)
        cost = res.wall * speed([res])
        print(f"{cost:7.2f} s  {call.key}" + (f"  WRONG: {problems}" if problems else ""), flush=True)
        bad += bool(problems)
        digests[call.key] = hashlib.sha256(res.stdout).hexdigest()
        if call.lie:
            costs[tuple(call.lie)] = [cost]
    if bad:
        print(f"{bad} wrong answers; nothing pinned", file=sys.stderr)
        return 1

    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    if rebundle:
        lie_calls = [c for c in calls if c.lie]
        for k in range(1, TIMING_PASSES):
            for call in lie_calls[::-1] if k % 2 else lie_calls:
                res = runner.cli(call, defs_dir)
                costs[tuple(call.lie)].append(res.wall * speed([res]))
        mean = {p: sum(t) / len(t) for p, t in costs.items()}
        bundles = balance(mean)
        doc = {
            "pool": f"{POOL_SIZE} distinct draws of draw_lie_params from random.Random({POOL_SEED})",
            "timed_on": dict(environment(), date=time.strftime("%Y-%m-%d"), machine=platform.machine()),
            "bundles": bundles,
            "seconds": [[round(mean[p], 2) for p in b] for b in bundles],
        }
        with open(BUNDLES_FILE, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
