"""Self-tests of the benchmark (not part of the engine's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout; takes about 15 s.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from oracle import lie_known_answer, mismatches
from run import END_TO_END, PER_LAYER, PROBE_REF_S, Outcome, probe, speed
from workloads import (
    CATALOG_NAMES,
    HERE,
    Call,
    draw_lie_params,
    lie_call,
    load_bundles,
    workload_calls,
)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


@pytest.fixture(scope="module")
def expected():
    sys.path.insert(0, SRC)
    from paracosym.catalog import catalog

    return {e.name: e.expected for e in catalog()}


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "paracosym.cli", *args],
        capture_output=True,
        env=ENV,
        cwd=ROOT,
        timeout=120,
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def h3_rotation(tmp_path_factory):
    path = tmp_path_factory.mktemp("defs") / "h3_rotation.def"
    code, text = _cli("catalog", "--emit", "h3_rotation")
    assert code == 0
    path.write_bytes(text)
    code, out = _cli("analyze", str(path), "--json")
    return path, code, out


def test_seeded_draw_is_deterministic():
    for seed in range(20):
        assert workload_calls("lie3d", seed) == workload_calls("lie3d", seed)
    import random

    a, b = random.Random(7), random.Random(7)
    assert [draw_lie_params(a) for _ in range(50)] == [draw_lie_params(b) for _ in range(50)]
    assert len({tuple(workload_calls("lie3d", s)) for s in range(40)}) > 1


def test_bundles_follow_the_draw_rule():
    members = [p for b in load_bundles() for p in b]
    assert len(members) == len(set(members))
    for params in members:
        for f in params:
            assert -3 <= f.numerator <= 3 and f.denominator in (1, 2)


def test_every_call_has_a_pinned_digest():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    calls = workload_calls("analyze_5d", 0) + workload_calls("verify_deform", 0)
    calls += [lie_call(p) for b in load_bundles() for p in b]
    assert {c.key for c in calls} == set(pinned)
    assert {c.entry for c in workload_calls("verify_deform", 0) if c.command == "verify"} == set(CATALOG_NAMES)


def test_lie_rule_types():
    q = Fraction
    assert lie_known_answer(q(1), q(0), q(2), q(1))["h_type"] == "H1"  # example_e
    assert lie_known_answer(q(2), q(0), q(0), q(0))["h_type"] == "H3"  # h3_rotation
    assert lie_known_answer(q(2), q(0), q(2), q(0))["h_type"] == "H2"  # h2_nilpotent
    assert lie_known_answer(q(1), q(2), q(2), q(1))["h_type"] == "Zero"


def test_oracle_accepts_h3_rotation(h3_rotation, expected):
    _, code, out = h3_rotation
    tree = json.loads(out)
    assert mismatches(Call("analyze", "h3_rotation"), code, tree, expected) == []
    as_draw = Call("analyze", "h3_rotation", lie=("2", "0", "0", "0"))
    assert mismatches(as_draw, code, tree, expected) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("classification", "h_type"), "H1"),
        (("classification", "lambda2"), "2"),
        (("alpha_gate", "alpha"), "2"),
        (("curvature", "harmonicity", "harmonic"), False),
    ],
)
def test_oracle_rejects_a_doctored_answer(h3_rotation, expected, path, value):
    _, code, out = h3_rotation
    tree = copy.deepcopy(json.loads(out))
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    for call in (Call("analyze", "h3_rotation"), Call("analyze", "h3_rotation", lie=("2", "0", "0", "0"))):
        assert mismatches(call, code, tree, expected)
    assert mismatches(Call("analyze", "h3_rotation"), 3, json.loads(out), expected)


def test_traced_run_reports_known_layers(h3_rotation, tmp_path):
    path, _, out = h3_rotation
    call = Call("analyze", "h3_rotation")
    spec = tmp_path / "call.json"
    spec.write_text(json.dumps({"key": call.key, "command": "analyze", "args": [], "path": str(path)}))
    report = tmp_path / "report.json"
    report.write_bytes(out)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "traced.py"), str(spec), str(report)],
        capture_output=True,
        env=ENV,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout.splitlines()[-1])
    names = {s["name"] for s in trace["spans"]}
    assert names <= set(PER_LAYER)
    assert {"classify.h_type_s", "curvature.phi_average_s", "report.to_json_s"} <= names
    assert trace["counters"]["cancel"]["calls"] > 0
    summary = json.loads(out)["summary"]
    assert trace["check_items"] == summary["passed"] + summary["failed"] + summary["skipped"]


def test_speed_is_reference_over_mean_probe_time():
    assert probe() > 0
    slow = Outcome(1.0, 1.0, 0, b"", [2 * PROBE_REF_S, 4 * PROBE_REF_S])
    fast = Outcome(1.0, 1.0, 0, b"", [PROBE_REF_S / 2])
    assert speed([slow]) == pytest.approx(1 / 3)
    assert speed([slow, fast]) == pytest.approx(1 / (6.5 / 3))
    assert speed([]) == 1.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["lie3d", "analyze_5d", "verify_deform"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "lie3d", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
