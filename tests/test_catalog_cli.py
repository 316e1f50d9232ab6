import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from paracosym.catalog import _lie_family, catalog, catalog_entry
from paracosym.parser import load_definition
from paracosym.report import run_analyze

NAMES = [e.name for e in catalog()]

# sha256 of `run_analyze(entry.definition()).to_json()` for every catalog
# entry, pinned before the check families moved onto `geometry.contract`,
# and for two draws of the left-invariant family (LIE_DRAWS), pinned before
# `scalars.canon` moved onto polynomial rings: any refactor of the engine
# must keep the --json output byte-identical.
with open(os.path.join(os.path.dirname(__file__), "golden_analyze.json")) as _fh:
    GOLDEN = json.load(_fh)


def _run(args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "paracosym.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _report_facts(tree):
    got = {}
    got["axioms_ok"] = tree["axioms"]["ok"]
    if "alpha_gate" in tree:
        got["is_apc"] = tree["alpha_gate"]["is_apc"]
        if got["is_apc"]:
            got["alpha"] = tree["alpha_gate"]["alpha"]
            got["alpha_constant"] = tree["alpha_gate"]["constant"]
    if "normality" in tree:
        got["normal"] = tree["normality"]["normal"]
    if "leaves" in tree:
        got["pk_leaves"] = tree["leaves"]["para_kaehler"]
        got["umbilical"] = tree["leaves"]["umbilical"]
    if "curvature" in tree:
        got["harmonic"] = tree["curvature"]["harmonicity"]["harmonic"]
        cc = tree["curvature"]["constant_curvature"]
        got["flat"] = cc["is_constant"] and cc["c"] == "0"
        got["constant_curvature"] = cc["c"] if cc["is_constant"] else None
    if "nullity" in tree:
        got["nullity_status"] = tree["nullity"]["status"]
        got["nullity"] = (
            tree["nullity"]["kappa"],
            tree["nullity"]["mu"],
            tree["nullity"]["nu"],
        )
    if "classification" in tree and "h_type" in tree["classification"]:
        got["h_type"] = tree["classification"]["h_type"]
        got["lambda2"] = tree["classification"]["lambda2"]
    return got


@pytest.mark.parametrize("name", NAMES)
def test_catalog_entry_health(name):
    entry = catalog_entry(name)
    rep = run_analyze(entry.definition())
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == GOLDEN[name]
    summary = rep.tree["summary"]
    if entry.negative_control:
        assert rep.exit_code == 2
    else:
        assert rep.exit_code == 0, summary["failed_checks"]
        assert summary["failed"] == 0
    got = _report_facts(rep.tree)
    for key, want in entry.expected.items():
        assert key in got, f"{key} missing from report"
        assert got[key] == want, f"{key}: expected {want!r}, got {got[key]!r}"


# name -> (a, b, c, d): p = a*x + b*y, q = c*x + d*y, declared alpha
# (a + d)/2, as in the benchmark's lie3d pool; an H1 draw whose frame
# construction passes through sqrt(6), and an H3 draw
LIE_DRAWS = {
    "lie_2_3_m2_1": ("2", "3", "-2", "1"),
    "lie_1_1_1_0": ("1", "1", "1", "0"),
}


@pytest.mark.parametrize("name", sorted(LIE_DRAWS))
def test_lie_family_digest(name):
    a, b, c, d = (Fraction(v) for v in LIE_DRAWS[name])
    text = _lie_family(f"({a})*x + ({b})*y", f"({c})*x + ({d})*y") + f"alpha = {(a + d) / 2}\n"
    rep = run_analyze(load_definition(text))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == GOLDEN[name]


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_entry("no_such_entry")


def test_cli_catalog_list():
    proc = _run(["catalog", "--list"])
    assert proc.returncode == 0
    for name in NAMES:
        assert name in proc.stdout


def test_cli_emit_then_verify(tmp_path):
    proc = _run(["catalog", "--emit", "example_e"])
    assert proc.returncode == 0
    path = tmp_path / "entry.txt"
    path.write_text(proc.stdout)
    check = _run(["verify", str(path)])
    assert check.returncode == 0, check.stdout + check.stderr


def test_cli_verify_negative_control(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(catalog_entry("perturbed_metric").definition_text)
    proc = _run(["verify", str(path)])
    assert proc.returncode == 2


# 1/x and -1/x have a pole at the base point (0, 1, 0); the signature item
# must say so instead of counting the pole as a pivot of either sign
POLE_AT_BASE = """
[chart]
dim = 3
coords = [x, y, z]
base_point = [0, 1, 0]

[structure]
xi = [0, 0, 1]
eta = [0, 0, 1]
phi = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
metric = [[1/x, 0, 0], [0, -1/x, 0], [0, 0, 1]]
"""


def test_cli_verify_pole_at_base_point(tmp_path):
    path = tmp_path / "pole.txt"
    path.write_text(POLE_AT_BASE)
    proc = _run(["verify", str(path), "--json"])
    assert proc.returncode == 2, proc.stderr
    items = json.loads(proc.stdout)["axioms"]["items"]
    assert {
        "name": "signature (n+1,n) at base point",
        "status": "fail",
        "witness": "denominator vanishes at point (0, 1, 0)",
    } in items


# phi has a pole at the base point: the D+/D- items fail with the pole as
# their witness, and the report still reaches stdout
PHI_POLE_AT_BASE = POLE_AT_BASE.replace(
    "phi = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]", "phi = [[0, 1, 0], [1, 0, 1/x], [0, 0, 0]]"
).replace("metric = [[1/x, 0, 0], [0, -1/x, 0], [0, 0, 1]]", "metric = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]")


def test_cli_verify_phi_pole_at_base_point(tmp_path):
    path = tmp_path / "phi_pole.txt"
    path.write_text(PHI_POLE_AT_BASE)
    proc = _run(["verify", str(path), "--json"])
    assert proc.returncode == 2, proc.stderr
    items = json.loads(proc.stdout)["axioms"]["items"]
    for label in ("D+", "D-"):
        assert {
            "name": f"dim {label} = n at base point",
            "status": "fail",
            "witness": "denominator vanishes at point (0, 1, 0)",
        } in items


def test_cli_dim_above_bound_exits_4(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text(catalog_entry("flat_product").definition_text.replace("dim = 3", "dim = 15"))
    proc = _run(["analyze", str(path)])
    assert proc.returncode == 4
    assert "at most 9" in proc.stderr


def test_cli_missing_file():
    proc = _run(["verify", "/nonexistent/definition.txt"])
    assert proc.returncode == 4


def test_cli_unparseable_definition(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("[chart]\ndim = 3\ncoords = [x, y, z]\n")
    proc = _run(["analyze", str(path)])
    assert proc.returncode == 4


def test_cli_huge_exponent_exits_4(tmp_path):
    text = catalog_entry("flat_product").definition_text
    assert "xi = [0, 0, 1]" in text
    path = tmp_path / "huge.txt"
    path.write_text(text.replace("xi = [0, 0, 1]", "xi = [0, 0, (x + y)^1000000]"))
    proc = _run(["verify", str(path)])
    assert proc.returncode == 4
    assert "exponent" in proc.stderr


@pytest.mark.parametrize("literal", ["7" * 5001, "1." + "3" * 5000], ids=["integer", "decimal"])
def test_cli_huge_literal_exits_4(tmp_path, literal):
    # longer than the interpreter's int-string limit: int() would raise ValueError
    text = catalog_entry("flat_product").definition_text
    path = tmp_path / "huge.txt"
    path.write_text(text.replace("xi = [0, 0, 1]", f"xi = [0, 0, {literal}]"))
    proc = _run(["verify", str(path)])
    assert proc.returncode == 4
    assert "digits" in proc.stderr


def test_cli_import_leaves_out_sympy_combinatorics():
    # importing sympy.combinatorics costs about 25 ms in every CLI process
    code = "import sys, paracosym.cli; print('sympy.combinatorics' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_analyze_json_deterministic(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    first = _run(["analyze", "--json", str(path)])
    second = _run(["analyze", "--json", str(path)])
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    tree = json.loads(first.stdout)
    assert tree["summary"]["exit_code"] == 0
    assert tree["classification"]["h_type"] == "H1"


def test_cli_deform(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    proc = _run(["deform", "--gamma", "3", "--beta", "2", "--json", str(path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tree = json.loads(proc.stdout)
    assert tree["deformed"]["alpha"] == "1/2"
    bad_beta = _run(["deform", "--gamma", "3", "--beta", "x", str(path)])
    assert bad_beta.returncode == 2


def test_cli_conformal_deform(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    proc = _run(["deform", "--conformal-u", "z", str(path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    wrong = _run(["deform", "--conformal-u", "x", str(path)])
    assert wrong.returncode == 2


def test_cli_verbosity_env(tmp_path):
    import os

    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    env0 = dict(os.environ, PARACOSYM_VERBOSITY="0")
    env2 = dict(os.environ, PARACOSYM_VERBOSITY="2")
    quiet = _run(["analyze", str(path)], env=env0)
    loud = _run(["analyze", str(path)], env=env2)
    assert quiet.returncode == 0 and loud.returncode == 0
    assert len(loud.stdout) > len(quiet.stdout)
