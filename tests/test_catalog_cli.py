import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from paracosym.catalog import _lie_family, catalog, catalog_entry
from paracosym.cli import main
from paracosym.errors import EXIT_PARSE
from paracosym.parser import load_definition
from paracosym.report import run_analyze
from paracosym.scalars import MAX_GENERATOR_POWER

NAMES = [e.name for e in catalog()]

# sha256 of `run_analyze(entry.definition()).to_json()` for every catalog
# entry, pinned before the check families moved onto `geometry.contract`,
# and for two draws of the left-invariant family (LIE_DRAWS), pinned before
# `scalars.canon` moved onto polynomial rings, and for two generator-bearing
# draws (GENERATOR_DRAWS), pinned before the adapted frame's seed and signs
# were decided exactly: any refactor of the engine must keep the --json
# output byte-identical.
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


def _lie_draw_text(name: str) -> str:
    a, b, c, d = (Fraction(v) for v in LIE_DRAWS[name])
    return _lie_family(f"({a})*x + ({b})*y", f"({c})*x + ({d})*y") + f"alpha = {(a + d) / 2}\n"


@pytest.mark.parametrize("name", sorted(LIE_DRAWS))
def test_lie_family_digest(name):
    rep = run_analyze(load_definition(_lie_draw_text(name)))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == GOLDEN[name]


# name -> (p, q, base point) of a _lie_family draw with E = exp(z) at a base
# point where z != 0, so that the frame's seed and signs read values in
# QQ(e): an H1 frame, and an H3 one that fails its h-action pattern (the
# rotation defect of the H3 frames)
GENERATOR_DRAWS = {
    "lie_E_h1": ("x", "E*x + y", "[1, 1, 1]"),
    "lie_E_h3": ("x + E*y", "-y", "[1, 2, 1/2]"),
}
EXP_Z = "\n[generators]\nE = { coord = z, rate = 1 }\n"


@pytest.mark.parametrize("name", sorted(GENERATOR_DRAWS))
def test_generator_frame_digest(name):
    rep = run_analyze(load_definition(_lie_family(*GENERATOR_DRAWS[name]) + EXP_Z))
    assert rep.exit_code == 0
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == GOLDEN[name]


def _refuse_witness(*args):
    raise AssertionError("a witness printed for a line the tower proved zero")


def test_pinned_3d_reports_are_decided_by_the_tower_alone(monkeypatch):
    # with sympy's witness printer raising, and any derivative taken on the
    # sympy domain raising too, every pinned 3D input without a failing
    # frame line gives its pinned bytes: no verdict reads sympy, and the
    # printed frame is never differentiated. lie_E_h3 is left out, its
    # frame_error carries a witness
    from paracosym import classify

    tower_diff = classify._Domain.diff

    def diff(D, e, coord_index):
        if D.tower is None:
            raise AssertionError("the printed sympy frame differentiated")
        return tower_diff(D, e, coord_index)

    monkeypatch.setattr(classify, "_witness", _refuse_witness)
    monkeypatch.setattr(classify._Domain, "diff", diff)
    texts = {name: catalog_entry(name).definition_text for name in NAMES if catalog_entry(name).definition().dim == 3}
    texts.update({name: _lie_draw_text(name) for name in LIE_DRAWS})
    texts["lie_E_h1"] = _lie_family(*GENERATOR_DRAWS["lie_E_h1"]) + EXP_Z
    assert len(texts) == 12
    for name, text in sorted(texts.items()):
        rep = run_analyze(load_definition(text))
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == GOLDEN[name], name


@pytest.mark.slow
def test_lie3d_pool_digests(monkeypatch):
    # every draw of the benchmark's lie3d pool against the digest the
    # benchmark pinned for it (read, never written here); a draw whose frame
    # passes is decided with sympy's witness printer raising
    from paracosym import classify

    witness = classify._witness
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    from workloads import lie_call, lie_definition, load_bundles

    pinned = json.loads((bench / "digests.json").read_text())
    pool = [params for bundle in load_bundles() for params in bundle]
    assert len(pool) == 36
    drifted = []
    for params in pool:
        monkeypatch.setattr(classify, "_witness", _refuse_witness)
        try:
            rep = run_analyze(load_definition(lie_definition(params)))
        except AssertionError:
            monkeypatch.setattr(classify, "_witness", witness)
            rep = run_analyze(load_definition(lie_definition(params)))
            assert "frame_error" in rep.tree["classification"] or rep.exit_code == 3, params
        if hashlib.sha256(rep.to_json().encode()).hexdigest() != pinned[lie_call(params).key]:
            drifted.append(params)
    assert drifted == []


def test_no_catalog_entry_or_lie3d_draw_has_a_nullity_pole_at_its_base_point():
    # the pole item is printed only when a fitted function is undefined at
    # the base point, which no pinned input has
    from paracosym.nullity import nullity_fit
    from paracosym.report import _pole_item
    from paracosym.structures import AlmostParacontactStructure, StructureAnalysis

    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    from workloads import lie_definition, load_bundles

    defns = [catalog_entry(name).definition() for name in NAMES]
    defns += [load_definition(lie_definition(params)) for bundle in load_bundles() for params in bundle]
    assert len(defns) == 48
    fitted = 0
    for defn in defns:
        an = StructureAnalysis(AlmostParacontactStructure.from_definition(defn))
        if not (an.axioms_ok and an.is_apc):
            continue
        fit = nullity_fit(an)
        if fit.status in ("exact", "degenerate_h_zero"):
            fitted += 1
            assert _pole_item(an, zip(("kappa", "mu", "nu"), fit.triple)) is None
    assert fitted


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


def test_cli_verify_reads_a_byte_order_mark(tmp_path):
    # a definition saved with a UTF-8 byte-order mark, as Windows editors
    # save it, reads as the same definition
    text = _run(["catalog", "--emit", "example_e"]).stdout
    (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
    (tmp_path / "bom.txt").write_text(text, encoding="utf-8-sig")
    plain, bom = (_run(["verify", "--json", str(tmp_path / f"{d}.txt")]) for d in ("plain", "bom"))
    assert bom.returncode == plain.returncode == 0, bom.stdout + bom.stderr
    assert bom.stdout == plain.stdout


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


# the metric is degenerate at the base point (its first entry is x): the
# witness prints the point as the pole witness does
DEGENERATE_AT_BASE = POLE_AT_BASE.replace(
    "metric = [[1/x, 0, 0], [0, -1/x, 0], [0, 0, 1]]", "metric = [[x, 0, 0], [0, -1, 0], [0, 0, 1]]"
)


def test_cli_verify_degenerate_metric_at_base_point(tmp_path):
    path = tmp_path / "degenerate.txt"
    path.write_text(DEGENERATE_AT_BASE)
    proc = _run(["verify", str(path), "--json"])
    assert proc.returncode == 2, proc.stderr
    items = json.loads(proc.stdout)["axioms"]["items"]
    assert {
        "name": "signature (n+1,n) at base point",
        "status": "fail",
        "witness": "metric degenerate at point (0, 1, 0)",
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


# phi carries the generator E = exp(2t), so its value at the base point lies
# in QQ(E): the D+/D- items are decided exactly, at t = 0 (E = 1) and at
# t = 1 (E = e^2, transcendental), and the report reaches stdout with the
# structural failure of g(phi., phi.) = -g + eta(x)eta
PHI_GENERATOR = catalog_entry("warped_kenmotsu").definition_text.replace(
    "phi = [[0, 1, 0],\n       [1, 0, 0],", "phi = [[0, E, 0],\n       [1/E, 0, 0],"
)


@pytest.mark.parametrize("t", ["0", "1"])
@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_cli_phi_generator_at_base_point(tmp_path, command, t):
    assert "[1/E, 0, 0]" in PHI_GENERATOR
    path = tmp_path / "phi_generator.txt"
    path.write_text(PHI_GENERATOR.replace("base_point = [0, 0, 0]", f"base_point = [0, 0, {t}]"))
    proc = _run([command, str(path), "--json"])
    assert proc.returncode == 2, proc.stderr
    tree = json.loads(proc.stdout)
    assert tree["chart"]["base_point"] == ["0", "0", t]
    status = {it["name"]: it["status"] for it in tree["axioms"]["items"]}
    assert status["dim D+ = n at base point"] == "pass"
    assert status["dim D- = n at base point"] == "pass"
    assert status["signature (n+1,n) at base point"] == "pass"
    assert status["g(phi.,phi.) = -g + eta(x)eta"] == "fail"


def test_cli_deform_generator_beta(tmp_path):
    # beta = E/10^13 is 1e-13 at the base point: accepted; E - 1 is 0 there
    path = tmp_path / "wk.txt"
    path.write_text(catalog_entry("warped_kenmotsu").definition_text)
    tiny = _run(["deform", "--gamma", "1", "--beta", "E/10000000000000", "--json", str(path)])
    assert tiny.returncode == 0, tiny.stdout + tiny.stderr
    assert json.loads(tiny.stdout)["deformation"]["beta"] == "E/10000000000000"
    zero = _run(["deform", "--gamma", "1", "--beta", "E - 1", str(path)])
    assert zero.returncode == 2
    assert "beta vanishes at the base point" in zero.stderr


def test_cli_dim_above_bound_exits_4(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text(catalog_entry("flat_product").definition_text.replace("dim = 3", "dim = 15"))
    proc = _run(["analyze", str(path)])
    assert proc.returncode == 4
    assert "at most 9" in proc.stderr


def test_cli_missing_file():
    proc = _run(["verify", "/nonexistent/definition.txt"])
    assert proc.returncode == 4


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--point", "1,a,0"],
        ["analyze", "--point", "1/0,1,0"],
        ["deform", "--gamma", "abc", "--beta", "2"],
        ["deform", "--gamma", "1/0", "--beta", "2"],
    ],
    ids=["point-letter", "point-zero-denominator", "gamma-letters", "gamma-zero-denominator"],
)
def test_cli_bad_rational_option_exits_4(tmp_path, args):
    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    proc = _run([*args, str(path)])
    assert proc.returncode == 4, proc.stderr
    assert "bad rational literal" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "entry, old, new, options, offset",
    [
        ("flat_product", "xi = [0, 0, 1]", "xi = [0, 0, 1 + x/(y - y)]", ["verify"], 5),
        ("example_e", "", "", ["deform", "--gamma", "2", "--beta", "1/(x-x)"], 1),
    ],
    ids=["definition-entry", "beta"],
)
def test_cli_division_by_zero_expression_exits_4(tmp_path, capsys, entry, old, new, options, offset):
    # an expression that divides by an identically zero one is a parse
    # error, reported at the offset of its '/'; it used to exit 2
    text = catalog_entry(entry).definition_text
    assert old in text
    path = tmp_path / "zero.txt"
    path.write_text(text.replace(old, new))
    assert main([*options, str(path)]) == 4
    assert capsys.readouterr().err == f"error: division by zero (at offset {offset})\n"


def test_cli_point_on_5d_definition_exits_4(tmp_path):
    # the point feeds only the 3D h-type classification: on a 5D definition
    # it used to be accepted and ignored
    path = tmp_path / "five.txt"
    path.write_text(catalog_entry("five_dim_product").definition_text)
    proc = _run(["analyze", "--json", "--point", "7,7,7,7,7", str(path)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: --point applies to a 3-dimensional definition only, not dim 5\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "base, args, code",
    [
        ("[1, 1, 1e5000]", ["verify"], 4),
        ("[1, 1, 0]", ["analyze", "--point", "1,1,1e5000"], 4),
        ("[1, 1, 0]", ["analyze", "--point", "1,1,1e-5000"], 4),
        ("[1, 1, 0]", ["deform", "--gamma", "1e5000", "--beta", "2"], 4),
        ("[1, 1, 0]", ["deform", "--gamma", "1e3", "--beta", "2"], 0),
    ],
    ids=["base-point", "point", "point-negative-exponent", "gamma", "gamma-1e3"],
)
def test_cli_exponent_literal_is_bounded(tmp_path, capsys, base, args, code):
    # Fraction reads 1e5000 as a 5001-digit integer, past MAX_LITERAL_DIGITS,
    # and str() of it raised ValueError: a traceback and exit 1
    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text.replace("[1, 1, 0]", base))
    assert main([args[0], "--json", str(path), *args[1:]]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.endswith("exceeds 1000 digits\n")
    else:
        assert json.loads(out)["deformation"]["gamma"] == "1000"


def test_cli_directory_as_definition_exits_4(tmp_path):
    proc = _run(["verify", str(tmp_path)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: cannot read")


def test_cli_non_utf8_definition_exits_4(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(catalog_entry("example_e").definition_text.encode() + b"# caf\xe9\n")
    proc = _run(["verify", str(path)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: cannot read")


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


def test_cli_huge_degree_exits_4_fast(tmp_path):
    # 16 characters that lowered into 47,905 terms in about 37 s before the
    # degree bound; now the parser refuses the outer ^ before it expands
    text = catalog_entry("flat_product").definition_text
    path = tmp_path / "deep.txt"
    path.write_text(text.replace("xi = [0, 0, 1]", "xi = [0, 0, ((x+y+z+1)^8)^8]"))
    t0 = time.perf_counter()
    code = main(["verify", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 4
    assert elapsed < 0.5, elapsed


def test_cli_generator_of_rate_0_exits_4(tmp_path, capsys):
    # exp(0*z) = 1 is no transcendental: taken as an independent symbol, E
    # made this valid structure (E = 1) fail three axioms with witness E - 1
    text = catalog_entry("flat_product").definition_text
    text = text.replace("[structure]", "[generators]\nE = { coord = z, rate = 0 }\n\n[structure]")
    path = tmp_path / "rate0.txt"
    path.write_text(text.replace("xi = [0, 0, 1]", "xi = [0, 0, E]"))
    t0 = time.perf_counter()
    code = main(["verify", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 4
    assert capsys.readouterr().err == "error: generator 'E': rate 0 makes it the constant 1\n"
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize(
    "entry, old, new, options, code",
    [
        ("warped_kenmotsu", "base_point = [0, 0, 0]", "base_point = [0, 0, 5000]", [], 0),
        ("warped_kenmotsu", "base_point = [0, 0, 0]", "base_point = [0, 0, -5001]", [], 4),
        ("warped_kenmotsu", "", "", ["--point", "0,0,5001"], 4),
        ("flat_product", "base_point = [0, 0, 0]", "base_point = [0, 0, 3000]", [], 4),
        ("dense_9d", "", "", [], 2),
    ],
    ids=["base-at-bound", "base-above-bound", "point-above-bound", "rate-3000", "dense-9d"],
)
def test_cli_generator_power_at_a_point_is_bounded(tmp_path, capsys, entry, old, new, options, code):
    # a generator exp(rate*c) is E**(rate*c*N) at a point, and a sign there
    # raised enclosures of e^(1/N) to that power: rate = base z = 3000 on
    # flat_product ran for over 100 s; E = exp(2t) at t = 5000 is E**10000.
    # The dense 9D metric at a8 = 1000 stays within the bound, but its
    # elimination multiplies the pivots' E-degrees: its signature took 28.6 s
    # with rational enclosures, before they became fixed-point integers
    if entry == "dense_9d":
        text = _dense_nine_dim_definition(1000)
    else:
        text = catalog_entry(entry).definition_text.replace(old, new)
    if entry == "flat_product":
        text = text.replace("[structure]", "[generators]\nE = { coord = z, rate = 3000 }\n\n[structure]")
        text = text.replace("metric = [[1, 0, 0]", "metric = [[E, 0, 0]")
    path = tmp_path / "power.txt"
    path.write_text(text)
    t0 = time.perf_counter()
    got = main(["analyze" if options else "verify", *options, str(path)])
    elapsed = time.perf_counter() - t0
    assert got == code
    if code == 4:
        assert f"above the maximum power {MAX_GENERATOR_POWER}" in capsys.readouterr().err
    if entry == "dense_9d":  # every item but the signature fails, as it should
        assert "summary: 4 passed, 5 failed, 0 skipped (exit 2)" in capsys.readouterr().out
    assert elapsed < 0.5, elapsed


def _dense_nine_dim_definition(a8: int) -> str:
    """A 9D definition with phi, xi and eta zero and a dense metric in
    E = exp(a8): entry (i, j) is E^((i+j) mod 9) + i+j+1, or i+j+2 where
    that power is 0.  Its base point is 0 but for a8."""
    def entry(i, j):
        e = (i + j) % 9
        return f"E^{e} + {i + j + 1}" if e else f"{i + j + 2}"

    zeros = ", ".join(["0"] * 9)
    return f"""
[chart]
dim = 9
coords = [{", ".join(f"a{i}" for i in range(9))}]
base_point = [{", ".join(["0"] * 8)}, {a8}]

[generators]
E = {{ coord = a8, rate = 1 }}

[structure]
xi = [{zeros}]
eta = [{zeros}]
phi = [{", ".join([f"[{zeros}]"] * 9)}]
metric = [{", ".join("[" + ", ".join(entry(i, j) for j in range(9)) + "]" for i in range(9))}]
"""


def _nine_dim_definition(xi0: str) -> str:
    """A 9-coordinate definition of the right shapes whose xi starts with xi0."""
    rows = ["[" + ", ".join("1" if i == j else "0" for j in range(9)) + "]" for i in range(9)]
    return f"""
[chart]
dim = 9
coords = [{", ".join(f"a{i}" for i in range(9))}]
base_point = [{", ".join(["0"] * 9)}]

[structure]
xi = [{xi0}, {", ".join(["0"] * 8)}]
eta = [{", ".join(["0"] * 9)}]
phi = [{", ".join(rows)}]
metric = [{", ".join(rows)}]
"""


@pytest.mark.parametrize("power", ["(S + 1)^8", "(S + 1)^4 * (S + 2)^4"], ids=["power", "product"])
def test_cli_huge_term_count_exits_4_fast(tmp_path, capsys, power):
    # in nine coordinates these stay within the degree bound and lowered into
    # 24,310 terms in about 0.6 s each; now the parser refuses them first
    path = tmp_path / "wide.txt"
    path.write_text(_nine_dim_definition(power.replace("S", " + ".join(f"a{i}" for i in range(9)))))
    t0 = time.perf_counter()
    code = main(["verify", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 4
    assert "24310 terms, above the maximum" in capsys.readouterr().err
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize(
    "old, new",
    [("coords = [x, y, z]", "coords = [x, x, z]"), ("[structure]", "[generators]\nx = { coord = z, rate = 1 }\n\n[structure]")],
    ids=["repeated-coordinate", "generator-named-like-a-coordinate"],
)
def test_cli_bad_chart_names_exit_4(tmp_path, old, new):
    text = catalog_entry("flat_product").definition_text
    assert old in text
    path = tmp_path / "names.txt"
    path.write_text(text.replace(old, new))
    proc = _run(["verify", str(path)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cli_import_leaves_out_sympy_combinatorics():
    # importing sympy.combinatorics costs about 25 ms in every CLI process
    code = "import sys, paracosym.cli; print('sympy.combinatorics' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# runs one CLI call and prints its exit code and the paracosym modules it
# loaded, and those of STDLIB that it loaded
MODULES = r"""
import contextlib, io, json, sys
STDLIB = ("dataclasses", "inspect", "fractions")
from paracosym.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in ("paracosym",) + STDLIB)]))
"""


def _loaded(*args):
    proc = subprocess.run([sys.executable, "-c", MODULES, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return {m.replace("paracosym.", "") for m in modules}


def test_cli_commands_load_only_their_modules(tmp_path):
    # each module a process imports is compiled afresh when bytecode is not
    # written, so a command pays for every module it loads; importing
    # dataclasses, and inspect through it, cost catalog --list about 15 ms,
    # and fractions with decimal about 4.5 ms more
    path = tmp_path / "e.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    assert _loaded("catalog", "--list") == {"paracosym", "cli", "errors", "catalog"}
    verify = _loaded("verify", str(path))
    assert {"parser", "report", "structures"} <= verify
    assert not verify & {"curvature", "nullity", "catalog", "deform", "classify", "tower"}
    deform = _loaded("deform", str(path), "--gamma", "3", "--beta", "2")
    assert {"deform", "nullity"} <= deform
    assert not deform & {"curvature", "catalog", "classify"}
    five_dim = tmp_path / "p5.txt"
    five_dim.write_text(catalog_entry("five_dim_product").definition_text)
    analyze = _loaded("analyze", str(five_dim))
    assert {"curvature", "nullity"} <= analyze
    # the 3D classification section is a lazy import of classify
    assert not analyze & {"classify", "tower"}
    for loaded in (verify, deform, analyze):
        assert not loaded & {"dataclasses", "inspect"}


PACKAGE = r"""
import importlib, json, sys
import paracosym
assert [m for m in sys.modules if m.startswith("paracosym.")] == [], sys.modules
assert set(paracosym.__all__) <= set(dir(paracosym)), dir(paracosym)
for name in paracosym.__all__:
    module = importlib.import_module("paracosym." + paracosym._LAZY[name])
    assert getattr(paracosym, name) is getattr(module, name), name
namespace = {}
exec("from paracosym import *", namespace)
missing = set(paracosym.__all__) - set(namespace)
assert not missing, missing
print(json.dumps(paracosym.__all__))
"""

# the public names, sorted; ScalarField left when every scalar became a
# field element, and the function catalog when the package stopped hiding
# the submodule of that name
PUBLIC_NAMES = [
    "AlmostParacontactStructure",
    "AnalysisReport",
    "CatalogEntry",
    "Chart",
    "CheckItem",
    "DefinitionError",
    "DeformationParameterError",
    "EngineError",
    "GeneratorDecl",
    "HType",
    "ManifoldDefinition",
    "NullityFit",
    "ParseError",
    "ScalarContext",
    "StructureAnalysis",
    "StructureError",
    "TensorField",
    "catalog_entry",
    "classify_h",
    "identity_suite",
    "load_definition",
    "nullity_fit",
    "parse_scalar",
    "run_analyze",
    "verify_axioms",
]


def test_package_serves_every_public_name_lazily():
    proc = subprocess.run([sys.executable, "-c", PACKAGE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_NAMES


def test_import_as_binds_the_catalog_module():
    # the package's function catalog once hid the submodule of that name,
    # so this bound a function and m.catalog_entry raised AttributeError
    code = (
        "import paracosym.catalog as m, types\n"
        "assert isinstance(m, types.ModuleType), m\n"
        "assert m.catalog_entry('example_e').name == 'example_e'\n"
        "assert callable(m.catalog)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# runs CLI calls in one process in which any import of sympy fails, and
# prints (exit code, sha256 of stdout, stdout of catalog --list) per call
NO_SYMPY = r"""
import contextlib, hashlib, io, json, sys
sys.modules["sympy"] = None
from paracosym.cli import main
out = []
for args in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    text = buf.getvalue()
    out.append([code, hashlib.sha256(text.encode()).hexdigest(), text if args[0] == "catalog" else ""])
print(json.dumps(out))
"""
BENCH_DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "digests.json")


def test_cli_runs_without_sympy(tmp_path):
    # catalog, verify, deform and a 5D analyze never import sympy: the same
    # bytes as the pinned bench digests (verify, deform, 5D analyze) and the
    # golden analyze digests (every 5D entry)
    with open(BENCH_DIGESTS) as fh:
        pinned = json.load(fh)
    for name in NAMES:
        (tmp_path / f"{name}.txt").write_text(catalog_entry(name).definition_text)
    calls, want = [["catalog", "--list"]], [None]
    for key, digest in sorted(pinned.items()):
        command, entry, *args = key.split(":")
        if command in ("verify", "deform"):
            calls.append([command, str(tmp_path / f"{entry}.txt"), "--json", *args])
            want.append(digest)
    five_dim = [n for n in NAMES if catalog_entry(n).definition().dim == 5]
    for name in five_dim:
        calls.append(["analyze", str(tmp_path / f"{name}.txt"), "--json"])
        want.append(GOLDEN[name])
        assert pinned.get(f"analyze:{name}", GOLDEN[name]) == GOLDEN[name]
    assert len(calls) == 1 + len(NAMES) + 5 + len(five_dim) and len(five_dim) == 3
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY, json.dumps(calls)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results[0][0] == 0 and all(name in results[0][2] for name in NAMES)
    for args, digest, (code, got, _) in zip(calls[1:], want[1:], results[1:]):
        negative = args[0] == "verify" and catalog_entry(Path(args[1]).stem).negative_control
        assert (code, got) == (2 if negative else 0, digest), args


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


def _analyze_to_file(tmp_path, text):
    """(exit code, stdout bytes) of an `analyze --json` process whose stdout
    is a regular file, so block-buffered, not a pipe; without
    PYTHONUNBUFFERED, which would write through and hide a missing flush."""
    path = tmp_path / "def.txt"
    path.write_text(text)
    out = tmp_path / "out.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(out, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "paracosym.cli", "analyze", "--json", str(path)],
            stdout=fh,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.stderr == ""
    return proc.returncode, out.read_bytes()


# the process ends with os._exit, which flushes no buffer: every byte must
# be flushed before it, on the sympy-free path (5D) and the sympy one (3D)
@pytest.mark.parametrize("name", ["five_dim_non_pk_leaves", "example_e"])
def test_cli_process_flushes_a_regular_file(tmp_path, name):
    entry = catalog_entry(name)
    code, got = _analyze_to_file(tmp_path, entry.definition_text)
    rep = run_analyze(entry.definition())
    assert code == rep.exit_code == 0
    assert got == rep.to_json().encode()


@pytest.mark.slow
def test_cli_process_exits_3_with_its_report(tmp_path):
    # a non-constant alpha (x/2 - 1) fails frame-table lines: exit 3
    text = _lie_family("x^2/2 - 2*y", "3*x - 2*y + x^2/2")
    code, got = _analyze_to_file(tmp_path, text)
    rep = run_analyze(load_definition(text))
    assert code == rep.exit_code == 3
    assert got == rep.to_json().encode()


def test_cli_usage_error_exits_through_the_interpreter():
    # argparse's SystemExit escapes main, so the process ends the usual way,
    # with the documented usage-error code
    proc = _run([])
    assert proc.returncode == EXIT_PARSE == 4
    assert proc.stderr.startswith("usage: paracosym")


@pytest.mark.parametrize(
    "args",
    [["verify"], ["analyze", "x.txt", "--bogus"], ["deform"], ["catalog", "--list", "--emit", "e"], ["frobnicate"]],
)
def test_cli_usage_errors_exit_4(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]])
def test_cli_help_exits_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: paracosym")


def test_main_leaves_the_collector_on(capsys):
    assert gc.isenabled()
    assert main(["catalog", "--list"]) == 0
    assert gc.isenabled()
    assert "example_e" in capsys.readouterr().out


# the process-only calls: they may appear in src/ only inside cli.run
PROCESS_ONLY = {("os", "_exit"), ("gc", "disable")}
SRC = Path(__file__).resolve().parents[1] / "src" / "paracosym"


def _process_only_uses(tree: ast.Module):
    """(top-level definition or None, 'module.name') of every use of a
    process-only call, as an attribute or a from-import."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in PROCESS_ONLY:
                    yield owner, f"{node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (node.module, alias.name) in PROCESS_ONLY:
                        yield owner, f"{node.module}.{alias.name}"


def test_process_exit_lives_only_in_cli_run():
    found = {
        (path.name, owner, what)
        for path in sorted(SRC.glob("*.py"))
        for owner, what in _process_only_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("cli.py", "run", "os._exit"), ("cli.py", "run", "gc.disable")}
    # python -m paracosym.cli enters through run, and so does the script
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    guard = cli.body[-1]
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in guard.body] == ["run()"]
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["paracosym", "=", '"paracosym.cli:run"']


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
