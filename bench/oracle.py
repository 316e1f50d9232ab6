"""Known answers for every benchmark call, worked out without the engine.

`mismatches(call, exit_code, tree, expected)` lists what is wrong with one
`--json` result; an empty list means the answer is right.  `expected` maps
catalog entry names to their `CatalogEntry.expected` dicts.

- Catalog entries: the fields of `CatalogEntry.expected`; negative
  controls exit 2, every other entry exits 0.
- lie3d draws (p = a*x + b*y, q = c*x + d*y): exit 0, alpha = (a + d)/2,
  harmonic xi, and with D = ((b - c)^2 - (a - d)^2)/4 the h-type is H1
  with lambda2 = D if D > 0, H3 with lambda2 = -D if D < 0, and H2 if
  D = 0 -- or Zero when a = d and b = c, where h vanishes and the nullity
  fit is the degenerate kappa-only one.  Otherwise the fit is exact.
- Deformations: exit 0, the deformed structure is almost
  alpha-paracosymplectic, and its alpha is alpha/beta (homothetic) or 0
  (conformal).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

import sympy as sp

from workloads import NEGATIVE_CONTROLS, Call


def report_facts(tree: dict) -> Dict[str, object]:
    """The facts a report states, under the names `CatalogEntry.expected` uses."""
    got: Dict[str, object] = {"axioms_ok": tree["axioms"]["ok"]}
    gate = tree.get("alpha_gate")
    if gate is not None:
        got["is_apc"] = gate["is_apc"]
        if gate["is_apc"]:
            got["alpha"] = gate["alpha"]
            got["alpha_constant"] = gate["constant"]
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
        got["nullity"] = tuple(tree["nullity"][k] for k in ("kappa", "mu", "nu"))
    classification = tree.get("classification", {})
    if "h_type" in classification:
        got["h_type"] = classification["h_type"]
        got["lambda2"] = classification["lambda2"]
    return got


def lie_known_answer(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Dict[str, object]:
    disc = ((b - c) ** 2 - (a - d) ** 2) / 4
    if disc > 0:
        h_type, lambda2 = "H1", str(disc)
    elif disc < 0:
        h_type, lambda2 = "H3", str(-disc)
    else:
        h_type = "Zero" if (a == d and b == c) else "H2"
        lambda2 = "none"
    return {
        "alpha": str((a + d) / 2),
        "harmonic": True,
        "h_type": h_type,
        "lambda2": lambda2,
        "nullity_status": "degenerate_h_zero" if h_type == "Zero" else "exact",
    }


def _same_scalar(got: str, want: str) -> bool:
    try:
        return sp.simplify(sp.sympify(got) - sp.sympify(want)) == 0
    except (sp.SympifyError, TypeError):
        return False


def _compare(facts: Dict[str, object], want: Dict[str, object], only_present: bool) -> List[str]:
    out = []
    for key, value in want.items():
        if key not in facts:
            if not only_present:
                out.append(f"{key} missing from the report")
            continue
        got = facts[key]
        if isinstance(value, tuple):
            got = tuple(got)  # type: ignore[arg-type]
        if got != value:
            out.append(f"{key}: expected {value!r}, got {got!r}")
    return out


def mismatches(
    call: Call, exit_code: int, tree: Optional[dict], expected: Dict[str, Dict[str, object]]
) -> List[str]:
    negative = call.command != "deform" and call.entry in NEGATIVE_CONTROLS
    want_exit = 2 if negative else 0
    out = [] if exit_code == want_exit else [f"exit {exit_code}, expected {want_exit}"]
    if tree is None:
        return out + ["no JSON report"]

    if call.command == "deform":
        src_alpha = expected[call.entry]["alpha"]
        want_alpha = f"({src_alpha})/({call.beta})" if call.beta else "0"
        deformed = tree.get("deformed", {})
        if deformed.get("is_apc") is not True:
            out.append("deformed structure is not almost alpha-paracosymplectic")
        elif not _same_scalar(str(deformed.get("alpha")), want_alpha):
            out.append(f"deformed alpha {deformed.get('alpha')!r}, expected {want_alpha}")
        return out

    facts = report_facts(tree)
    if call.lie:
        a, b, c, d = (Fraction(v) for v in call.lie)
        return out + _compare(facts, lie_known_answer(a, b, c, d), only_present=False)
    # verify reports carry only the axiom and alpha-gate facts
    return out + _compare(facts, expected[call.entry], only_present=call.command == "verify")
