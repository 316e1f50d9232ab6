"""Analysis-report assembly.

A report is a plain ordered tree (dicts/lists/strings) so the JSON
rendering is byte-deterministic for a given input; every scalar is
serialized exactly (integers and "p/q" fractions stay exact, symbolic
fields render through the canonical printer).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EXIT_IDENTITY, EXIT_OK, EXIT_STRUCTURAL, DeformationParameterError, PoleError
from .geometry import Components, contract
from .field import Frac, serialize, to_str
from .parser import ManifoldDefinition
from .structures import (
    AlmostParacontactStructure,
    CheckItem,
    StructureAnalysis,
    _item,
    _skip,
    identity_suite,
    leaf_second_fundamental_form,
    para_kenmotsu_biconditional,
    parakaehler_leaves_check,
)


def _item_dict(it: CheckItem) -> Dict[str, object]:
    out: Dict[str, object] = {"name": it.name, "status": it.status}
    if it.witness is not None:
        out["witness"] = str(it.witness)
    if it.reason is not None:
        out["reason"] = it.reason
    return out


def _items(items: Sequence[CheckItem]) -> List[Dict[str, object]]:
    return [_item_dict(it) for it in items]


def _scalar_str(fld) -> str:
    if fld is None:
        return "none"
    return serialize(fld) if isinstance(fld, Frac) else str(Fraction(fld))


def _pole_item(an: StructureAnalysis, named) -> Optional[CheckItem]:
    """A failed "nullity triple defined at the point" item naming the first
    of the (name, function) pairs with a pole at the base point, or None
    when every function given is defined there."""
    values = an.chart.values_at()
    for name, f in named:
        if f is None:
            continue
        try:
            values.value(f)
        except PoleError:
            return _item("nullity triple defined at the point", f"{name} = {_scalar_str(f)}")
    return None


def _matrix_strs(t: Components) -> List[List[str]]:
    return [[to_str(t[i, j]) for j in range(t.n)] for i in range(t.n)]


class AnalysisReport:
    def __init__(self, tree: Dict[str, object]):
        self.tree = tree

    def to_json(self) -> str:
        return json.dumps(self.tree, indent=2, ensure_ascii=True) + "\n"

    @property
    def exit_code(self) -> int:
        return int(self.tree["summary"]["exit_code"])  # type: ignore[index,call-overload]

    def render_text(self, verbosity: int = 1) -> str:
        lines: List[str] = []
        self._render(self.tree, lines, verbosity, prefix="")
        summary = self.tree["summary"]
        lines.append(
            "summary: {passed} passed, {failed} failed, {skipped} skipped"
            " (exit {exit_code})".format(**summary)  # type: ignore[arg-type]
        )
        return "\n".join(lines) + "\n"

    def _render(self, node, lines, verbosity, prefix):
        if isinstance(node, dict):
            if set(node) >= {"name", "status"}:
                if node["status"] == "fail" or verbosity >= 2 or (
                    verbosity >= 1 and node["status"] == "skip"
                ):
                    extra = ""
                    if node.get("witness") and verbosity >= 1:
                        extra = f"  << {node['witness']}"
                    if node.get("reason") and verbosity >= 1:
                        extra = f"  ({node['reason']})"
                    lines.append(f"{prefix}[{node['status']}] {node['name']}{extra}")
                return
            for key, value in node.items():
                if key == "summary":
                    continue
                if isinstance(value, (dict, list)):
                    lines.append(f"{prefix}{key}:")
                    self._render(value, lines, verbosity, prefix + "  ")
                else:
                    lines.append(f"{prefix}{key}: {value}")
        elif isinstance(node, list):
            if node and all(not isinstance(v, (dict, list)) for v in node):
                lines.append(f"{prefix}[{', '.join(str(v) for v in node)}]")
                return
            for value in node:
                self._render(value, lines, verbosity, prefix)
        else:
            lines.append(f"{prefix}{node}")


def _collect_items(node, acc: List[Dict[str, object]]):
    if isinstance(node, dict):
        if set(node) >= {"name", "status"}:
            acc.append(node)
            return
        for value in node.values():
            _collect_items(value, acc)
    elif isinstance(node, list):
        for value in node:
            _collect_items(value, acc)


def _finish(tree: Dict[str, object], structural_failure: bool) -> AnalysisReport:
    acc: List[Dict[str, object]] = []
    _collect_items(tree, acc)
    passed = sum(1 for it in acc if it["status"] == "pass")
    failed = sum(1 for it in acc if it["status"] == "fail")
    skipped = sum(1 for it in acc if it["status"] == "skip")
    if structural_failure:
        code = EXIT_STRUCTURAL
    elif failed:
        code = EXIT_IDENTITY
    else:
        code = EXIT_OK
    tree["summary"] = {
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "failed_checks": [it["name"] for it in acc if it["status"] == "fail"],
        "exit_code": code,
    }
    return AnalysisReport(tree)


def _gate(defn: ManifoldDefinition) -> Tuple[Dict[str, object], StructureAnalysis, bool]:
    """The chart section, the axioms and, when they hold, the alpha gate:
    (tree, analysis, whether the structure passed both)."""
    tree: Dict[str, object] = {
        "chart": {
            "dim": defn.dim,
            "coords": list(defn.coord_names),
            "base_point": [str(Fraction(p)) for p in defn.base_point],
            "generators": [
                {
                    "name": g.name,
                    "coord": defn.coord_names[g.coord_index],
                    "rate": str(g.rate),
                }
                for g in defn.generators
            ],
        }
    }
    an = StructureAnalysis(AlmostParacontactStructure.from_definition(defn))
    tree["axioms"] = {"ok": an.axioms_ok, "items": _items(an.axiom_report)}
    if not an.axioms_ok:
        return tree, an, False
    tree["alpha_gate"] = _alpha_section(an)
    return tree, an, an.is_apc


def run_verify(defn: ManifoldDefinition) -> AnalysisReport:
    """Axioms and the alpha gate only."""
    tree, _, passed = _gate(defn)
    return _finish(tree, structural_failure=not passed)


def _alpha_section(an: StructureAnalysis) -> Dict[str, object]:
    ext = an.alpha_extraction
    out: Dict[str, object] = {"is_apc": ext.is_apc}
    if not ext.is_apc:
        out["reason"] = ext.reason
        return out
    out["alpha"] = _scalar_str(ext.alpha)
    out["constant"] = an.alpha_is_constant
    if ext.f is not None:
        out["f = xi(alpha)"] = _scalar_str(ext.f)
    return out


def run_analyze(
    defn: ManifoldDefinition, point: Optional[Sequence[Fraction]] = None
) -> AnalysisReport:
    """Full pipeline; structural failures are report entries, not raises."""
    from . import curvature as curv
    from .nullity import (
        check_irem_suite,
        check_parakaehler_consequence,
        check_q_commutator_nullity,
        nullity_fit,
    )

    tree, an, passed = _gate(defn)
    if not passed:
        return _finish(tree, structural_failure=True)

    tree["tensors"] = {
        "A": _matrix_strs(an.A),
        "h": _matrix_strs(an.h),
        "h_zero": an.h.is_zero(),
        "trace_A": str(contract("ii->", an.A)),
        "scalar_curvature": serialize(an.r),
    }

    tree["identities"] = _items(identity_suite(an))

    N1, normal = an.normality
    norm_sec: Dict[str, object] = {"normal": normal}
    if not normal:
        idx, val = N1.first_nonzero()
        norm_sec["first_nonzero"] = {"index": list(idx), "value": str(val)}
    tree["normality"] = norm_sec

    pk = parakaehler_leaves_check(an)
    leaves = leaf_second_fundamental_form(an)
    tree["leaves"] = {
        "para_kaehler": pk,
        "umbilical": leaves.umbilical,
        "geodesic": leaves.geodesic,
    }
    tree["para_kenmotsu"] = _item_dict(para_kenmotsu_biconditional(an))

    curvsec: Dict[str, object] = {}
    curvsec["reeb_curvature"] = _items(curv.check_rxyxi_general(an))
    curvsec["ricci_suite"] = _items(curv.check_r2_suite(an))
    curvsec["phi_average"] = _item_dict(curv.check_r3_identity(an))
    curvsec["ricci_commutator"] = _item_dict(curv.check_q_commutator(an))
    ccr = curv.constant_curvature_probe(an)
    curvsec["constant_curvature"] = {
        "is_constant": ccr.is_space_form,
        "c": _scalar_str(ccr.c) if ccr.is_space_form else "none",
    }
    if ccr.is_space_form:
        curvsec["space_form"] = _items(curv.check_space_form_constraints(an, ccr))
    curvsec["rough_laplacian"] = _item_dict(curv.check_rough_laplacian_formula(an))
    curvsec["jacobi_self_adjoint"] = _item_dict(curv.check_jacobi_self_adjoint(an))
    harmonic, hwit = curv.xi_is_harmonic(an)
    harm: Dict[str, object] = {"harmonic": harmonic}
    if hwit is not None:
        harm["witness"] = str(hwit)
    curvsec["harmonicity"] = harm
    tree["curvature"] = curvsec

    fit = nullity_fit(an)
    nulsec: Dict[str, object] = {
        "status": fit.status,
        "kappa": _scalar_str(fit.kappa),
        "mu": _scalar_str(fit.mu),
        "nu": _scalar_str(fit.nu),
        "unique": fit.unique,
    }
    if fit.witness is not None:
        nulsec["witness"] = str(fit.witness)
    if fit.status in ("exact", "degenerate_h_zero"):
        nulsec["consequences"] = _items(check_irem_suite(an, fit))
        nulsec["leaves_consequence"] = _item_dict(check_parakaehler_consequence(an, fit))
        nulsec["commutator"] = _item_dict(check_q_commutator_nullity(an, fit))
        pole = _pole_item(an, zip(("kappa", "mu", "nu"), fit.triple))
        if pole is not None:  # only then, so a report with no pole keeps its bytes
            nulsec["consequences"].append(_item_dict(pole))
    tree["nullity"] = nulsec

    if an.structure.dim == 3:
        from .classify import classification_section  # loaded for a 3D analyze only

        tree["classification"] = classification_section(an, point, fit, harmonic)

    return _finish(tree, structural_failure=False)


def run_deform(
    defn: ManifoldDefinition,
    gamma=None,
    beta: Optional[Frac] = None,
    u: Optional[Frac] = None,
) -> AnalysisReport:
    """Deform, re-verify the axioms, and check the transformation laws."""
    from .deform import (
        conformal_deform,
        d_homothetic_deform,
        invariant_I0,
        transform_kmn,
        verify_deformation_laws,
    )
    from .nullity import nullity_fit

    gate, an, passed = _gate(defn)
    if not passed:
        return _finish(gate, structural_failure=True)
    # a passed gate shows only the chart
    tree: Dict[str, object] = {"chart": gate["chart"], "source": {"alpha": _scalar_str(an.alpha)}}

    if u is not None:
        s_t = conformal_deform(an, u)
        kind: Dict[str, object] = {"kind": "conformal", "u": serialize(u)}
    else:
        s_t = d_homothetic_deform(an.structure, gamma, beta)
        kind = {
            "kind": "homothetic",
            "gamma": str(Fraction(gamma)),
            "beta": serialize(beta),
        }
    an_t = StructureAnalysis(s_t)
    tree["deformation"] = kind
    tree["deformed_axioms"] = {
        "ok": an_t.axioms_ok,
        "items": _items(an_t.axiom_report),
    }
    gate_t = _alpha_section(an_t)
    tree["deformed"] = {"alpha": gate_t.get("alpha", "none"), "is_apc": gate_t["is_apc"]}

    if u is None:
        tree["laws"] = _items(verify_deformation_laws(an, an_t, gamma, beta))
        fit = nullity_fit(an)
        if fit.status == "exact":
            dbeta_xi = an.xi_derivative(beta)
            kap_t, mu_t, nu_t = transform_kmn(
                fit.kappa, fit.mu, fit.nu, an.alpha, gamma, beta, dbeta_xi
            )
            fit_t = nullity_fit(an_t)
            pred = dict(zip(("kappa", "mu", "nu"), map(_scalar_str, (kap_t, mu_t, nu_t))))
            got = dict(zip(("kappa", "mu", "nu"), map(_scalar_str, fit_t.triple)))
            witness = None if fit_t.status == "exact" and pred == got else f"{pred} vs {got}"
            match_item = _item("deformed nullity parameters match the closed form", witness)
            nul: Dict[str, object] = {
                "predicted": pred,
                "fitted": got,
                "items": [_item_dict(match_item)],
            }
            # the functions that must be defined at the base point
            named = list(zip(("kappa", "mu", "nu"), fit.triple))
            named += zip(("transported kappa", "transported mu", "transported nu"), (kap_t, mu_t, nu_t))
            try:
                i0 = invariant_I0(fit.kappa, fit.mu, fit.nu, an.alpha)
            except DeformationParameterError as exc:  # mu = 0
                i0_item = _skip("I0 invariant", str(exc))
            else:
                i0_t = invariant_I0(fit_t.kappa, fit_t.mu, fit_t.nu, an_t.alpha)
                nul["I0"] = _scalar_str(i0)
                nul["I0_deformed"] = _scalar_str(i0_t)
                i0_item = _item("I0 invariant", None if i0 == i0_t else f"{nul['I0']} vs {nul['I0_deformed']}")
                named += [("I0", i0), ("I0_deformed", i0_t)]
            nul["items"].append(_item_dict(i0_item))
            pole = _pole_item(an, named)
            if pole is not None:  # only then, as in run_analyze
                nul["items"].append(_item_dict(pole))
            tree["nullity_transport"] = nul
    return _finish(tree, structural_failure=False)
