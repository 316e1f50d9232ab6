"""Traced run of one benchmark call, in a fresh process.

    PYTHONPATH=src python3 bench/traced.py CALL_JSON REPORT_JSON

CALL_JSON is a `workloads.Call` as a JSON object with its definition file
path under "path"; REPORT_JSON is the untraced `--json` output of the same
call.  The script calls each module's public functions itself, in the
order `report.run_analyze` / `run_verify` / `run_deform` use, with a span
around each layer boundary, and counts the `sympy.cancel` and
`sympy.simplify` calls every module makes as `sp.cancel` / `sp.simplify`.
For analyze it forces the cached base tensors (Gamma, A and h, R, S/Q/r,
the nabla fields) before the first check family, so shared set-up is not
charged to whichever family happens to need it first.

It prints one JSON object: spans (name, start, end, parent; seconds from
process start), counters, the `count_ops` total of R, the check-item count
of the report and the time `AnalysisReport.to_json` takes to render it.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

T0 = time.perf_counter()


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - T0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - T0
            self._stack.pop()


class CallCounter:
    """Wraps a sympy function: calls, seconds inside it, and calls whose
    result equals their first argument (nothing to canonicalise)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.seconds = 0.0
        self.noop = 0

    def __call__(self, expr, *args, **kwargs):
        t = time.perf_counter()
        out = self.fn(expr, *args, **kwargs)
        self.seconds += time.perf_counter() - t
        self.calls += 1
        if out == expr:
            self.noop += 1
        return out


def _count_items(node) -> int:
    if isinstance(node, dict):
        if {"name", "status"} <= set(node):
            return 1
        return sum(_count_items(v) for v in node.values())
    if isinstance(node, list):
        return sum(_count_items(v) for v in node)
    return 0


def _force_base(an, tr: Tracer, out: dict, full: bool) -> None:
    import sympy as sp

    with tr.span("geometry.christoffel_s"):
        an.conn
    with tr.span("structures.A_h_s"):
        an.A, an.h, an.phih
    with tr.span("geometry.riemann_s"):
        an.R
    out["riemann_ops"] = sum(sp.count_ops(e) for e in an.R.array)
    if not full:
        return
    with tr.span("geometry.ricci_s"):
        an.S, an.Q, an.r
    with tr.span("geometry.nabla_s"):
        an.nabphi, an.nabPhi, an.nabphih, an.nabh


def _analyze(s, an, tr: Tracer, out: dict) -> None:
    from paracosym import classify as cls
    from paracosym import curvature as curv
    from paracosym import nullity, structures
    from paracosym.errors import EngineError

    _force_base(an, tr, out, full=True)
    with tr.span("structures.identity_suite_s"):
        structures.identity_suite(an)
    with tr.span("structures.normality_s"):
        structures.nijenhuis_normality(s)
    with tr.span("structures.leaves_s"):
        structures.parakaehler_leaves_check(an)
        structures.leaf_second_fundamental_form(an)
        structures.para_kenmotsu_biconditional(an)
    with tr.span("curvature.reeb_s"):
        curv.check_rxyxi_general(an)
    with tr.span("curvature.ricci_suite_s"):
        curv.check_r2_suite(an)
    with tr.span("curvature.phi_average_s"):
        curv.check_r3_identity(an)
    with tr.span("curvature.commutator_s"):
        curv.check_q_commutator(an)
    with tr.span("curvature.space_form_s"):
        if curv.constant_curvature_probe(an).is_space_form:
            curv.check_space_form_constraints(an)
    with tr.span("curvature.rough_laplacian_s"):
        curv.check_rough_laplacian_formula(an)
    with tr.span("curvature.jacobi_s"):
        curv.check_jacobi_self_adjoint(an)
    with tr.span("curvature.harmonicity_s"):
        curv.xi_is_harmonic(an)
    with tr.span("nullity.fit_s"):
        fit = nullity.nullity_fit(an)
    if fit.status in ("exact", "degenerate_h_zero"):
        with tr.span("nullity.consequences_s"):
            nullity.check_irem_suite(an, fit)
            nullity.check_parakaehler_consequence(an, fit)
            nullity.check_q_commutator_nullity(an, fit)
    if s.dim != 3:
        return
    try:
        with tr.span("classify.h_type_s"):
            htype = cls.classify_h(an)
        with tr.span("classify.frame_s"):
            frame = cls.build_adapted_frame(an, htype)
    except EngineError:
        return
    with tr.span("classify.frame_table_s"):
        cls.verify_frame_tables(an, frame, htype)
    with tr.span("classify.ricci_formula_s"):
        cls.verify_ricci_formula(an)
    with tr.span("classify.harmonic_nullity_s"):
        cls.harmonic_nullity_equivalence(an)


def _deform(call: dict, defn, s, an, tr: Tracer, out: dict) -> None:
    from paracosym import deform
    from paracosym.nullity import nullity_fit
    from paracosym.parser import parse_scalar
    from paracosym.structures import StructureAnalysis

    opts = dict(zip(call["args"][::2], call["args"][1::2]))
    ctx = defn.context()
    homothetic = "--conformal-u" not in opts
    if homothetic:
        _force_base(an, tr, out, full=False)
    with tr.span("deform.apply_s"):
        if homothetic:
            gamma = Fraction(opts["--gamma"])
            beta = parse_scalar(opts["--beta"], ctx)
            s_t = deform.d_homothetic_deform(s, gamma, beta)
        else:
            s_t = deform.conformal_deform(an, parse_scalar(opts["--conformal-u"], ctx))
    with tr.span("deform.rederive_s"):
        an_t = StructureAnalysis(s_t)
        an_t.axiom_report
        if an_t.axioms_ok:
            an_t.alpha_extraction
        if homothetic:
            an_t.conn, an_t.A, an_t.h, an_t.R
    if not homothetic:
        return
    with tr.span("deform.laws_s"):
        deform.verify_deformation_laws(an, an_t, gamma, beta)
    with tr.span("deform.transport_s"):
        fit = nullity_fit(an)
        if fit.status == "exact":
            dbeta_xi = an.xi_derivative(beta)
            deform.transform_kmn(fit.kappa, fit.mu, fit.nu, an.alpha, gamma, beta, dbeta_xi)
            fit_t = nullity_fit(an_t)
            if fit.mu is not None and not fit.mu.is_zero():
                deform.invariant_I0(fit.kappa, fit.mu, fit.nu, an.alpha)
                deform.invariant_I0(fit_t.kappa, fit_t.mu, fit_t.nu, an_t.alpha)


def main(call_path: str, report_path: str) -> dict:
    with open(call_path, encoding="utf-8") as fh:
        call = json.load(fh)
    tr = Tracer(call["key"])
    with tr.span("cli.import_s"):
        import paracosym.cli  # noqa: F401  (the import a CLI call pays)
    import sympy

    from paracosym.parser import load_definition
    from paracosym.report import AnalysisReport
    from paracosym.structures import AlmostParacontactStructure, StructureAnalysis

    cancel = sympy.cancel = CallCounter(sympy.cancel)
    simplify = sympy.simplify = CallCounter(sympy.simplify)
    out: dict = {"riemann_ops": 0}

    with open(call["path"], encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("parser.load_s"):
        defn = load_definition(text)
    with tr.span("structures.build_s"):
        s = AlmostParacontactStructure.from_definition(defn)
    an = StructureAnalysis(s)
    with tr.span("structures.axioms_s"):
        an.axiom_report
    if an.axioms_ok:
        with tr.span("structures.alpha_gate_s"):
            an.alpha_extraction
    if an.axioms_ok and an.is_apc:
        if call["command"] == "analyze":
            _analyze(s, an, tr, out)
        elif call["command"] == "deform":
            _deform(call, defn, s, an, tr, out)

    with open(report_path, "rb") as fh:
        raw = fh.read()
    tree = json.loads(raw)
    with tr.span("report.to_json_s"):
        rendered = AnalysisReport(tree).to_json()
    if rendered.encode("ascii") != raw:
        raise SystemExit("re-rendered report differs from the CLI's --json output")
    out["check_items"] = _count_items(tree)
    out["counters"] = {
        name: {"calls": c.calls, "seconds": c.seconds, "noop": c.noop}
        for name, c in (("cancel", cancel), ("simplify", simplify))
    }
    out["spans"] = tr.spans
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], sys.argv[2])
    sys.stdout.write(json.dumps(result) + "\n")
