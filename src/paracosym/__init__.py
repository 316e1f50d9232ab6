"""Exact symbolic verification, analysis, and classification of almost
alpha-paracosymplectic structures on coordinate charts.

classify (the one module that imports sympy) and report load on first
use of their names (PEP 562), so importing the package loads no sympy."""

import importlib

from .errors import (
    DefinitionError,
    DeformationParameterError,
    EngineError,
    ParseError,
    StructureError,
)
from .parser import ManifoldDefinition, load_definition, parse_scalar
from .scalars import GeneratorDecl, ScalarContext, ScalarField
from .geometry import Chart, TensorField
from .structures import (
    AlmostParacontactStructure,
    CheckItem,
    StructureAnalysis,
    identity_suite,
    verify_axioms,
)
from .nullity import NullityFit, nullity_fit
from .catalog import CatalogEntry, catalog, catalog_entry

_LAZY = {
    "HType": "classify",
    "classify_h": "classify",
    "AnalysisReport": "report",
    "run_analyze": "report",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
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
    "ScalarField",
    "StructureAnalysis",
    "StructureError",
    "TensorField",
    "catalog",
    "catalog_entry",
    "classify_h",
    "identity_suite",
    "load_definition",
    "nullity_fit",
    "parse_scalar",
    "run_analyze",
    "verify_axioms",
]
