"""Exact symbolic verification, analysis, and classification of almost
alpha-paracosymplectic structures on coordinate charts.

The package is lazy: importing it loads no submodule.  Every public name
is served on first use from the module that defines it (PEP 562, the
_LAZY table below), so `paracosym catalog --list` loads only cli, errors
and catalog, and a process never compiles a module it does not run.
The name catalog is the submodule, so the function of that name is
paracosym.catalog.catalog.  classify is the one module that imports
sympy."""

import importlib

_LAZY = {
    "DefinitionError": "errors",
    "DeformationParameterError": "errors",
    "EngineError": "errors",
    "ParseError": "errors",
    "StructureError": "errors",
    "ManifoldDefinition": "parser",
    "load_definition": "parser",
    "parse_scalar": "parser",
    "GeneratorDecl": "scalars",
    "ScalarContext": "scalars",
    "Chart": "geometry",
    "TensorField": "geometry",
    "AlmostParacontactStructure": "structures",
    "CheckItem": "structures",
    "StructureAnalysis": "structures",
    "identity_suite": "structures",
    "verify_axioms": "structures",
    "NullityFit": "nullity",
    "nullity_fit": "nullity",
    "CatalogEntry": "catalog",
    "catalog_entry": "catalog",
    "HType": "classify",
    "classify_h": "classify",
    "AnalysisReport": "report",
    "run_analyze": "report",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = sorted(_LAZY)
