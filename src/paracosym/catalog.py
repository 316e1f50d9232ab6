"""Built-in chart catalog.

Most 3-dimensional entries come from one family of left-invariant
structures: with p = a*x + b*y and q = c*x + d*y, take

    xi  = p d/dx + q d/dy + d/dz,      eta = dz,
    e^1 = dx - p dz,  e^2 = dy - q dz,
    g   = e^1 (x) e^1 - e^2 (x) e^2 + eta (x) eta,
    phi(d/dx) = d/dy,  phi(d/dy) = d/dx,  phi(xi) = 0.

This gives alpha = (a + d)/2 and an h whose frame matrix is determined by
(a, b, c, d), so all three nonzero Jordan types are reachable with rational
parameters.  Replacing p, q by nonlinear functions keeps the structure but
generally breaks the harmonicity of xi, which is how the negative controls
are built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

if TYPE_CHECKING:
    from .parser import ManifoldDefinition


class CatalogEntry(NamedTuple):
    """A named definition text, with the facts its analysis must report
    (a NamedTuple: catalog --list imports no dataclasses)."""

    name: str
    definition_text: str
    notes: str
    expected: Dict[str, object]
    negative_control: bool = False

    def definition(self) -> ManifoldDefinition:
        from .parser import load_definition  # catalog --list parses nothing

        return load_definition(self.definition_text)


def _lie_family(p: str, q: str, base="[1, 1, 0]") -> str:
    return f"""
[chart]
dim = 3
coords = [x, y, z]
base_point = {base}

[structure]
xi = [{p}, {q}, 1]
eta = [0, 0, 1]
phi = [[0, 1, -({q})],
       [1, 0, -({p})],
       [0, 0, 0]]
metric = [[1, 0, -({p})],
          [0, -1, {q}],
          [-({p}), {q}, 1 + ({p})^2 - ({q})^2]]
"""


EXAMPLE_E = _lie_family("x", "y + 2*x") + "alpha = 1\n"

FLAT_PRODUCT = """
[chart]
dim = 3
coords = [x, y, z]
base_point = [0, 0, 0]

[structure]
xi = [0, 0, 1]
eta = [0, 0, 1]
phi = [[0, 1, 0],
       [1, 0, 0],
       [0, 0, 0]]
metric = [[1, 0, 0],
          [0, -1, 0],
          [0, 0, 1]]
alpha = 0
"""

WARPED_KENMOTSU = """
[chart]
dim = 3
coords = [x, y, t]
base_point = [0, 0, 0]

[generators]
E = { coord = t, rate = 2 }

[structure]
xi = [0, 0, 1]
eta = [0, 0, 1]
phi = [[0, 1, 0],
       [1, 0, 0],
       [0, 0, 0]]
metric = [[E, 0, 0],
          [0, -E, 0],
          [0, 0, 1]]
alpha = 1
"""

FIVE_DIM_PRODUCT = """
[chart]
dim = 5
coords = [x1, y1, x2, y2, z]
base_point = [0, 0, 0, 0, 0]

[structure]
xi = [0, 0, 0, 0, 1]
eta = [0, 0, 0, 0, 1]
phi = [[0, 1, 0, 0, 0],
       [1, 0, 0, 0, 0],
       [0, 0, 0, 1, 0],
       [0, 0, 1, 0, 0],
       [0, 0, 0, 0, 0]]
metric = [[1, 0, 0, 0, 0],
          [0, -1, 0, 0, 0],
          [0, 0, 1, 0, 0],
          [0, 0, 0, -1, 0],
          [0, 0, 0, 0, 1]]
alpha = 0
"""

FIVE_DIM_ALPHA_Z = """
[chart]
dim = 5
coords = [x1, y1, x2, y2, z]
base_point = [0, 0, 0, 0, 0]

[structure]
xi = [0, 0, 0, 0, 1]
eta = [0, 0, 0, 0, 1]
phi = [[0, 1, 0, 0, 0],
       [1, 0, 0, 0, 0],
       [0, 0, 0, 1, 0],
       [0, 0, 1, 0, 0],
       [0, 0, 0, 0, 0]]
metric = [[(1 + z)^2, 0, 0, 0, 0],
          [0, -(1 + z)^2, 0, 0, 0],
          [0, 0, (1 + z)^2, 0, 0],
          [0, 0, 0, -(1 + z)^2, 0],
          [0, 0, 0, 0, 1]]
"""

FIVE_DIM_NON_PK_LEAVES = """
[chart]
dim = 5
coords = [x1, y1, x2, y2, z]
base_point = [0, 0, 0, 0, 0]

[structure]
xi = [0, 0, 0, 0, 1]
eta = [0, 0, 0, 0, 1]
phi = [[1, -2*y2, 0, 0, 0],
       [0, -1, 0, 0, 0],
       [0, 0, 1, 0, 0],
       [0, 0, 0, -1, 0],
       [0, 0, 0, 0, 0]]
metric = [[0, 1, 0, 0, 0],
          [1, -2*y2, 0, 0, 0],
          [0, 0, 0, 1, 0],
          [0, 0, 1, 0, 0],
          [0, 0, 0, 0, 1]]
alpha = 0
"""

NON_APC = """
[chart]
dim = 3
coords = [x, y, z]
base_point = [0, 0, 0]

[structure]
xi = [0, 0, 1]
eta = [0, x, 1]
phi = [[0, 1, 0],
       [1, 0, 0],
       [-x, 0, 0]]
metric = [[1, 0, 0],
          [0, -1 + x^2, x],
          [0, x, 1]]
"""

PERTURBED_METRIC = """
[chart]
dim = 3
coords = [x, y, z]
base_point = [0, 0, 0]

[structure]
xi = [0, 0, 1]
eta = [0, 0, 1]
phi = [[0, 1, 0],
       [1, 0, 0],
       [0, 0, 0]]
metric = [[2, 0, 0],
          [0, -1, 0],
          [0, 0, 1]]
"""

_ENTRIES: Optional[List[CatalogEntry]] = None


def catalog() -> List[CatalogEntry]:
    global _ENTRIES
    if _ENTRIES is not None:
        return _ENTRIES
    entries = [
        CatalogEntry(
            "example_e",
            EXAMPLE_E,
            "left-invariant alpha = 1 structure on a solvable group; "
            "h of eigenvalue type with lambda = 1, harmonic xi",
            expected={
                "alpha": "1",
                "h_type": "H1",
                "lambda2": "1",
                "nullity": ("0", "2", "-2"),
                "harmonic": True,
                "pk_leaves": True,
            },
        ),
        CatalogEntry(
            "flat_product",
            FLAT_PRODUCT,
            "flat metric product of a line with a flat para-Kaehler plane; "
            "alpha = 0, h = 0, R = 0, normal",
            expected={
                "alpha": "0",
                "h_type": "Zero",
                "harmonic": True,
                "pk_leaves": True,
                "normal": True,
                "flat": True,
            },
        ),
        CatalogEntry(
            "warped_kenmotsu",
            WARPED_KENMOTSU,
            "warped product dt^2 + e^{2t}(dx^2 - dy^2): alpha = 1, h = 0, "
            "constant sectional curvature -1, umbilical leaves",
            expected={
                "alpha": "1",
                "h_type": "Zero",
                "harmonic": True,
                "pk_leaves": True,
                "normal": True,
                "constant_curvature": "-1",
                "umbilical": True,
            },
        ),
        CatalogEntry(
            "h1_rational",
            _lie_family("x", "3*x + y") + "alpha = 1\n",
            "eigenvalue-type h with rational lambda = 3/2",
            expected={
                "alpha": "1",
                "h_type": "H1",
                "lambda2": "9/4",
                "harmonic": True,
            },
        ),
        CatalogEntry(
            "h2_nilpotent",
            _lie_family("2*x", "2*x") + "alpha = 1\n",
            "nilpotent-type h (h != 0, h^2 = 0)",
            expected={"alpha": "1", "h_type": "H2", "harmonic": True},
        ),
        CatalogEntry(
            "h3_rotation",
            _lie_family("2*x", "0") + "alpha = 1\n",
            "rotation-type h (complex eigenvalues, lambda^2 = 1)",
            expected={
                "alpha": "1",
                "h_type": "H3",
                "lambda2": "1",
                "harmonic": True,
            },
        ),
        CatalogEntry(
            "five_dim_product",
            FIVE_DIM_PRODUCT,
            "flat 5-dimensional product, alpha = 0; exercises the "
            "dimension >= 5 code paths including d(alpha) = f eta",
            expected={
                "alpha": "0",
                "harmonic": True,
                "pk_leaves": True,
                "normal": True,
                "flat": True,
            },
        ),
        CatalogEntry(
            "five_dim_alpha_z",
            FIVE_DIM_ALPHA_Z,
            "5-dimensional entry with non-constant alpha = 1/(1 + z); "
            "exercises the f = xi(alpha) curvature variant",
            expected={"alpha": "1/(z + 1)", "alpha_constant": False},
        ),
        CatalogEntry(
            "sigma_nonzero",
            _lie_family("x", "y + 2*x + x^2") + "alpha = 1\n",
            "alpha = 1 structure with S(xi, .) not proportional to eta: "
            "xi is not harmonic and no nullity fit exists",
            expected={
                "alpha": "1",
                "harmonic": False,
                "nullity_status": "not_nullity",
            },
        ),
        CatalogEntry(
            "five_dim_non_pk_leaves",
            FIVE_DIM_NON_PK_LEAVES,
            "5-dimensional product over an almost para-Kaehler plane pair "
            "whose eigendistribution is non-involutive: the leaves are not "
            "para-Kaehler",
            expected={"alpha": "0", "pk_leaves": False, "normal": False},
        ),
        CatalogEntry(
            "non_apc",
            NON_APC,
            "almost paracontact metric structure with d(eta) != 0: "
            "fails the closedness gate, not almost alpha-paracosymplectic",
            negative_control=True,
            expected={"is_apc": False},
        ),
        CatalogEntry(
            "perturbed_metric",
            PERTURBED_METRIC,
            "metric perturbed off the phi-compatible cone: fails the "
            "structural axioms",
            negative_control=True,
            expected={"axioms_ok": False},
        ),
    ]
    _ENTRIES = entries
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"no catalog entry named {name!r} (known: {known})")
