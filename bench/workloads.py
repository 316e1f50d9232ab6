"""Workload inputs: which CLI invocations each workload makes, and on what.

Every invocation is described by a `Call`; `Call.key` names its input and
is the key of its pinned `--json` digest in `digests.json`.  The known
answers each call is checked against live in `oracle.py`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BUNDLES_FILE = os.path.join(HERE, "lie3d_bundles.json")

WORKLOADS = ("lie3d", "analyze_5d", "verify_deform")

CATALOG_NAMES = (
    "example_e",
    "flat_product",
    "warped_kenmotsu",
    "h1_rational",
    "h2_nilpotent",
    "h3_rotation",
    "five_dim_product",
    "five_dim_alpha_z",
    "sigma_nonzero",
    "five_dim_non_pk_leaves",
    "non_apc",
    "perturbed_metric",
)
NEGATIVE_CONTROLS = ("non_apc", "perturbed_metric")

ANALYZE_5D = ("five_dim_non_pk_leaves", "five_dim_alpha_z")

DEFORMATIONS = (
    ("example_e", ("--gamma", "3", "--beta", "2")),
    ("example_e", ("--gamma", "2", "--beta", "1+z")),
    ("five_dim_alpha_z", ("--gamma", "3", "--beta", "2")),
    ("example_e", ("--conformal-u", "z")),
    ("warped_kenmotsu", ("--conformal-u", "t")),
)

LieParams = Tuple[Fraction, Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class Call:
    """One `paracosym <command> <definition> --json [args]` invocation."""

    command: str  # "verify" | "analyze" | "deform"
    entry: str  # stem of the definition file under the work directory
    args: Tuple[str, ...] = ()
    lie: Tuple[str, ...] = ()  # (a, b, c, d) for a lie3d draw

    @property
    def beta(self) -> str:
        """beta of a homothetic deformation; "" for a conformal one."""
        return dict(zip(self.args[::2], self.args[1::2])).get("--beta", "")

    @property
    def key(self) -> str:
        return ":".join((self.command, self.entry) + self.args)

    def argv(self, defs_dir: str) -> List[str]:
        path = os.path.join(defs_dir, self.entry + ".def")
        return [self.command, path, "--json", *self.args]


# --------------------------------------------------------------------
# the left-invariant family


def draw_lie_params(rng: random.Random) -> LieParams:
    """a, b, c, d with numerator in -3..3 and denominator in 1..2."""
    return tuple(  # type: ignore[return-value]
        Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)
    )


def lie_entry_name(params: LieParams) -> str:
    def part(f: Fraction) -> str:
        return str(f).replace("-", "m").replace("/", "d")

    return "lie_" + "_".join(part(f) for f in params)


def lie_definition(params: LieParams) -> str:
    """Definition text of the family member with p = a*x + b*y,
    q = c*x + d*y and declared alpha = (a + d)/2."""
    from paracosym.catalog import _lie_family

    a, b, c, d = (f"({f})" for f in params)
    alpha = (params[0] + params[3]) / 2
    return _lie_family(f"{a}*x + {b}*y", f"{c}*x + {d}*y").lstrip("\n") + (
        f"alpha = {alpha}\n"
    )


def load_bundles() -> List[List[LieParams]]:
    with open(BUNDLES_FILE, encoding="utf-8") as fh:
        raw = json.load(fh)["bundles"]
    return [[tuple(Fraction(v) for v in params) for params in b] for b in raw]


def lie_call(params: LieParams) -> Call:
    return Call("analyze", lie_entry_name(params), lie=tuple(str(f) for f in params))


# --------------------------------------------------------------------
# workload -> calls


def workload_calls(name: str, seed: int) -> List[Call]:
    if name == "lie3d":
        bundles = load_bundles()
        bundle = bundles[random.Random(seed).randrange(len(bundles))]
        return [lie_call(p) for p in bundle]
    if name == "analyze_5d":
        return [Call("analyze", entry) for entry in ANALYZE_5D]
    if name == "verify_deform":
        calls = [Call("verify", entry) for entry in CATALOG_NAMES]
        calls += [Call("deform", entry, args) for entry, args in DEFORMATIONS]
        return calls
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def definitions(calls: List[Call]) -> Dict[str, str]:
    """Definition text for every file the calls read, keyed by file stem."""
    from paracosym.catalog import catalog_entry

    out: Dict[str, str] = {}
    for call in calls:
        if call.entry in out:
            continue
        if call.lie:
            out[call.entry] = lie_definition(tuple(Fraction(v) for v in call.lie))  # type: ignore[arg-type]
        else:
            out[call.entry] = catalog_entry(call.entry).definition_text.lstrip("\n")
    return out
