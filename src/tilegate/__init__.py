"""Exact tools for right-triangle tilings of regular polygons.

The package decides which right-triangle shapes can tile a regular
n-gon, audits the counting lemmas behind that classification, and
verifies explicit tilings with exact cyclotomic arithmetic.

The classify side loads with the package.  The tiling side (the modules
``exact``, ``geometry`` and ``tiling``, and the names below taken from
them) loads on first use, so the classify side's start-up never pays
for it.  Beyond the standard library the package needs only numpy, and
loads it at the first product of dense vectors (see ``exact``), which a
tiling at field degree 8, such as the 8-gon's, never makes.
"""
import importlib

from .classify import (
    Candidate,
    CandidateSet,
    Outcome,
    Provenance,
    Verdict,
    alpha_str,
    candidates,
    impossibility_audit,
)
from .errors import (
    DomainError,
    FormatError,
    ModulusError,
    NonRealError,
    ResourceLimitError,
    StructuralError,
    TilegateError,
)
from .vertex import (
    AuditReport,
    PointClass,
    PointKind,
    VertexSolution,
    audit_lemma,
    enumerate_solutions,
    point_target,
)

__all__ = [
    "AuditReport",
    "Candidate",
    "CandidateSet",
    "CycloReal",
    "DomainError",
    "FormatError",
    "ModulusError",
    "NonRealError",
    "Outcome",
    "Point",
    "PointClass",
    "PointKind",
    "Provenance",
    "ResourceLimitError",
    "StructuralError",
    "TilegateError",
    "Tiling",
    "Triangle",
    "Verdict",
    "VerificationReport",
    "VertexSolution",
    "alpha_str",
    "angle_matches",
    "audit_lemma",
    "candidates",
    "classify_point",
    "cos_pi",
    "cyclotomic_polynomial",
    "default_modulus",
    "enumerate_solutions",
    "euler_phi",
    "gen_trivial",
    "impossibility_audit",
    "load_tiling",
    "point_target",
    "polygon_vertices",
    "regularity_class",
    "save_tiling",
    "sin_pi",
    "verify",
]

__version__ = "0.1.0"

# the module that defines each tiling-side name
_TILING_SIDE = {
    **dict.fromkeys(("CycloReal", "cos_pi", "cyclotomic_polynomial", "euler_phi", "sin_pi"),
                    "exact"),
    **dict.fromkeys(("Point", "Triangle"), "geometry"),
    **dict.fromkeys(("Tiling", "VerificationReport", "angle_matches", "classify_point",
                     "default_modulus", "gen_trivial", "load_tiling", "polygon_vertices",
                     "regularity_class", "save_tiling", "verify"), "tiling"),
}


def __getattr__(name: str):
    # PEP 562.  A name is looked up in its module on every access and
    # never stored here, so a wrapper patched into that module and later
    # taken out (as perfbench's tracer does) is not left behind here.
    if name in ("exact", "geometry", "tiling"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _TILING_SIDE:
        return getattr(importlib.import_module(f"{__name__}.{_TILING_SIDE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
