"""Exact tools for right-triangle tilings of regular polygons.

The package decides which right-triangle shapes can tile a regular
n-gon, audits the counting lemmas behind that classification, and
verifies explicit tilings with exact cyclotomic arithmetic.
"""
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
from .exact import CycloReal, cos_pi, cyclotomic_polynomial, euler_phi, sin_pi
from .geometry import Point, Triangle
from .tiling import (
    Tiling,
    VerificationReport,
    angle_matches,
    classify_point,
    default_modulus,
    gen_trivial,
    load_tiling,
    polygon_vertices,
    regularity_class,
    save_tiling,
    verify,
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
