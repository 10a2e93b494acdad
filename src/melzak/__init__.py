"""Workbench for polyhedral edge-length minimization.

Core objects: bounded convex polyhedra built from halfspaces, the
scale-invariant ratio edge_length**3 / volume, spherical-image geometry at
vertices, analytic one-sided shape derivatives, local-minimality audits and
a small fixed-combinatorics optimizer.
"""
from .config import DEFAULT_TOLERANCES, Tolerances
from .polyhedron import (
    HalfSpace,
    Polyhedron,
    ValidationReport,
    edge_length,
    from_halfspaces,
    melzak_ratio,
    validate,
    volume,
)
from .shapes import (
    CUBE_RATIO,
    PRISM_EDGE_LENGTH,
    PRISM_RATIO,
    TETRA_RATIO,
    box,
    canonical,
    cube,
    ngon_pyramid,
    optimal_prism,
    optimal_pyramid,
    random_convex,
    regular_tetrahedron,
    unit_volume,
)
from .offio import emit_off, parse_off, read_off, write_off
from .gauss import (
    EXPOSED,
    NEGATIVELY_EXPOSED,
    NEITHER,
    angle_deficit,
    complement_gauss_image,
    dihedral_angle,
    exposure,
    gauss_image,
    spherical_area,
    spherical_incircle,
)
from .perturbations import (
    IN,
    OUT,
    DerivativeReport,
    Perturbation,
    apply,
    derivatives,
    face_hinge_derivatives,
    face_translate_derivatives,
    finite_difference_check,
    vertex_truncate_derivatives,
    with_fd,
)
from .criteria import CriteriaReport, CriterionVerdict, Witness, audit
from .wedges import (
    PyramidQuad,
    ScanReport,
    ScanSolution,
    Wedge,
    cleancond_scan,
    is_good_wedge,
    normalize_wedge,
    protruding_wedge,
    pyramid_F,
    rectangle_deviation,
    wedge_R,
    wedge_top_curvature,
)
from .optimize import (
    CatalogType,
    CriticalityReport,
    OptimizeOptions,
    OptimizeResult,
    SequenceStep,
    TypeRun,
    catalog_self_check,
    criticality_report,
    load_catalog,
    local_optimize,
    minimizing_sequence,
)

__all__ = [
    "DEFAULT_TOLERANCES", "Tolerances",
    "HalfSpace", "Polyhedron", "ValidationReport",
    "edge_length", "from_halfspaces", "melzak_ratio", "validate", "volume",
    "CUBE_RATIO", "PRISM_EDGE_LENGTH", "PRISM_RATIO", "TETRA_RATIO",
    "box", "canonical", "cube", "ngon_pyramid", "optimal_prism",
    "optimal_pyramid", "random_convex", "regular_tetrahedron", "unit_volume",
    "emit_off", "parse_off", "read_off", "write_off",
    "EXPOSED", "NEGATIVELY_EXPOSED", "NEITHER",
    "angle_deficit", "complement_gauss_image", "dihedral_angle", "exposure",
    "gauss_image", "spherical_area", "spherical_incircle",
    "IN", "OUT", "DerivativeReport", "Perturbation", "apply", "derivatives",
    "face_hinge_derivatives", "face_translate_derivatives",
    "finite_difference_check", "vertex_truncate_derivatives", "with_fd",
    "CriteriaReport", "CriterionVerdict", "Witness", "audit",
    "PyramidQuad", "ScanReport", "ScanSolution", "Wedge", "cleancond_scan",
    "is_good_wedge", "normalize_wedge", "protruding_wedge", "pyramid_F",
    "rectangle_deviation", "wedge_R", "wedge_top_curvature",
    "CatalogType", "CriticalityReport", "OptimizeOptions", "OptimizeResult",
    "SequenceStep", "TypeRun", "catalog_self_check", "criticality_report",
    "load_catalog", "local_optimize", "minimizing_sequence",
]
