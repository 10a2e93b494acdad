"""Exception types raised by the geometry, perturbation and audit layers."""


class GeometryError(Exception):
    """Base class for all geometric failures in this package."""


class BadParameter(GeometryError):
    """A constructor or operation received an out-of-range parameter."""


class DegenerateInput(GeometryError):
    """Input is too degenerate to resolve at the working tolerance."""


class UnboundedIntersection(GeometryError):
    """Halfspace intersection has a nontrivial recession cone."""


class EmptyInterior(GeometryError):
    """Halfspace intersection has no interior point."""


class ParseError(GeometryError):
    """Malformed OFF input; message carries the offending line number."""


class NonManifold(GeometryError):
    """An edge is not shared by exactly two faces."""


class ZeroVolume(GeometryError):
    """Enclosed volume is zero or numerically indistinguishable from it."""


class DanglingVertex(GeometryError):
    """A vertex has fewer than three incident faces."""


class NonConvexPolygon(GeometryError):
    """Spherical polygon is not convex where convexity is required."""


class DegeneratePolygon(GeometryError):
    """Spherical polygon has collapsed onto a single geodesic."""


class NotExposed(GeometryError):
    """Vertex lacks the exposure class required by the operation."""


class NotExposedFace(GeometryError):
    """Face has a vertex outside the exposure class required here."""


class NotSemiExposed(GeometryError):
    """Hinge rotation requires every moving vertex of the face exposed."""


class CombinatorialCollapse(GeometryError):
    """Perturbation magnitude crossed a combinatorial boundary."""


class UnboundedWedge(GeometryError):
    """Neighbor halfspaces do not close off the protrusion over a face."""


class DegenerateEdge(GeometryError):
    """Edge is too short, or its lateral direction is unusable."""


class CoincidentPoints(GeometryError):
    """Planar quad has coincident or origin-touching points, or crossing edges."""


class InvalidStart(GeometryError):
    """Optimizer start is not a valid bounded convex polyhedron with every
    vertex of degree 3."""


class UnsupportedFaceCount(GeometryError):
    """Requested face count is outside the shipped catalog range."""


class NotConvex(GeometryError):
    """Operation is defined for convex polyhedra only."""


class InvalidPolyhedron(GeometryError):
    """Polyhedron failed validation before an audit."""


class NumericalBreakdown(GeometryError):
    """Objective became non-finite during optimization."""
