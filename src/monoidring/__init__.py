"""Exact combinatorial analysis of affine monoid rings.

The package decides ring-theoretic properties of the monoid algebra of a
positive affine monoid (Serre's condition (S2), depth, Cohen-Macaulayness,
Gorensteinness, Frobenius splitting primes) through finite lattice and
face-poset computations, entirely in exact integer arithmetic.
"""

from .cohomology import (
    CohomologyProfile,
    cochain_complex,
    cohomology_dims,
    filter_at,
    local_cohomology_at,
    torsion_primes,
)
from .constructions import (
    RP2_SIX_VERTEX,
    ConstructionResult,
    SimplicialComplex,
    builtin,
    delta_construct,
    simplicial_homology,
    verify_eq_homology,
)
from .criteria import (
    depth_bounds,
    depth_bounds_multi,
    f_bad_primes,
    gorenstein_check,
    m_prime_member,
    normal_facets_cm,
    s2_lattice_test,
    s2_up_to,
    simple_cone_cm,
)
from .exactlin import (
    Lattice,
    hnf,
    lattice_from_rows,
    lattice_intersect,
    saturation,
    snf,
)
from .monoid import (
    AffineMonoid,
    DecoratedCone,
    SeminormalityVerdict,
    decorated_cone,
    face_submonoid_generators,
    hilbert_basis,
    is_normal,
    is_seminormal_up_to,
    member,
    model_member,
    monoid_new,
    restrict_model,
    sn_member,
    to_model,
)
from .polyhedral import (
    Face,
    FaceLattice,
    RationalCone,
    dual_description,
    face_lattice,
    grading_form,
    is_simple_face,
    minimal_face,
)
from .typology import (
    CohomologyType,
    DepthReport,
    depth_report,
    fiber_types,
)

__version__ = "0.1.0"
