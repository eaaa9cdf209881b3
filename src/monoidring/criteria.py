"""Named ring-theoretic criteria decided on the lattice side.

Everything here is a finite lattice computation: the two-out-of-codimension-
one test for Serre's condition (S2), the fast Cohen-Macaulay paths through
normal facets or simple cones, the depth bound chain, the bad primes for
Frobenius splitting, and the Gorenstein test for Cohen-Macaulay models.
"""

from dataclasses import dataclass
from math import gcd, prod

from .cohomology import filter_profile, least_faces
from .errors import HypothesisUnverified, NotCM
from .exactlin import Vec, dot, form_kernel, prime_factors, solve_rational
from .monoid import (
    AffineMonoid,
    DecoratedCone,
    default_seminormality_bound,
    gap_scan,
)
from .polyhedral import is_simple_face, minimal_face
from .typology import DepthReport, depth_report


def s2_lattice_test(model: DecoratedCone) -> tuple[bool, int | None]:
    """Exact (S2) test for seminormal models: every proper face lattice must
    be cut out by the facet lattices above it, lambda_F = span F ∩ ⋂ lambda_G
    over the facets G ⊇ F.  That is the facet cut of the face table: a
    proper face lies in some facet, whose lattice lies in the reference, so
    span F may be replaced by A_F = reference ∩ span F.  Returns a failing
    face index when the test fails."""
    for f, row in zip(model.fl.faces[:-1], model.face_table):
        if row.cut != model.lattice_of(f):
            return False, f.index
    return True, None


def _check_interior_hypothesis(monoid: AffineMonoid, gap: Vec | None) -> None:
    """Raise on a point of gp ∩ relint cn outside M found by the scan."""
    if gap is not None:
        raise HypothesisUnverified(
            f"interior point {gap} of degree {monoid.deg(gap)} is outside the monoid"
        )


def m_prime_member(monoid: AffineMonoid, x, hypothesis_bound: int | None = None) -> bool:
    """Membership in the facet-localization intersection M'.

    Valid under the hypothesis that all interior group points belong to the
    monoid; the hypothesis is verified up to hypothesis_bound (default: the
    seminormality default bound) and a violation raises HypothesisUnverified.
    The check reads the shared scan of the monoid up to that bound
    (monoid.gap_scan).

    The facet test at the minimal face F of x is the face table's cut of F
    in the model of sn(M) (AffineMonoid.model): A_F ∩ ⋂_{facets G ⊇ F}
    gp(M ∩ G) with A_F = gp(M) ∩ span F.  For x in C ∩ gp(M), x lies in
    A_F, so the cut agrees with the test of every facet group.  The cut
    lies in gp(M), so a point outside gp(M) fails it, and gp(M) needs no
    test of its own.
    """
    bound = default_seminormality_bound(monoid) if hypothesis_bound is None else hypothesis_bound
    _check_interior_hypothesis(monoid, gap_scan(monoid, bound).interior_gap)
    x = tuple(x)
    if not monoid.cone.contains(x):
        return False
    model = monoid.model
    return model.face_table[minimal_face(model.fl, x).index].cut.member(x)


@dataclass(frozen=True)
class S2Verdict:
    """Bounded (S2) verdict; the witness is a point of M' outside M."""

    bound: int
    witness: Vec | None

    @property
    def s2_up_to_bound(self) -> bool:
        return self.witness is None


def s2_up_to(monoid: AffineMonoid, bound: int, hypothesis_bound: int | None = None) -> S2Verdict:
    """Compare the monoid with M' on all cone-and-group points up to degree
    bound; the first discrepancy certifies the failure of (S2).  When there
    is a point to compare, the interior hypothesis is checked up to
    hypothesis_bound (default: bound).  Both read one shared scan of the
    monoid up to the larger bound (monoid.gap_scan)."""
    hypothesis_bound = bound if hypothesis_bound is None else hypothesis_bound
    scan = gap_scan(monoid, max(bound, hypothesis_bound))

    def up_to(gap, b):
        return gap if gap is not None and monoid.deg(gap) <= b else None

    if scan.least_degree is not None and scan.least_degree <= bound:
        _check_interior_hypothesis(monoid, up_to(scan.interior_gap, hypothesis_bound))
    return S2Verdict(bound, up_to(scan.m_prime_gap, bound))


def normal_facets_cm(model: DecoratedCone) -> bool | None:
    """Cohen-Macaulay for every field when all facet submonoids are normal;
    no verdict otherwise.

    Every facet is normal exactly when every face of dimension at most
    rank - 1 is: a subface of a normal face is normal, and every proper face
    lies in a facet.  So the facets are all normal exactly when
    n_value(model) >= rank - 1.
    """
    return True if n_value(model) >= model.rank - 1 else None


def simple_cone_cm(model: DecoratedCone) -> tuple[bool | None, dict[int, bool]]:
    """Cohen-Macaulay when the cone is simple (all edges simple) and the
    lattice (S2) test passes.  Also reports, per proper face, whether a
    simple face excludes obstructions there."""
    fl = model.fl
    simple_flags = {f.index: is_simple_face(fl, f) for f in fl.faces[:-1]}
    edges_simple = all(simple_flags[f.index] for f in fl.faces_of_dim(1))
    s2_ok, _ = s2_lattice_test(model)
    verdict = True if (edges_simple and s2_ok) else None
    return verdict, simple_flags


def n_value(model: DecoratedCone) -> int:
    """Largest i such that every face of dimension <= i is normal (<= rank).

    A face f is normal exactly when every cover g ⋖ h below f is tight,
    lambda_g = lambda_h ∩ span g.  If f is normal, both sides equal
    lambda_f ∩ span g.  Conversely, along a maximal chain from g up to f,
    tight covers give lambda_h = lambda_f ∩ span h at every step, down to
    h = g.  So the smallest non-normal face is the upper face h of a
    non-tight cover, and one sweep over the cover pairs decides n.

    g is a facet of h, so one support form phi that vanishes on g but not
    on h cuts span h down to span g (see monoid.face_group_cuts).  As
    lambda_h lies in span h, lambda_h ∩ span g is the kernel of phi on
    lambda_h (exactlin.form_kernel), in canonical form.  So the cover is
    tight exactly when that kernel == lambda_g.
    """
    fl = model.fl
    forms = fl.cone.support_forms
    worst = model.rank
    for g in fl.faces:
        for h in fl.up_covers[g.index]:
            dim_h = fl.faces[h].dim
            if dim_h - 1 < worst:
                phi = forms[min(g.zero_set - fl.faces[h].zero_set)]
                if form_kernel(model.lambdas[h], phi) != model.lattice_of(g):
                    worst = dim_h - 1
    return worst


@dataclass(frozen=True)
class DepthBounds:
    c_k: int
    n: int
    depth: int
    chain_holds: bool


def depth_bounds_multi(model: DecoratedCone, report: DepthReport) -> dict[int | None, DepthBounds]:
    """The chain depth >= c_K >= min(n + 1, rank) over Q and each prime of
    the model's depth report.

    The depth over each field is the report's, and c_K is read off the
    fibers the report was computed from.  c_K needs the Cohen-Macaulay
    verdict of every face-restricted model W_F, and all of them come from
    the parent's fibers.  W_F has the parent's lattices on the faces below
    F and reference lattice lambda_F, so its classes at a face G <= F are
    those of span G ∩ lambda_F, a subgroup of the parent's A*.  A parent class x in
    A*/lambda_G with pattern S lies in it exactly when x is in lambda_F,
    that is when F is in S, and its W_F pattern is then S ∩ [G, F].  So the
    realizable filters of W_F are these sub-filters.  Each one's complex is
    the interval complex below F with the parent's incidence signs; any two
    incidence functions give isomorphic complexes (Bruns-Herzog, §6.2).
    W_F is Cohen-Macaulay exactly when no sub-filter has cohomology below
    degree dim F, and W_top is the model itself.  A profile holds its dims
    for every torsion prime of its complex, so it answers every field.

    A parent fiber whose filter S has one least face G gives nothing to
    profile.  The least faces of S ∩ [G, F] are the least faces of S below
    F, as every down-cover of a face below F is below F.  So its sub-filters
    are the intervals [G, F] with G < F, which are acyclic, and the
    singletons {F}, with cohomology in degree dim F alone (argument in
    cohomology.interval_profile).  A filter that holds its base face is
    such a filter without a search for its least faces: it lies above the
    base face, which is then its only least face.  Only the fibers with two
    or more least faces are split, and filter_profile builds a complex only
    for those of their sub-filters that again have two or more.

    c_K over a field is one less than the dimension of the first face, by
    increasing dimension, that is not Cohen-Macaulay (the rank if there is
    none), so faces above that dimension are never profiled.
    """
    fl = model.fl
    d = model.rank
    fields = (None, *report.depth_by_prime)
    below: list[frozenset[int]] = []
    for f in fl.faces:
        below.append(frozenset({f.index}).union(*(below[g] for g in fl.down_covers[f.index])))
    subs: list[set[frozenset[int]]] = [set() for _ in fl.faces]
    for t in report.fibers:
        if t.base_face in t.filter_ids or len(least_faces(fl, t.filter_ids)) == 1:
            continue
        for i in t.filter_ids:
            subs[i].add(t.filter_ids & below[i])
    c_k = {p: d if report.cm(p) else d - 1 for p in fields}
    for f in fl.faces[:-1]:
        open_fields = [p for p in fields if f.dim - 1 < c_k[p]]
        if not open_fields:
            break
        for sub in subs[f.index]:
            profile = filter_profile(fl, sub, f)
            for p in open_fields:
                if any(profile.dims(p)[: f.dim]):
                    c_k[p] = f.dim - 1
    n = n_value(model)
    return {
        p: DepthBounds(c_k[p], n, report.depth(p), report.depth(p) >= c_k[p] >= min(n + 1, d))
        for p in fields
    }


def depth_bounds(model: DecoratedCone, p: int | None = None) -> DepthBounds:
    """The chain depth >= c_K >= min(n + 1, rank), evaluated exactly."""
    return depth_bounds_multi(model, depth_report(model, primes=() if p is None else (p,)))[p]


def f_bad_primes(model: DecoratedCone) -> frozenset[int]:
    """Primes p where the ring fails to be F-split / F-pure / F-injective:
    the torsion primes of the quotients A_F / lambda_F."""
    factors = (x for row in model.face_table for x in row.factors)
    return frozenset().union(*map(prime_factors, factors))


def gorenstein_check(
    model: DecoratedCone, p: int | None = None, report: DepthReport | None = None
) -> tuple[bool, Vec | None]:
    """Gorenstein test for a Cohen-Macaulay model.

    Facets of group index > 2 rule it out.  Otherwise the candidate b is the
    unique reference point with sigma_F(b) = 0 on index-2 facets and = 1 on
    the others; it must exist and lie outside every index-2 facet lattice.
    Here sigma_F = form_F / scale_F is the primitive form on the reference
    group vanishing on F, scale_F the gcd of form_F over the reference
    basis.  Such a b always lies in the cone: every sigma_F(b) is 0 or 1.
    p enters only through the Cohen-Macaulay check: the indices, the solve
    and b are the same over every field, so one call answers every field
    over which the model is Cohen-Macaulay (cli analyze makes one).
    """
    rep = report if report is not None else depth_report(model, primes=() if p is None else (p,))
    if not rep.cm(p):
        raise NotCM("the Gorenstein test requires a Cohen-Macaulay model")
    fl = model.fl
    ref = model.reference
    facet_ids = fl.facet_indices()
    gammas = {i: prod(model.face_table[i].factors) for i in facet_ids}
    if any(gamma > 2 for gamma in gammas.values()):
        return False, None
    # sigma_F(b) = target over the reference coordinates, times scale_F:
    # row j is (form_F . b_j)_F, the target scale_F * target_F
    forms = [fl.cone.support_forms[next(iter(fl.faces[i].zero_set))] for i in facet_ids]
    rows = [tuple(dot(form, b) for form in forms) for b in ref.basis]
    scales = [gcd(*column) for column in zip(*rows)]
    rhs = [0 if gammas[i] == 2 else scale for i, scale in zip(facet_ids, scales)]
    coords = solve_rational(rows, rhs)
    if coords is None or any(c.denominator != 1 for c in coords):
        return False, None
    b = ref.from_coords([int(c) for c in coords])
    assert model.cone.contains(b), "every sigma_F(b) is 0 or 1"
    for i in facet_ids:
        if gammas[i] == 2 and model.lambdas[i].member(b):
            return False, None
    return True, b
