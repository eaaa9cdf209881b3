"""Oracles for the per-face group table of a decorated cone: A_F, its facet
cut and the aligned decomposition of A_F / lambda_F.  Each oracle computes
its answer with general lattice intersections, not with the table's code."""

import json
import random
import re

import pytest

import monoidring.constructions
import monoidring.exactlin
import monoidring.monoid
from monoidring.cli import parse_input, write_model
from monoidring.criteria import s2_lattice_test
from monoidring.errors import DegenerateFace
from monoidring.constructions import SimplicialComplex, builtin, delta_construct
from monoidring.exactlin import lattice_from_rows, lattice_intersect, rank
from monoidring.monoid import DecoratedCone, decorated_cone, monoid_new

from conftest import (
    ORACLE_COMPLEXES,
    corpus,
    decorate_by_facets,
    even_degree_lattice,
    facet_by_label,
    oracle_construction,
    pyramid_model,
)
from oracles import smith_decomposition
from test_cli import run_cli
from test_gap_scan import seeded_monoids
from test_polyhedral import even_decoration


def random_monoid_models(seed, count):
    """Models of seeded random rank-3 monoids: five points (x, y, d) with
    d in 1..2 and 0 <= x, y <= d."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = set()
        while len(gens) < 5:
            d = rng.randint(1, 2)
            gens.add((rng.randint(0, d), rng.randint(0, d), d))
        if rank(sorted(gens)) == 3:
            out.append(monoid_new(sorted(gens)).model)
    return out


def even_reference_models(models):
    """The models decorated again on the reference of even last coordinate:
    each facet keeps its lattice cut to it, every other face its facet cut."""
    out = []
    for model in models:
        fl = model.fl
        reference = even_degree_lattice(fl.cone.ambient_dim)
        facets = {
            next(iter(fl.faces[j].zero_set)): lattice_intersect(model.lambdas[j], reference)
            for j in fl.facet_indices()
        }
        out.append(decorate_by_facets(fl, facets, reference))
    return out


def kernels_of_the_cut(model):
    """The form kernels one face_group_cuts takes: one per face whose first
    cover's group is not that cover's span, for A_F, and one per face
    strictly below a facet whose lattice is not its whole group, cut from a
    cover."""
    fl = model.fl
    groups = [lattice_intersect(model.reference, f.span_lattice) for f in fl.faces]
    first_covers = [fl.faces[fl.up_covers[f.index][0]] for f in fl.faces[:-1]]
    by_group = [h for h in first_covers if groups[h.index] != h.span_lattice]
    cutting = [fl.faces[i] for i in fl.facet_indices() if model.lambdas[i] != groups[i]]
    below = [f for f in fl.faces if any(f.ray_set < g.ray_set for g in cutting)]
    return len(by_group) + len(below)


def facet_loop_s2(model):
    """(S2) as a loop over the proper faces: the span of the face cut by the
    lattice of every facet above it must be the face lattice."""
    fl = model.fl
    for f in fl.faces[:-1]:
        expected = f.span_lattice
        for i in f.zero_set:
            facet = fl.by_zero_set(frozenset({i}))
            expected = lattice_intersect(expected, model.lattice_of(facet))
        if expected != model.lattice_of(f):
            return False, f.index
    return True, None


def with_doubled_ray(model, path, ray):
    """Write the model with an extra block for one ray: twice its lattice."""
    write_model(model, str(path))
    rows = [" ".join(str(2 * x) for x in row) for row in model.lattice_of(ray).basis]
    with open(path, "a") as fh:
        fh.write("lattice " + " ".join(map(str, sorted(ray.ray_set))) + "\n")
        fh.write("\n".join(rows) + "\n")
    return parse_input(str(path))[1]


@pytest.fixture(scope="module")
def models():
    return (
        corpus(seed=501, count=30)
        + [pyramid_model(("F1", "F3")), pyramid_model(("F1",))]
        + random_monoid_models(seed=7, count=10)
    )


@pytest.fixture(scope="module")
def cut_models(models, rp2_result):
    """The models, the constructed ones with RP², and models whose reference
    is not span C ∩ Z^m."""
    constructed = [oracle_construction(name).model for name in sorted(ORACLE_COMPLEXES)]
    out = models + constructed + [rp2_result.model] + even_reference_models(models[:32])
    assert sum(m.reference != m.cone.span_lattice for m in out) >= 32
    return out


class TestFaceTable:
    def test_kernel_group_is_the_span_cut(self, cut_models):
        for model in cut_models:
            for f, row in zip(model.fl.faces, model.face_table):
                assert row.group == lattice_intersect(model.reference, f.span_lattice)

    def test_cut_meets_every_facet_above(self, cut_models):
        for model in cut_models:
            fl = model.fl
            for f, row in zip(fl.faces, model.face_table):
                want = lattice_intersect(model.reference, f.span_lattice)
                for i in f.zero_set:
                    facet = fl.by_zero_set(frozenset({i}))
                    want = lattice_intersect(want, model.lattice_of(facet))
                assert row.cut == want

    def test_cut_by_a_facet_lattice_outside_its_group(self):
        # a facet lattice leaving span G still cuts every face to A_F ∩ lambda_G
        fl = pyramid_model().fl
        f1 = facet_by_label(fl, "F1")
        odd = lattice_from_rows(4, [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        cuts = monoidring.monoid.face_group_cuts(fl, fl.cone.span_lattice, {f1.index: odd})
        for f, (group, cut) in zip(fl.faces, cuts):
            assert group == f.span_lattice
            assert cut == (lattice_intersect(group, odd) if f.ray_set <= f1.ray_set else group)

    def test_aligned_quotient_basis(self, models):
        # the basis spans A_F and its factor multiples span lambda_F
        for model in models:
            m = model.cone.ambient_dim
            for f, row in zip(model.fl.faces, model.face_table):
                group = lattice_intersect(model.reference, f.span_lattice)
                assert lattice_from_rows(m, row.basis) == group
                scaled = [tuple(d * x for x in b) for d, b in zip(row.factors, row.basis)]
                assert lattice_from_rows(m, scaled) == model.lattice_of(f)

    def test_every_row_matches_the_smith_path(self, models, rp2_result):
        # the trivial and diagonal quotients, read without a Smith form,
        # give the Smith path's own factors and basis
        trivial = 0
        for model in models + [rp2_result.model]:
            for row, lam in zip(model.face_table, model.lambdas):
                want = smith_decomposition(row.group, lam)
                assert repr((row.factors, row.basis)) == repr(want)
                trivial += lam == row.group
        assert trivial >= 1428  # the RP² faces alone

    def test_rp2_table_runs_a_smith_form_per_non_diagonal_quotient(self, rp2_result, monkeypatch):
        # of RP²'s 1492 nontrivial quotients all but 33 are diagonal
        model = rp2_result.model
        fresh = DecoratedCone(model.fl, model.lambdas)
        fresh.__dict__["_cuts"] = model._cuts  # the cuts are built, as decorate_by_facet_cuts does
        calls = []
        snf = monoidring.exactlin.snf

        def counted(matrix):
            calls.append(matrix)
            return snf(matrix)

        monkeypatch.setattr(monoidring.exactlin, "snf", counted)
        assert fresh.face_table == model.face_table
        assert 1 <= len(calls) <= 33

    def test_rp2_groups_down_the_covers(self, rp2_result, count_calls):
        # A_F on the even reference: one form kernel per face below the top,
        # and no cutting facet.  On span C ∩ Z^m: no kernel for A_F, and one
        # per face strictly below a cutting facet, cut from a cover
        model = rp2_result.model
        fl = model.fl
        kernels = count_calls(monoidring.monoid, "form_kernel")
        table = monoidring.monoid.face_group_cuts(fl, *even_decoration(fl))
        assert all(cut == group for group, cut in table)
        assert len(kernels) == len(fl.faces) - 1 == 2919
        kernels.clear()
        monoidring.monoid.face_group_cuts(fl, model.reference, dict(enumerate(model.lambdas)))
        assert len(kernels) == kernels_of_the_cut(model) == 2876

    def test_s2_matches_the_facet_loop(self, models, tmp_path):
        # rays are proper faces below the facets from rank 3 on
        doubled = [
            with_doubled_ray(model, tmp_path / f"m{i}.model", model.fl.faces_of_dim(1)[0])
            for i, model in enumerate(models)
            if model.rank >= 3
        ]
        failing = 0
        for model in models + doubled:
            got = s2_lattice_test(model)
            assert got == facet_loop_s2(model)
            failing += not got[0]
        assert failing >= len(doubled)

    def test_lower_face_block_fails_s2_at_that_face(self, tmp_path):
        for i, model in enumerate(corpus(seed=53, count=8, ranks=(3, 4))):
            rays = model.fl.faces_of_dim(1)
            ray = rays[i % len(rays)]
            path = tmp_path / f"m{i}.model"
            parsed = with_doubled_ray(model, path, ray)
            assert s2_lattice_test(parsed) == facet_loop_s2(parsed) == (False, ray.index)
            code, out, _ = run_cli(["analyze", str(path), "--fields", "q"])
            assert code == 0
            assert json.loads(out)["s2_lattice"]["failing_face"] == sorted(ray.ray_set)

    def test_parse_defaults_are_the_facet_rule(self, tmp_path):
        # a written model holds the reference and the facets only; the parse
        # decorates every other face by the file format's default
        for i, model in enumerate(corpus(seed=501, count=30)):
            fl = model.fl
            reference = even_degree_lattice(model.rank) if i % 2 else model.reference
            facets = {
                next(iter(fl.faces[j].zero_set)): lattice_intersect(model.lambdas[j], reference)
                for j in fl.facet_indices()
            }
            want = decorate_by_facets(fl, facets, reference)
            path = tmp_path / f"m{i}.model"
            write_model(want, str(path))
            _, parsed = parse_input(str(path))
            assert parsed.lambdas == want.lambdas

    def test_parse_then_analyze_computes_the_table_once(self, tmp_path, monkeypatch):
        # one face_group_cuts per analyze, taking the kernels of
        # kernels_of_the_cut: pyramid-7.3 on span C ∩ Z^m and on the
        # reference of even first coordinate, and a monoid file
        model_path = tmp_path / "p73.model"
        write_model(pyramid_model(("F1",)), str(model_path))
        even_path = tmp_path / "p73-even-x.model"
        fl = pyramid_model(("F1",)).fl
        even_x = lattice_from_rows(4, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        f1 = {next(iter(facet_by_label(fl, "F1").zero_set)): even_degree_lattice(4)}
        write_model(decorate_by_facets(fl, f1, even_x), str(even_path))
        monoid_path = tmp_path / "rank3.txt"
        monoid_path.write_text("monoid 3\n1 0 1\n0 1 1\n0 0 1\n1 1 2\n")
        want = {
            model_path: kernels_of_the_cut(parse_input(str(model_path))[1]),
            even_path: kernels_of_the_cut(parse_input(str(even_path))[1]),
            monoid_path: kernels_of_the_cut(parse_input(str(monoid_path))[1].model),
        }
        assert want[model_path] == 7  # the faces strictly below the facet F1
        # and one group A_F per face below the top, as no first cover's group
        # is its span
        assert want[even_path] == 19 + 7
        tables, kernels = [], []
        cuts, kernel = monoidring.monoid.face_group_cuts, monoidring.monoid.form_kernel

        def counted_cuts(*args):
            tables.append(args)
            return cuts(*args)

        def counted_kernel(*args):
            kernels.append(args)
            return kernel(*args)

        monkeypatch.setattr(monoidring.monoid, "face_group_cuts", counted_cuts)
        monkeypatch.setattr(monoidring.monoid, "form_kernel", counted_kernel)
        for path, n_kernels in want.items():
            tables.clear()
            kernels.clear()
            code, _, _ = run_cli(["analyze", str(path)])
            assert code == 0
            assert len(tables) == 1
            assert len(kernels) == n_kernels


PYRAMID_71_REFERENCE = "lattice *\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
PYRAMID_71_F1 = "lattice 0 1 2\n1 0 1 0\n0 1 0 0\n0 0 2 2\n"

# Bad given lattices for the pyramid-7.1 model file: the text replaced (or
# "" for an appended lattice), the lattice block put there, and the message.
BAD_GIVEN_LATTICES = [
    # the ray (0, 0, 1, 1) lies on the even facet F1
    ("", "lattice 2\n0 0 1 1\n", "face lattices are not monotone along covers"),
    # a given ridge inside the cut of its face that misses the lattice
    # 2 (-1, -1, 0, 1) Z of its cut down-cover, the ray 0
    ("", "lattice 0 2\n4 4 0 -4\n0 0 2 2\n", "face lattices are not monotone along covers"),
    ("", "lattice 2\n1 0 1 1\n", r"face \[2\]: lattice leaves the face span"),
    ("", "lattice 2\n0 0 1 1\n1 0 0 0\n", r"face \[2\]: lattice rank 2 != dim 1"),
    # a given facet of the wrong rank is named before any cut is taken
    (
        PYRAMID_71_F1,
        "lattice 0 1 2\n1 0 1 0\n0 1 0 0\n",
        r"face \[0, 1, 2\]: lattice rank 2 != dim 3",
    ),
    # the base facet holds (0, 0, 0, 1), outside the even reference
    (
        PYRAMID_71_REFERENCE,
        PYRAMID_71_REFERENCE.replace("0 0 0 1", "0 0 0 2"),
        "face lattices are not monotone along covers",
    ),
]


class TestGivenLatticeValidation:
    """decorate_by_facet_cuts validates the given lattices only, and
    AffineMonoid.model validates nothing.  The models they build pass
    decorated_cone's validation of every face, which does not share their
    code, and an invalid given lattice is refused."""

    def test_full_validation_accepts_every_built_model(self, rp2_result, tmp_path):
        hexagon = SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        built = [builtin(name) for name in ("pyramid-7.1", "pyramid-7.3")]
        built += [oracle_construction(name).model for name in sorted(ORACLE_COMPLEXES)]
        built += [delta_construct(hexagon).model, rp2_result.model]
        built += [m.model for m in seeded_monoids()]
        for i, model in enumerate(corpus(seed=501, count=30)):
            path = tmp_path / f"m{i}.model"
            write_model(model, str(path))
            built.append(parse_input(str(path))[1])
        for model in built:
            assert decorated_cone(model.fl, model.lambdas).lambdas == model.lambdas

    def test_no_pair_below_the_given_facets_is_tested(self, monkeypatch):
        """A construction gives facet lattices alone, so every cover pair
        that reaches _check_monotone has a given lower end: no pair of a cut
        face below a given facet or the reference is tested."""
        calls = []
        decorate = monoidring.constructions.decorate_by_facet_cuts
        check = monoidring.monoid._check_monotone

        def recorded(fl, given):
            calls.append((set(given), []))
            return decorate(fl, given)

        def recorded_check(lambdas, pairs):
            calls[-1][1].extend(pairs)
            check(lambdas, pairs)

        monkeypatch.setattr(monoidring.constructions, "decorate_by_facet_cuts", recorded)
        monkeypatch.setattr(monoidring.monoid, "_check_monotone", recorded_check)
        for name in ("pyramid-7.1", "pyramid-7.3"):
            builtin(name)
        for name in sorted(ORACLE_COMPLEXES):
            delta_construct(SimplicialComplex.from_facets(ORACLE_COMPLEXES[name]))
        assert len(calls) == 2 + len(ORACLE_COMPLEXES)
        for given, pairs in calls:
            assert pairs
            assert all(low in given for low, _ in pairs)

    @pytest.mark.parametrize("old, new, message", BAD_GIVEN_LATTICES)
    def test_invalid_given_lattice_is_refused(self, tmp_path, old, new, message):
        path = tmp_path / "p71.model"
        write_model(builtin("pyramid-7.1"), str(path))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new) if old else text + new)
        code, out, err = run_cli(["analyze", str(path)])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert re.match("error: invalid decoration: " + message, err)

    @pytest.mark.parametrize("old, new, message", BAD_GIVEN_LATTICES)
    def test_full_validation_gives_the_same_messages(self, tmp_path, old, new, message):
        """decorated_cone, which check runs on every face, refuses each bad
        lattice, put in place of its face's lattice in the valid model,
        with the message of the given-lattice validation."""
        path = tmp_path / "p71.model"
        write_model(builtin("pyramid-7.1"), str(path))
        model = parse_input(str(path))[1]
        fl, lambdas = model.fl, list(model.lambdas)
        header, *rows = new.splitlines()
        rays = header.split()[1:]
        face = fl.top if rays == ["*"] else next(
            f for f in fl.faces if sorted(f.ray_set) == list(map(int, rays))
        )
        lambdas[face.index] = lattice_from_rows(fl.cone.ambient_dim, [r.split() for r in rows])
        with pytest.raises(DegenerateFace) as refused:
            decorated_cone(fl, lambdas)
        assert re.fullmatch(message, str(refused.value))
