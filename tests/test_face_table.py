"""Oracles for the per-face group table of a decorated cone: A_F, its facet
cut and the aligned decomposition of A_F / lambda_F.  Each oracle computes
its answer with general lattice intersections, not with the table's code."""

import json
import random

import pytest

import monoidring.monoid
from monoidring.cli import parse_input, write_model
from monoidring.criteria import s2_lattice_test
from monoidring.exactlin import lattice_from_rows, lattice_intersect, rank
from monoidring.monoid import monoid_new, to_model

from conftest import corpus, decorate_by_facets, even_degree_lattice, pyramid_model
from test_cli import run_cli


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
            out.append(to_model(monoid_new(sorted(gens))))
    return out


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


class TestFaceTable:
    def test_kernel_group_is_the_span_cut(self, models):
        for model in models:
            for f, row in zip(model.fl.faces, model.face_table):
                assert row.group == lattice_intersect(model.reference, f.span_lattice)

    def test_cut_meets_every_facet_above(self, models):
        for model in models:
            fl = model.fl
            for f, row in zip(fl.faces, model.face_table):
                want = lattice_intersect(model.reference, f.span_lattice)
                for i in f.zero_set:
                    facet = fl.by_zero_set(frozenset({i}))
                    want = lattice_intersect(want, model.lattice_of(facet))
                assert row.cut == want

    def test_aligned_quotient_basis(self, models):
        # the basis spans A_F and its factor multiples span lambda_F
        for model in models:
            m = model.cone.ambient_dim
            for f, row in zip(model.fl.faces, model.face_table):
                group = lattice_intersect(model.reference, f.span_lattice)
                assert lattice_from_rows(m, row.basis) == group
                scaled = [tuple(d * x for x in b) for d, b in zip(row.factors, row.basis)]
                assert lattice_from_rows(m, scaled) == model.lattice_of(f)

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
        model_path = tmp_path / "p73.model"
        write_model(pyramid_model(("F1",)), str(model_path))
        monoid_path = tmp_path / "rank3.txt"
        monoid_path.write_text("monoid 3\n1 0 1\n0 1 1\n0 0 1\n1 1 2\n")
        faces = {
            model_path: len(parse_input(str(model_path))[1].fl.faces),
            monoid_path: len(parse_input(str(monoid_path))[1].face_lattice.faces),
        }
        tables, kernels = [], []
        cuts, kernel = monoidring.monoid.face_group_cuts, monoidring.monoid.zero_set_kernel

        def counted_cuts(*args):
            tables.append(args)
            return cuts(*args)

        def counted_kernel(*args):
            kernels.append(args)
            return kernel(*args)

        monkeypatch.setattr(monoidring.monoid, "face_group_cuts", counted_cuts)
        monkeypatch.setattr(monoidring.monoid, "zero_set_kernel", counted_kernel)
        for path, n_faces in faces.items():
            tables.clear()
            kernels.clear()
            code, _, _ = run_cli(["analyze", str(path)])
            assert code == 0
            assert len(tables) == 1
            assert len(kernels) == n_faces
