"""The four workloads: inputs per round, the timed task, and its checks.

A round is one task set.  ``setup`` builds a round's inputs from a
``random.Random`` seeded by (workload, seed, round), so every round's inputs
are new to the process and the same seed always gives the same inputs.
``run`` is the timed call into the library.  ``check`` returns an error
message for a wrong answer, or None; ``digest`` is the byte string the
golden file pins for the default seed.

Library functions are always looked up on their module at call time, so
the tracer's wrappers are seen when a traced run installs them.
"""

import contextlib
import io
import json
import os

import monoidring as mr
import monoidring.cli as cli

import gen

FIELDS = (None, 2, 3)


def field_key(p):
    return "q" if p is None else str(p)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def check_report(report, rank):
    """Checks that hold for every analyze report."""
    if report["rank"] != rank:
        return f"rank {report['rank']} != {rank}"
    for key, depth in report["depth"].items():
        if not 1 <= depth <= rank:
            return f"depth over {key} is {depth}, outside 1..{rank}"
        if report["cm"][key] != (depth == rank):
            return f"cm over {key} disagrees with depth"
        bounds = report["depth_bounds"][key]
        if not bounds["chain_holds"] or bounds["depth"] != depth:
            return f"depth bound chain fails over {key}"
    return None


class Workload:
    name = ""

    def __init__(self, tmpdir, invariants):
        self.tmpdir = tmpdir
        self.invariants = invariants

    def path(self, r, i, ext):
        return os.path.join(self.tmpdir, f"{self.name}-r{r}-t{i}.{ext}")

    def reference_invariants(self):
        """Expected answers pinned in the golden file beside the digests."""
        return {}


class Construct(Workload):
    """delta_construct, the model file, and the homology oracle."""

    name = "construct"
    # the median task falls inside the cluster of like cost made of
    # triangle + point, path P4 and the random complexes
    SHAPES = ["tetrahedron-boundary", "cycle4", "triangle+tail", "triangle+point", "path4",
              "triangle-boundary+point"]
    RANDOM = 4
    RANDOM_NON_FACES = 3  # the most common count; it keeps random complexes' cost close

    def setup(self, rng, r):
        complexes = [(s, mr.SimplicialComplex.from_facets(gen.relabel(rng, gen.SHAPES[s])))
                     for s in self.SHAPES]
        while len(complexes) < len(self.SHAPES) + self.RANDOM:
            delta = mr.SimplicialComplex.from_facets(gen.relabel(rng, gen.random_complex(rng)))
            if len(delta.minimal_non_faces()) == self.RANDOM_NON_FACES:
                complexes.append(("random4", delta))
        tasks = []
        for i, (label, delta) in enumerate(complexes):
            # the oracle runs over Q, F_2 and every torsion prime of the complex
            primes = sorted({2} | mr.simplicial_homology(delta).torsion_primes)
            tasks.append({"label": label, "delta": delta, "fields": [None] + primes,
                          "path": self.path(r, i, "model")})
        return tasks

    def run(self, task):
        result = mr.delta_construct(task["delta"])
        header = ["constructed model",
                  "distinguished degree: " + " ".join(map(str, result.distinguished_degree)),
                  f"rank: {result.rank}"]
        cli.write_model(result.model, task["path"], header)
        with open(task["path"]) as fh:
            text = fh.read()
        return {"text": text, "result": result}

    def check(self, task, out):
        bad = [field_key(p) for p in task["fields"]
               if not mr.verify_eq_homology(out["result"], task["delta"], p)]
        if bad:
            return f"local cohomology differs from reduced homology over {bad}"
        return None

    def digest(self, task, out):
        return out["text"].encode()


class Depth(Workload):
    """depth_report on constructed models, rebuilt in new coordinates during
    set-up.  The complexes keep one vertex order and the coordinates are
    only permuted and negated, so every round's models cost the same."""

    name = "depth"
    # triangle + tail and the 4-cycle come twice, in different coordinates,
    # so that the median task falls inside a cluster of four of like cost;
    # the star comes twice so that the tail task falls inside the cluster
    # of the four costliest (star, path P4, triangle + point)
    SHAPES = ["triangle-boundary", "two-triangles", "tetrahedron-boundary",
              "triangle+tail", "triangle+tail", "cycle4", "cycle4",
              "star3", "star3", "path4", "triangle+point"]

    def __init__(self, tmpdir, invariants):
        super().__init__(tmpdir, invariants)
        self._bases = None

    def setup(self, rng, r):
        if self._bases is None:
            self._bases = {}
            for label in dict.fromkeys(self.SHAPES):
                delta = mr.SimplicialComplex.from_facets(gen.SHAPES[label])
                built = mr.delta_construct(delta)
                self._bases[label] = (gen.describe_model(built.model), built.rank,
                                      mr.simplicial_homology(delta, (2, 3)))
        tasks = []
        for i, label in enumerate(self.SHAPES):
            description, rank, homology = self._bases[label]
            path = self.path(r, i, "model")
            with open(path, "w") as fh:
                fh.write(gen.transformed_model_text(rng, description, label, steps=0))
            _, model = cli.parse_input(path)
            tasks.append({"label": label, "model": model, "rank": rank, "homology": homology})
        return tasks

    def run(self, task):
        rep = mr.depth_report(task["model"], primes=(2, 3))
        fields = [None] + sorted(rep.depth_by_prime)
        # the depth fields an analyze report prints, for every field computed
        return {
            "rank": rep.rank,
            "depth": {field_key(p): rep.depth(p) for p in fields},
            "cm": {field_key(p): rep.cm(p) for p in fields},
            "torsion_primes": sorted(rep.torsion_primes),
            "buchsbaum_excluded": rep.buchsbaum_excluded,
            "depth_witnesses": {
                key: {str(i): list(v) for i, v in wit.items() if i < rep.rank}
                for key, wit in rep.witnesses.items()
            },
        }

    def check(self, task, out):
        rank, hom = task["rank"], task["homology"]
        if out["rank"] != rank:
            return f"rank {out['rank']} != {rank}"
        for p in FIELDS:
            key = field_key(p)
            depth = out["depth"][key]
            # the distinguished degree carries H~_j(Delta) in cohomological
            # degree rank - j - 1, which bounds the depth from above
            for j in range(-1, rank):
                if hom.reduced_rank(j, p) and depth > rank - j - 1:
                    return f"depth {depth} over {key} misses H~_{j} of the complex"
            if out["cm"][key] != (depth == rank):
                return f"cm over {key} disagrees with depth"
            if depth < rank:
                witness = out["depth_witnesses"][key].get(str(depth))
                if witness is None:
                    return f"no witness for depth {depth} over {key}"
                profile = mr.local_cohomology_at(task["model"], tuple(witness), (2, 3))
                if profile.dims(p)[depth] == 0:
                    return f"witness {witness} has no H^{depth} over {key}"
        return None

    def digest(self, task, out):
        return json.dumps(out, sort_keys=True).encode()


class Analyze(Workload):
    """In-process `analyze` on model files written during set-up."""

    name = "analyze"
    PYRAMIDS = ["pyramid-7.1", "pyramid-7.3"]
    # eight rank-4 models put the median task in the middle of their cluster
    RANKS = [3, 4, 4, 4, 4, 4, 4, 4, 4, 5]
    FACES = {3: 10, 4: 28, 5: 64}  # the commonest face counts per rank
    INVARIANT_KEYS = ["rank", "depth", "cm", "torsion_primes", "buchsbaum_excluded",
                      "f_bad_primes", "depth_bounds"]

    def __init__(self, tmpdir, invariants):
        super().__init__(tmpdir, invariants)
        self._pyramids = None

    def setup(self, rng, r):
        if self._pyramids is None:
            self._pyramids = {n: gen.describe_model(mr.builtin(n)) for n in self.PYRAMIDS}
        texts = [(n, 4, gen.transformed_model_text(rng, self._pyramids[n], n))
                 for n in self.PYRAMIDS]
        texts += [(f"random{k}", k, gen.random_model_text(rng, k, self.FACES[k]))
                  for k in self.RANKS]
        tasks = []
        for i, (label, rank, text) in enumerate(texts):
            path = self.path(r, i, "model")
            with open(path, "w") as fh:
                fh.write(text)
            tasks.append({"label": label, "rank": rank, "path": path})
        return tasks

    def run(self, task):
        return run_cli(["analyze", task["path"], "--fields", "q,2,3"])

    def reference_invariants(self):
        """The coordinate-free part of the reports on the untransformed
        pyramids; every transformed copy must reproduce it."""
        out = {}
        for name in self.PYRAMIDS:
            path = os.path.join(self.tmpdir, f"{name}.model")
            cli.write_model(mr.builtin(name), path)
            report = json.loads(run_cli(["analyze", path, "--fields", "q,2,3"])["stdout"])
            out[name] = invariant_view(report, self.INVARIANT_KEYS)
        return out

    def check(self, task, out):
        if out["code"] != 0:
            return f"exit code {out['code']}"
        report = json.loads(out["stdout"])
        err = check_report(report, task["rank"])
        if err:
            return err
        expected = self.invariants.get(task["label"])
        if expected is not None:
            got = invariant_view(report, self.INVARIANT_KEYS)
            if got != expected:
                return f"coordinate-free invariants changed: {got} != {expected}"
        return None

    def digest(self, task, out):
        text = out["stdout"].replace(task["path"], "<input>")
        return f"{out['code']}\n{text}".encode()


def invariant_view(report, keys):
    view = {k: report[k] for k in keys}
    view["normal"] = report["normal"]["verdict"]
    view["s2_lattice"] = report["s2_lattice"]["verdict"]
    view["gorenstein"] = {k: v["verdict"] for k, v in report["gorenstein"].items()}
    return view


class Monoid(Analyze):
    """In-process `analyze` on generator files: the generator-side scans."""

    name = "monoid"
    PYRAMIDS = []
    # The rank-2 costs are bimodal; with six rank-3 sets above them the
    # median task falls inside their cheaper, denser mode.
    KINDS = ["semigroup"] * 4 + ["rank2"] * 6 + ["rank3"] * 6
    # the scans run to (rank + 1) * the largest generator degree; the rare
    # random rank-3 sets with a bound over 16 cost up to three times the
    # others and made the tail task jump between runs, so they are redrawn
    MAX_SCAN_BOUND = 16

    def draw(self, rng, kind):
        if kind == "semigroup":
            return gen.numerical_semigroup(rng)
        if kind == "rank2":
            return gen.random_generators(rng, 2, 4, 3)
        while True:
            gens = gen.random_generators(rng, 3, 5, 2)
            monoid = mr.monoid_new(gens)
            if mr.monoid.default_seminormality_bound(monoid) <= self.MAX_SCAN_BOUND:
                return gens

    def setup(self, rng, r):
        tasks = []
        for i, kind in enumerate(self.KINDS):
            gens = self.draw(rng, kind)
            # the library's own constructor rejects non-positive inputs
            mr.monoid_new(gens)
            path = self.path(r, i, "monoid")
            with open(path, "w") as fh:
                fh.write(gen.monoid_text(gens))
            tasks.append({"label": kind, "rank": len(gens[0]), "gens": gens, "path": path})
        return tasks

    def check(self, task, out):
        if out["code"] != 0:
            return f"exit code {out['code']}"
        report = json.loads(out["stdout"])
        if [tuple(g) for g in report["input"]["generators"]] != task["gens"]:
            return "report lists other generators"
        return check_report(report, task["rank"])


WORKLOADS = {w.name: w for w in (Construct, Depth, Analyze, Monoid)}
