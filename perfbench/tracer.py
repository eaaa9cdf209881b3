"""Out-of-program tracer: wraps library functions from outside the package.

The tracer never edits the package's source.  ``install`` replaces each
listed function by a timing wrapper in every namespace that binds it: the
defining module, every package module that imported it by name (under any
alias) and the package's re-exports.  Imports made inside function bodies
resolve through the defining module, so they are covered as well.

Spans (function, start, end, parent span, task) are kept in flat arrays in
memory and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its child spans; calls are strictly
nested because the benchmark is single-threaded.
"""

import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs the traced run wraps, grouped by layer.
TARGETS = {
    "exactlin": [
        "hnf", "snf", "rank", "rank_mod", "lattice_intersect",
        "quotient_decomposition", "solve_rational", "sign_det_fractions", "mat_mul",
    ],
    "polyhedral": ["dual_description", "face_lattice", "minimal_face"],
    "monoid": [
        "decorated_cone", "restrict_model", "hilbert_basis", "member",
        "face_group", "is_seminormal_up_to",
    ],
    "cohomology": ["cochain_complex", "profile_of_complex", "torsion_primes", "cohomology_dims"],
    "typology": ["fiber_types", "depth_report"],
    "criteria": [
        "depth_bounds_multi", "n_value", "s2_lattice_test", "f_bad_primes",
        "gorenstein_check", "s2_up_to", "m_prime_member",
    ],
    "constructions": ["delta_construct", "simplicial_homology", "verify_eq_homology"],
    # cli.main is the report glue around the other calls of an analyze task.
    "cli": ["parse_input", "write_model", "main"],
}

PACKAGE = "monoidring"


def span_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _count_faces(counts, fl):
    counts["polyhedral.faces"] += len(fl.faces)


def _count_fibers(counts, fibers):
    counts["typology.fibers"] += len(fibers)
    counts["typology.distinct_filters"] += len({t.filter_ids for t in fibers})


def _count_attempts(counts, result):
    counts["constructions.attempts"] += sum(
        1 for line in result.provenance if line.startswith("attempt ")
    )


# Counts taken from return values at the span boundaries.
COUNTERS = {
    "polyhedral.face_lattice": _count_faces,
    "typology.fiber_types": _count_fibers,
    "constructions.delta_construct": _count_attempts,
}
COUNT_NAMES = ["polyhedral.faces", "typology.fibers", "typology.distinct_filters",
               "constructions.attempts"]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.active = False
        self.current_task = -1
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for ident, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(ident, original, COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, ident, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.start)
            tracer.name_id.append(ident)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.task.append(tracer.current_task)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per function: calls, self seconds and inclusive seconds (spans
        nested in a span of the same function are not counted twice); plus
        the time covered by top-level spans (those with no traced parent)."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        inclusive_s = [0.0] * n_names
        child = [0.0] * len(self.start)
        top = 0.0
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        # a child is recorded after its parent, so a reverse pass sees every
        # child's duration before it reaches the parent
        for i in range(len(start) - 1, -1, -1):
            dur = end[i] - start[i]
            ident = name_id[i]
            calls[ident] += 1
            self_s[ident] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
            while p >= 0 and name_id[p] != ident:
                p = parent[p]
            if p < 0:
                inclusive_s[ident] += dur
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "inclusive_s": dict(zip(self.names, inclusive_s)),
            "top_level_s": top,
            "spans": len(start),
        }

    def write(self, path):
        """All spans, as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "i"], ["parent", "i"], ["task", "i"],
                       ["start", "d"], ["end", "d"]],
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.task, self.start, self.end):
                arr.tofile(fh)
