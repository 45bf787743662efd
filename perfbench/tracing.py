"""Per-layer tracing from outside the program.

`Tracer.install()` replaces names that one pathalg module takes from another
(for example `pathalg.cli.build_model`) with wrappers.  A span wrapper
records name, start, end, parent span and job; a counter wrapper, used on
hot methods, only counts calls.  Spans stay in memory until the run ends.
`Tracer.restore()` puts every original back.  No pathalg source changes.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  A span name may have several call sites.
SPANS = [
    ("pathalg.cli", "run", "cli.run"),
    ("pathalg.cli", "parse", "problem.parse"),
    ("pathalg.cli", "groebner_basis", "algebra.groebner_basis"),
    ("pathalg.algebra", "groebner_basis", "algebra.groebner_basis"),
    ("pathalg.cli", "build_model", "oracle.build_model"),
    ("pathalg.cli", "minimal_resolution", "oracle.minimal_resolution"),
    ("pathalg.oracle", "span_from_seeds", "oracle.span_from_seeds"),
    ("pathalg.syzygy", "span_from_seeds", "oracle.span_from_seeds"),
    ("pathalg.oracle", "kernel_pieces", "oracle.kernel_pieces"),
    ("pathalg.oracle", "minimal_generators_of_pieces", "oracle.minimal_generators"),
    ("pathalg.oracle", "left_nullspace", "linalg.left_nullspace"),
    ("pathalg.cli", "enumerate_overlaps", "overlaps.enumerate"),
    ("pathalg.cli", "first_syzygy", "syzygy.first_syzygy"),
]

# (module, attribute, counter name).  Dotted attributes are methods.
COUNTERS = [
    ("pathalg.order", "OrderSpec.path_key", "order.path_key"),
    ("pathalg.linalg", "Subspace.add", "linalg.subspace_add"),
    ("pathalg.oracle", "GradedAlgebraModel.act", "oracle.act"),
    ("pathalg.oracle", "normal_form", "oracle.normal_form"),
    ("pathalg.algebra", "normal_form", "algebra.normal_form"),
    ("pathalg.overlaps", "divides", "quiver.divides"),
    ("pathalg.syzygy", "divides", "quiver.divides"),
]

# algebra.normal_form counts only reductions made inside completion.
COUNT_ONLY_INSIDE = {"algebra.normal_form": "algebra.groebner_basis"}
# Counters that also count truthy results (an enlarged space, a nonzero remainder).
COUNT_TRUTHY = {"linalg.subspace_add", "algebra.normal_form"}


def _max_block_dim(model) -> int:
    """Largest (degree, target vertex) block of the model's normal-word basis."""
    return max((max(Counter(w.target for w in level).values(), default=0) for level in model.basis), default=0)


# What a span's result adds to the counters.
OBSERVE = {
    "algebra.groebner_basis": lambda gb: {"algebra.basis_elements": len(gb.elements)},
    "oracle.build_model": lambda model: {"oracle.max_block_dim": _max_block_dim(model)},
    "overlaps.enumerate": lambda table: {
        "overlaps.chain_words": sum(len(level) for level in table.levels),
        "overlaps.quasi_words": sum(len(level) for level in table.quasi_levels),
    },
    "syzygy.first_syzygy": lambda syz: {"syzygy.survivors": len(syz.survivors), "syzygy.absorbed": len(syz.absorbed)},
}
MAXIMA = {"oracle.max_block_dim"}


def _resolve(module: str, attr: str):
    """(owner, name) for a module attribute or a dotted Class.method."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def targets():
    """(owner, attribute) for every name the tracer replaces."""
    return [_resolve(module, attr) for module, attr, _name in SPANS + COUNTERS]


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or None, job index].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.jobs: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- jobs

    def begin_job(self, name: str) -> None:
        self.jobs.append(name)
        self.active = True

    def end_job(self) -> None:
        self.active = False

    # -- wrapping

    def install(self) -> None:
        for make, table in ((self._span_wrapper, SPANS), (self._count_wrapper, COUNTERS)):
            for module, attr, name in table:
                owner, leaf = _resolve(module, attr)
                original = owner.__dict__[leaf]
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, make(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, fn, name):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent, len(self.jobs) - 1]
            self.spans.append(span)
            self._stack.append(index)
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if observe is not None:
                for key, value in observe(result).items():
                    self.counts[key] = max(self.counts[key], value) if key in MAXIMA else self.counts[key] + value
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        inside = COUNT_ONLY_INSIDE.get(name)
        truthy = name + ".truthy" if name in COUNT_TRUTHY else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active and (inside is None or self._open[inside]):
                self.counts[name] += 1
                if truthy and result:
                    self.counts[truthy] += 1
            return result

        return wrapper

    # -- reading

    def self_times(self, scale: list[float]) -> tuple[Counter, list[Counter]]:
        """Self time per span name, in total and per job, each job's times times scale[job].

        A span's self time is its duration minus the durations of its direct
        children; one thread means children nest inside their parent.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: Counter = Counter()
        per_job = [Counter() for _ in self.jobs]
        for i, (name, start, end, _parent, job) in enumerate(self.spans):
            own = (end - start - child[i]) * scale[job]
            total[name] += own
            per_job[job][name] += own
        return total, per_job

    def span_records(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "job": job}
            for name, start, end, parent, job in self.spans
        ]


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Per-layer metric name -> unit, in the order they are printed.
LAYER_UNITS = {
    "problem.parse_s": "s",
    "cli.self_s": "s",
    "algebra.groebner_basis_s": "s",
    "algebra.normal_form_calls": "count",
    "algebra.normal_form_zero_frac": "ratio",
    "algebra.basis_elements": "count",
    "order.path_key_calls": "count",
    "oracle.build_model_s": "s",
    "oracle.build_model_calls": "count",
    "oracle.minimal_resolution_s": "s",
    "oracle.span_from_seeds_s": "s",
    "oracle.kernel_pieces_s": "s",
    "oracle.minimal_generators_s": "s",
    "oracle.act_calls": "count",
    "oracle.act_miss_frac": "ratio",
    "oracle.max_block_dim": "count",
    "linalg.subspace_add_calls": "count",
    "linalg.subspace_add_useful_frac": "ratio",
    "linalg.left_nullspace_calls": "count",
    "linalg.left_nullspace_s": "s",
    "overlaps.enumerate_s": "s",
    "overlaps.chain_words": "count",
    "overlaps.quasi_words": "count",
    "syzygy.first_syzygy_s": "s",
    "syzygy.survivors": "count",
    "syzygy.absorbed": "count",
    "quiver.divides_calls": "count",
    "corpus.instances_s": "s",
    "trace.untraced_ok_jobs_per_s": "1/s",
    "trace.traced_ok_jobs_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, own: Counter, instances_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, given its self times per span name."""
    calls = Counter(span[0] for span in tracer.spans)
    c = tracer.counts
    return {
        "problem.parse_s": own["problem.parse"],
        "cli.self_s": own["cli.run"],
        "algebra.groebner_basis_s": own["algebra.groebner_basis"],
        "algebra.normal_form_calls": c["algebra.normal_form"],
        "algebra.normal_form_zero_frac": _frac(c["algebra.normal_form"] - c["algebra.normal_form.truthy"],
                                               c["algebra.normal_form"]),
        "algebra.basis_elements": _frac(c["algebra.basis_elements"], calls["algebra.groebner_basis"]),
        "order.path_key_calls": c["order.path_key"],
        "oracle.build_model_s": own["oracle.build_model"],
        "oracle.build_model_calls": calls["oracle.build_model"],
        "oracle.minimal_resolution_s": own["oracle.minimal_resolution"],
        "oracle.span_from_seeds_s": own["oracle.span_from_seeds"],
        "oracle.kernel_pieces_s": own["oracle.kernel_pieces"],
        "oracle.minimal_generators_s": own["oracle.minimal_generators"],
        "oracle.act_calls": c["oracle.act"],
        "oracle.act_miss_frac": _frac(c["oracle.normal_form"], c["oracle.act"]),
        "oracle.max_block_dim": c["oracle.max_block_dim"],
        "linalg.subspace_add_calls": c["linalg.subspace_add"],
        "linalg.subspace_add_useful_frac": _frac(c["linalg.subspace_add.truthy"], c["linalg.subspace_add"]),
        "linalg.left_nullspace_calls": calls["linalg.left_nullspace"],
        "linalg.left_nullspace_s": own["linalg.left_nullspace"],
        "overlaps.enumerate_s": own["overlaps.enumerate"],
        "overlaps.chain_words": c["overlaps.chain_words"],
        "overlaps.quasi_words": c["overlaps.quasi_words"],
        "syzygy.first_syzygy_s": own["syzygy.first_syzygy"],
        "syzygy.survivors": c["syzygy.survivors"],
        "syzygy.absorbed": c["syzygy.absorbed"],
        "quiver.divides_calls": c["quiver.divides"],
        "corpus.instances_s": instances_s,
    }
