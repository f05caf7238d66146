"""Span tracing of arccover's public functions, installed from the benchmark's files only.

The arccover modules import each other's functions by name, so a function is
wrapped under every name a calling module looks it up by (for example both
``arccover.torus.tail_prefix_total`` and ``arccover.experiments.tail_prefix_total``).
``seeding.generator`` is wrapped to return a proxy whose draw methods record
spans. Spans are kept in memory as [name, start, end, parent, note] and the
per-layer metrics are computed from them after the traced pass.
"""
from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from arccover import circle, experiments, seeding, stats, tails, torus

LAYERS = ("seeding", "tails", "torus", "circle", "stats", "experiments")
DRAW_METHODS = ("integers", "random", "standard_exponential", "poisson")
UNION_SPANS = ("circle.vacant_set", "circle.is_covered", "circle.count_missing_lattice")


def _size(args, out):
    return int(np.size(out))


def _tau(args, out):
    return out.tau


def _arcs(args, out):
    return out.count


def _radii(args, out):
    return int(np.size(args[1]))


# (span name, note, [(namespace, attribute), ...]); a namespace is a module or a class
TARGETS = (
    ("experiments.run_experiment", None, [(experiments, "run_experiment")]),
    ("experiments.vacancy_frequency", None, [(experiments, "vacancy_frequency")]),
    ("seeding.derive_seed", None, [(experiments, "derive_seed"), (seeding, "derive_seed")]),
    ("tails.parse_tail", None, [(experiments, "parse_tail"), (tails, "parse_tail")]),
    ("tails.prefix_total", None, [(torus, "tail_prefix_total"), (experiments, "tail_prefix_total")]),
    ("tails.sample_radii", _radii, [(tails.TailFunction, "sample_radii")]),
    ("tails.value", None, [(tails.TailFunction, "value")]),
    ("tails.star_probe", None, [(experiments, "star_probe")]),
    ("tails.triangle_probe", None, [(experiments, "triangle_probe")]),
    ("torus.run_to_cover", _tau, [(experiments, "run_to_cover"), (torus, "run_to_cover")]),
    ("torus.snapshot_vacant", None, [(torus, "snapshot_vacant")]),
    ("torus.site_vacancy", None, [(experiments, "site_vacancy"), (torus, "site_vacancy")]),
    ("torus.covered_mask", None, [(circle, "covered_mask"), (torus, "covered_mask")]),
    ("torus.vacancy_probability_exact", None, [(torus, "vacancy_probability_exact")]),
    ("torus.pair_vacancy_exact", None, [(torus, "pair_vacancy_exact")]),
    ("circle.sample_truncated", _arcs, [(experiments, "sample_truncated"), (circle, "sample_truncated")]),
    ("circle.vacant_set", None, [(experiments, "vacant_set"), (circle, "vacant_set")]),
    ("circle.is_covered", None, [(circle, "is_covered")]),
    ("circle.count_missing_lattice", None, [(experiments, "count_missing_lattice"), (circle, "count_missing_lattice")]),
    ("circle.project_W", None, [(circle, "project_W")]),
    ("circle.project_X", None, [(circle, "project_X")]),
    ("stats.from_samples", None, [(stats.EmpiricalDistribution, "from_samples")]),
    ("stats.ecdf", None, [(stats.EmpiricalDistribution, "ecdf")]),
    ("stats.ks_distance", None, [(experiments, "ks_distance"), (stats, "ks_distance")]),
    ("stats.preexp_bounds", None, [(experiments, "preexp_bounds")]),
)
GENERATOR_USERS = (torus, circle, stats)

# Every per-layer metric of a traced run, in report order. A metric of a
# function the workload never calls reads 0.
PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "seeding.self_s": "s",
    "tails.self_s": "s",
    "torus.self_s": "s",
    "circle.self_s": "s",
    "stats.summary_s": "s",
    "experiments.self_s": "s",
    "torus.run_to_cover_self_s": "s",
    "torus.run_to_cover_p50_ms": "ms",
    "torus.run_to_cover_tail_ms": "ms",
    "torus.run_to_cover_latency_samples": "count",
    "torus.overdraw_ratio": "ratio",
    "torus.batches_per_replicate": "count",
    "tails.sample_radii_s": "s",
    "tails.sample_radii_calls": "count",
    "tails.radii_drawn": "count",
    "tails.prefix_total_s": "s",
    "tails.prefix_total_misses": "count",
    "seeding.draw_s": "s",
    "seeding.variates": "count",
    "torus.snapshot_vacant_self_s": "s",
    "torus.site_vacancy_self_s": "s",
    "torus.covered_mask_s": "s",
    "circle.sample_truncated_s": "s",
    "circle.union_s": "s",
    "circle.project_self_s": "s",
    "circle.arcs_per_config": "count",
    "experiments.bytes_written": "bytes",
    "experiments.parallel_eff": "ratio",
}


class Tracer:
    """Records spans while installed; ``with Tracer() as tr:`` patches and restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _traced_generator(self):
        make = self.wrap("seeding.generator", seeding.generator)

        def generator(seed):
            return _GeneratorProxy(make(seed), self)

        return generator

    def _patch(self, namespace, attr, value):
        self._saved.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, value)

    def __enter__(self):
        for name, note, sites in TARGETS:
            for namespace, attr in sites:
                original = namespace.__dict__[attr]
                if isinstance(original, classmethod):
                    self._patch(namespace, attr, classmethod(self.wrap(name, original.__func__, note)))
                else:
                    self._patch(namespace, attr, self.wrap(name, original, note))
        traced_generator = self._traced_generator()
        for module in GENERATOR_USERS:
            self._patch(module, "generator", traced_generator)
        return self

    def __exit__(self, *exc):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)
        return False


class _GeneratorProxy:
    """A numpy Generator whose draw methods record ``seeding.draw`` spans."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        for method in DRAW_METHODS:
            setattr(self, method, tracer.wrap("seeding.draw", getattr(rng, method), _size))

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def tail_latency(samples_ms: list[float]) -> float:
    """The highest percentile with at least ten samples above it: the 11th largest
    sample, the 100*(1 - 10/N)th percentile of N. The largest when N <= 10."""
    ordered = sorted(samples_ms)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(spans: list[list], wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose calls took ``wall_s`` in total."""
    dur = [end - start for _name, start, end, _parent, _note in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    self_time, total, calls, notes = Counter(), Counter(), Counter(), Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    for i, (name, _start, _end, parent, note) in enumerate(spans):
        self_time[name] += dur[i] - child[i]
        total[name] += dur[i]
        calls[name] += 1
        notes[name] += note or 0
        layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
        if parent < 0:
            roots += dur[i]
    cover = {i for i, span in enumerate(spans) if span[0] == "torus.run_to_cover"}
    cover_batches = [span[4] for span in spans if span[0] == "tails.sample_radii" and span[3] in cover]
    tau = notes["torus.run_to_cover"]
    configs = calls["circle.sample_truncated"]
    return {
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - roots,
        "seeding.self_s": layer_self["seeding"],
        "tails.self_s": layer_self["tails"],
        "torus.self_s": layer_self["torus"],
        "circle.self_s": layer_self["circle"],
        "stats.summary_s": layer_self["stats"],
        "experiments.self_s": layer_self["experiments"],
        "torus.run_to_cover_self_s": self_time["torus.run_to_cover"],
        "torus.overdraw_ratio": sum(cover_batches) / tau if tau else 0.0,
        "torus.batches_per_replicate": len(cover_batches) / len(cover) if cover else 0.0,
        "tails.sample_radii_s": total["tails.sample_radii"],
        "tails.sample_radii_calls": calls["tails.sample_radii"],
        "tails.radii_drawn": notes["tails.sample_radii"],
        "tails.prefix_total_s": total["tails.prefix_total"],
        "seeding.draw_s": total["seeding.draw"],
        "seeding.variates": notes["seeding.draw"],
        "torus.snapshot_vacant_self_s": self_time["torus.snapshot_vacant"],
        "torus.site_vacancy_self_s": self_time["torus.site_vacancy"],
        "torus.covered_mask_s": total["torus.covered_mask"],
        "circle.sample_truncated_s": self_time["circle.sample_truncated"],
        "circle.union_s": sum(total[name] for name in UNION_SPANS),
        "circle.project_self_s": self_time["circle.project_W"] + self_time["circle.project_X"],
        "circle.arcs_per_config": notes["circle.sample_truncated"] / configs if configs else 0.0,
    }


def cover_latencies_ms(spans: list[list]) -> list[float]:
    return [1e3 * (s[2] - s[1]) for s in spans if s[0] == "torus.run_to_cover"]


def median_metrics(passes: list[dict]) -> dict:
    """Key-wise median over traced passes; counts are equal in every pass."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
