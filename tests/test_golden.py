"""Golden hashes of every preset at two replicates per n.

The digest is the sha256 of a preset's CSV bytes, a NUL byte, and its summary
bytes, at the default base seed; it must hold at one worker and at two. A
refactor of the arc stream, the replicate tasks or the summaries must leave
every digest unchanged; a digest changes only with a deliberate change of
output, and then this table is updated with it.
The ``preexp`` digest changes when ``stats.preexp_bounds`` is mended (ROADMAP
item 4(d)), because its lower bounds are written into the summary.

The fixed-time torus outputs are pinned the same way: ``snapshot_vacant``
(vacant count and indices) and ``site_vacancy`` (at sites spread over
[-n, 2n), so the mod-n reduction is pinned too) at three seeds per shape.

``run_to_cover`` is pinned over (tail, n, seed, batch size) with batch sizes 1
and 64 next to the default, so the multi-batch path and the search of the
covering batch are pinned at batch boundaries the preset digests never reach.
That search runs on Z/nZ in the first batch until a probe leaves sites
vacant, and on the torus of the still-vacant sites after such a probe or
after earlier batches; the merge folds each such probe into its pieces. The small batches come from a patched
``torus._default_batch`` (``oracles.batches_of``); each line hashed still
names the batch size, None for the default.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from arccover.experiments import PRESETS, preset_config, run_experiment
from arccover.tails import parse_tail
from arccover.torus import run_to_cover, site_vacancy, snapshot_vacant

from oracles import batches_of

REPLICATES = 2

GOLDEN = {
    "bstar": "347916dddd6a0b5588c0bb6f82ffcb286c9fecb853fa7e18c23a1c8fa6e26311",
    "calibration": "acdedebbe0bdd1ffd9c340ff9c551b0aaa2e1f204032ce1d099f638fb3368a52",
    "compact": "462a035fcb897bd347f3b1dfc7e7064db758e7aea8b1e70e2291860ee3d4916d",
    "dimension": "eb122724aa38945731dbfcd050ff04d8283670089c5ab8208860783a308e8235",
    "exponential": "9bc8304d6fbafc7e0acee3876a1c3f80818a23b57af2bc36f85c91e03ba3b469",
    "gumbel_const": "f66803e2eddc98b39e0ec624207163c00a73ee7ee7196eb7aa394ebe8a2c0bd8",
    "gumbel_geom": "f6706731ab4791793e1e9285b59ae9f58c66cdf52f951373fd62edca06f08243",
    "preexp": "f9ff34e66ee4114d751a1ac66fdee00b63ae2b07e4ac29674982f7c2307e6748",
    "shepp_pi": "65d4c7e18cccb428d3279287474e66f4f69eedfe2bf24405a3d59501a0476363",
}


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(PRESETS)


# a serial case keeps the preset's name as its id
@pytest.mark.parametrize("name, workers", [pytest.param(name, 1, id=name) for name in sorted(GOLDEN)]
                         + [pytest.param(name, 2, id=f"{name}-workers2") for name in sorted(GOLDEN)])
def test_preset_digest(name, workers, tmp_path):
    config = preset_config(name, output_path=str(tmp_path / name))
    paths, _ = run_experiment(dataclasses.replace(config, replicates=REPLICATES), workers=workers)
    digest = hashlib.sha256(paths["csv"].read_bytes() + b"\0" + paths["summary"].read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


# (tail, n, t) -> (snapshot_vacant digest, site_vacancy digest)
FIXED_TIME_GOLDEN = {
    ("const:1", 10_000, 46_000.0): ("06875e1873fc99d37077c62b37231dabb1978d1d0278964cb02a05afd1bed1a5",
                                    "698bb673253f10d8cbde0552cf62ec677cddd97ebeb87cddf1995ad3e41d5427"),
    ("geom:0.5", 10_000, 23_000.0): ("1ce5d9018e321b620815606f58920f7c9cc0685a08e36b5dad8fdc8a5ee9dc98",
                                     "de3b8f918f05e20b3d20572c10e6a80bd04d8ef14e540d3e0906f12c145a102d"),
    ("slowlog", 100_000, 10.0): ("8dd3460046f698b6f2f92eccc675fe15eef339290803761e8a4505c690bbe67f",
                                 "2653911481f4051d0736d0639d43e82442f7218c1a6414c80b22b98f6a8c2151"),
}


@pytest.mark.parametrize("shape", sorted(FIXED_TIME_GOLDEN))
def test_fixed_time_digest(shape):
    spec, n, t = shape
    tail = parse_tail(spec)
    sites = np.arange(-n, 2 * n, 7)
    snap, site = hashlib.sha256(), hashlib.sha256()
    for seed in range(3):
        count, idx = snapshot_vacant(tail, n, t, seed)
        snap.update(count.to_bytes(8, "little") + idx.astype(np.int64).tobytes())
        site.update(site_vacancy(tail, n, t, seed, sites).tobytes())
    assert (snap.hexdigest(), site.hexdigest()) == FIXED_TIME_GOLDEN[shape]


RUN_TO_COVER_TAILS = ("const:1", "const:3", "geom:0.5", "logpow:0", "logpow:1", "pow:-0.5", "slowlog")
RUN_TO_COVER_GOLDEN = "1943e4f3c43e604ec9949a96f25fd67f35fbed8ad4568787597226a668df3417"


def test_run_to_cover_digest():
    h = hashlib.sha256()
    for spec in RUN_TO_COVER_TAILS:
        tail = parse_tail(spec)
        for n in (1, 7, 100, 1000):
            for seed in range(6):
                for batch_size in (None, 1, 64):
                    with batches_of(batch_size):
                        r = run_to_cover(tail, n, seed)
                    h.update(f"{spec} {n} {seed} {batch_size} {r.tau} {r.T!r} {r.max_radius}\n".encode())
    assert h.hexdigest() == RUN_TO_COVER_GOLDEN
