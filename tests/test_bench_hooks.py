"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` patches arccover functions by module attribute, and
``Tracer.__enter__`` raises KeyError when one of them is renamed or removed.
``perfbench/run.py`` clears ``tails.tail_prefix_total``'s cache before every
pass and reads its miss count. The module is loaded from its file, unchanged.
"""
import importlib.util
from pathlib import Path

from arccover import tails, torus
from arccover.experiments import ExperimentConfig, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_run_to_cover(tmp_path):
    tracing = _load_tracing()
    config = ExperimentConfig(phase="gumbel", tail="const:1", n_list=(64,), replicates=2,
                              output_path=str(tmp_path / "traced"))
    original = torus.run_to_cover
    with tracing.Tracer() as tracer:
        run_experiment(config)
    assert "torus.run_to_cover" in {span[0] for span in tracer.spans}
    assert torus.run_to_cover is original


def test_prefix_total_cache_hooks():
    assert callable(tails.tail_prefix_total.cache_clear)
    assert callable(tails.tail_prefix_total.cache_info)


def test_tracer_records_prefix_total(tmp_path):
    tracing = _load_tracing()
    config = ExperimentConfig(phase="compact", tail="logpow:1", n_list=(64,), replicates=2,
                              output_path=str(tmp_path / "traced"))
    with tracing.Tracer() as tracer:
        run_experiment(config)
    assert "tails.prefix_total" in {span[0] for span in tracer.spans}
