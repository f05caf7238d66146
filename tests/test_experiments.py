import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from arccover import cli, experiments
from arccover.experiments import (
    DEFAULT_BASE_SEED,
    ExperimentConfig,
    PRESETS,
    derive_seed,
    preset_config,
    run_experiment,
    scale_sample,
    vacancy_frequency,
)
from arccover.gates import vacancy_gate
from arccover.tails import parse_tail
from arccover.torus import CoverResult, pair_vacancy_exact, run_to_cover, vacancy_probability_exact

from oracles import derive_seeds


class TestDeriveSeed:
    def test_pure_function(self):
        assert derive_seed(123, 10, 5) == derive_seed(123, 10, 5)

    def test_distinct_over_grid(self):
        # memory-bounded version of the collision scan: 2048^2 pairs per base
        grid = 2048
        reps = np.arange(grid, dtype=np.uint64)
        for base in (0x9E3779B97F4A7C15, 12345, 2**63 + 11):
            seen = np.sort(np.concatenate([derive_seeds(base, n, reps) for n in range(grid)]))
            assert not np.any(seen[1:] == seen[:-1])

    def test_vectorized_matches_scalar(self):
        reps = np.arange(50, dtype=np.uint64)
        got = derive_seeds(987, 321, reps)
        want = np.array([derive_seed(987, 321, int(r)) for r in reps], dtype=np.uint64)
        assert np.array_equal(got, want)

    def test_avalanche(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            base, n, rep = (int(x) for x in rng.integers(0, 2**62, 3))
            ref = derive_seed(base, n, rep)
            bit = int(rng.integers(0, 62))
            which = int(rng.integers(0, 3))
            args = [base, n, rep]
            args[which] ^= 1 << bit
            flipped = derive_seed(*args)
            assert flipped != ref
            assert bin(flipped ^ ref).count("1") >= 10


class TestScaleSample:
    def test_bstar(self):
        res = CoverResult(n=100, tau=60, T=50.0, max_radius=5, seed=1)
        assert scale_sample("bstar", parse_tail("logpow:0"), 100, res) == 0.5

    def test_gumbel_centering(self):
        res = CoverResult(n=100, tau=500, T=100.0 * math.log(100.0), max_radius=1, seed=1)
        assert scale_sample("gumbel", parse_tail("const:1"), 100, res) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_unit(self):
        f = parse_tail("slowlog")
        res = CoverResult(n=10**4, tau=3, T=1.0 / f.value(10**4), max_radius=10**4, seed=1)
        assert scale_sample("exponential", f, 10**4, res) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_T(self):
        f = parse_tail("geom:0.5")
        lo = CoverResult(n=50, tau=5, T=10.0, max_radius=9, seed=1)
        hi = CoverResult(n=50, tau=5, T=11.0, max_radius=9, seed=1)
        for phase in ("gumbel", "compact", "bstar", "preexp", "exponential"):
            assert scale_sample(phase, f, 50, lo) < scale_sample(phase, f, 50, hi)

    def test_infinite_mean_rejected(self):
        res = CoverResult(n=100, tau=5, T=10.0, max_radius=3, seed=1)
        with pytest.raises(ValueError):
            scale_sample("gumbel", parse_tail("slowlog"), 100, res)


class TestConfigValidation:
    def test_phase_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="nope", tail="const:1", n_list=(10,))

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="gumbel", tail="const:1", n_list=(10,), replicates=0)

    def test_n_list_increasing(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="gumbel", tail="const:1", n_list=(100, 100))

    def test_alpha_nonnegative(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="shepp_pi", alpha_list=(-0.5,), n_list=(10,))

    def test_gumbel_needs_finite_mean(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="gumbel", tail="pow:-0.5", n_list=(10,))

    @pytest.mark.parametrize("phase, tail, n, message", [
        ("compact", "const:1", 100, r"f\(100\) = 0"),
        ("compact", "geom:0.5", 2000, r"f\(2000\) = 0"),
        ("exponential", "const:3", 10, r"f\(10\) = 0"),
        ("preexp", "logpow:-0.5", 1000, "pow:p"),
        ("preexp", "slowlog", 1000, "pow:p"),
        ("preexp", "const:1", 1000, "pow:p"),
    ])
    def test_phase_needs_its_tail(self, phase, tail, n, message):
        # the f(n)-scaled phases need f(n) > 0, and preexp's bounds are stated for pow:p
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(phase=phase, tail=tail, n_list=(n,))

    @pytest.mark.parametrize("phase, alphas", [
        ("shepp_pi", (0.3, 0.3)),
        ("shepp_pi", (0.3, 0.30000000001)),
        ("dimension", (0.5, 0.5)),
    ])
    def test_alpha_labels_unique(self, phase, alphas):
        # seeds do not depend on alpha, so two groups under one label would be
        # one sample counted twice in one summary group
        with pytest.raises(ValueError, match="group label"):
            ExperimentConfig(phase=phase, alpha_list=alphas, n_list=(100,))

    @pytest.mark.parametrize("kw", [dict(n_list=(100.0,)), dict(n_list=(10, 100.0)), dict(replicates=2.0)])
    def test_n_and_replicates_integral(self, kw):
        with pytest.raises(ValueError, match="integers"):
            ExperimentConfig(**{"phase": "gumbel", "tail": "const:1", "n_list": (100,), **kw})

    def test_presets_valid(self):
        for name in PRESETS:
            cfg = preset_config(name, output_path="/tmp/x")
            assert cfg.base_seed == DEFAULT_BASE_SEED


# the helpers a worker process runs are at module level, so they pickle under
# every start method

class _CountingProcess(multiprocessing.Process):
    starts: list = []

    def start(self):
        self.starts.append(self)
        super().start()


def _fail_replicate_1(args):
    # replicate 1 is worker 1's share at workers=2
    if args[3] == derive_seed(99, 64, 1):
        raise ArithmeticError("replicate 1")
    return 1, 1.0, 1.0


def _fail_at(task):
    index, bad, how = task
    if index == bad:
        if how == "raise":
            raise ValueError(f"task {index} failed")
        os._exit(7)
    return index * index


class TestRunExperiment:
    @pytest.fixture()
    def small_config(self, tmp_path):
        return ExperimentConfig(
            phase="gumbel", tail="const:1", n_list=(64, 128), replicates=25,
            base_seed=99, output_path=str(tmp_path / "run"),
        )

    def test_row_count_and_schema(self, small_config):
        paths, _ = run_experiment(small_config)
        lines = paths["csv"].read_text().splitlines()
        assert lines[0] == "phase,family,n,replicate,seed,tau,T,scaled"
        assert len(lines) == 1 + 2 * 25

    def test_rows_reproduce_run_to_cover(self, small_config):
        paths, _ = run_experiment(small_config)
        row = paths["csv"].read_text().splitlines()[1].split(",")
        n, rep, seed = int(row[2]), int(row[3]), int(row[4])
        assert seed == derive_seed(99, n, rep)
        res = run_to_cover(parse_tail("const:1"), n, seed)
        assert res.tau == int(row[5])
        assert res.T == float(row[6])

    def test_rerun_byte_identical(self, small_config):
        paths, _ = run_experiment(small_config)
        first = paths["csv"].read_bytes(), paths["summary"].read_bytes()
        paths, _ = run_experiment(small_config)
        assert (paths["csv"].read_bytes(), paths["summary"].read_bytes()) == first

    def test_worker_count_invariance(self, small_config):
        outputs = []
        for workers in (1, 2, 5):
            paths, _ = run_experiment(small_config, workers=workers)
            outputs.append((paths["csv"].read_bytes(), paths["summary"].read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_processes_sized_to_tasks(self, tmp_path, monkeypatch):
        # the caller computes one share itself, so 2 tasks start 1 process
        # and 1 task runs serially, however many workers are asked for
        starts = _CountingProcess.starts
        monkeypatch.setattr(experiments, "Process", _CountingProcess)
        for replicates, want in ((2, 1), (1, 0)):
            starts.clear()
            cfg = ExperimentConfig(phase="gumbel", tail="const:1", n_list=(64,), replicates=replicates,
                                   base_seed=99, output_path=str(tmp_path / f"r{replicates}"))
            paths, _ = run_experiment(cfg, workers=64)
            assert len(starts) == want
            assert len(paths["csv"].read_text().splitlines()) == 1 + replicates
            assert json.loads(paths["manifest"].read_text())["workers"] == replicates
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_list, replicates", [((64,), 4), ((64,), 5), ((64, 128), 3), ((64,), 7)])
    def test_uneven_shares_byte_identical(self, tmp_path, n_list, replicates):
        # 4 to 7 tasks on 3 workers: the interleaved shares differ in length
        # and cross group boundaries
        outputs = []
        for workers in (1, 3):
            cfg = ExperimentConfig(phase="gumbel", tail="const:1", n_list=n_list, replicates=replicates,
                                   base_seed=99, output_path=str(tmp_path / f"w{workers}"))
            paths, _ = run_experiment(cfg, workers=workers)
            outputs.append((paths["csv"].read_bytes(), paths["summary"].read_bytes()))
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    def test_manifest_fields(self, small_config):
        paths, _ = run_experiment(small_config)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["prng"] == "numpy.random.PCG64"
        assert manifest["config"]["base_seed"] == 99
        assert manifest["per_n_replicates"] == {"64": 25, "128": 25}
        assert manifest["wall_clock_seconds"] > 0
        assert manifest["workers"] == 1
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_shepp_pi_phase(self, tmp_path):
        cfg = ExperimentConfig(phase="shepp_pi", alpha_list=(0.3,), n_list=(50,), replicates=40,
                               base_seed=7, output_path=str(tmp_path / "pi"))
        _, summary = run_experiment(cfg)
        group = summary["groups"]["alpha=0.3|n=50"]
        assert 0.0 <= group["pi_hat"] <= 1.0
        assert group["count"] == 40

    def test_dimension_phase(self, tmp_path):
        cfg = ExperimentConfig(phase="dimension", alpha_list=(0.5,), n_list=(100,), replicates=60,
                               base_seed=7, output_path=str(tmp_path / "dim"))
        _, summary = run_experiment(cfg)
        group = summary["groups"]["alpha=0.5|n=100"]
        assert group["accepted"] <= group["count"]

    def test_calibration_phase(self, tmp_path):
        cfg = ExperimentConfig(phase="calibration", n_list=(500,), replicates=200,
                               base_seed=7, output_path=str(tmp_path / "cal"))
        _, summary = run_experiment(cfg)
        assert "ks" in summary["groups"]["coupon|n=500"]


class TestMapShares:
    """The process runner behind run_experiment at workers >= 2."""

    def test_results_in_task_order(self):
        tasks = [(i, -1, "raise") for i in range(7)]
        assert experiments._map_shares(_fail_at, tasks, 3) == [i * i for i in range(7)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [1, 2, 0])
    def test_task_exception_reraised(self, bad):
        # tasks 1 and 2 run in workers 1 and 2, task 0 in the caller while
        # the workers still run
        tasks = [(i, bad, "raise") for i in range(6)]
        with pytest.raises(ValueError, match=f"^task {bad} failed$"):
            experiments._map_shares(_fail_at, tasks, 3)
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_sending(self):
        tasks = [(i, 1, "exit") for i in range(4)]
        with pytest.raises(RuntimeError, match="exited with code 7"):
            experiments._map_shares(_fail_at, tasks, 2)
        assert multiprocessing.active_children() == []

    def test_run_experiment_reraises_worker_error(self, tmp_path, monkeypatch):
        monkeypatch.setitem(experiments._TASKS, "gumbel", _fail_replicate_1)
        cfg = ExperimentConfig(phase="gumbel", tail="const:1", n_list=(64,), replicates=2,
                               base_seed=99, output_path=str(tmp_path / "run"))
        with pytest.raises(ArithmeticError, match="^replicate 1$"):
            run_experiment(cfg, workers=2)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "run.csv").exists()


class TestVacancyFrequency:
    def test_matches_exact_formula(self):
        f = parse_tail("const:1")
        n = 100
        t = 0.5 * n * math.log(n)
        freq, joint = vacancy_frequency(f, n, t, (0, 50), replicates=2000, base_seed=5)
        exact = vacancy_probability_exact(f, n, t), pair_vacancy_exact(f, n, t, 50)
        gate = vacancy_gate((freq[0], joint), exact, 2000)
        assert gate.ok, gate.detail


class TestCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "arccover", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_cover_small(self, tmp_path):
        out = tmp_path / "g"
        res = self.run_cli("cover", "--phase", "gumbel", "--tail", "const:1",
                           "--n", "64", "--replicates", "20", "--seed", "5", "--out", str(out))
        assert res.returncode == 0
        assert out.with_suffix(".csv").exists()

    def test_bad_tail_exits_2(self):
        res = self.run_cli("cover", "--phase", "gumbel", "--tail", "bogus:1", "--n", "64",
                           "--replicates", "5")
        assert res.returncode == 2

    def test_assert_gate_failure_exits_3(self, tmp_path):
        # 12 replicates cannot reach KS <= 0.05 against the Gumbel reference
        res = self.run_cli("cover", "--phase", "gumbel", "--tail", "const:1", "--n", "64",
                           "--replicates", "12", "--seed", "5", "--out", str(tmp_path / "g"),
                           "--assert")
        assert res.returncode == 3

    @pytest.mark.parametrize("phase, tail", [("bstar", "logpow:0"), ("compact", "logpow:1"), ("shepp_pi", None)])
    def test_assert_without_gate_exits_2(self, tmp_path, phase, tail):
        # a phase with no gate must not report "gates passed"; it is refused before any replicate runs
        out = tmp_path / phase
        run = ("--preset", phase) if tail is None else ("--phase", phase, "--tail", tail)
        res = self.run_cli("cover", *run, "--n", "200", "--replicates", "5", "--out", str(out), "--assert")
        assert res.returncode == 2
        assert phase in res.stderr and "gates passed" not in res.stdout
        assert not out.with_suffix(".csv").exists()

    def test_shepp_series_expect(self):
        res = self.run_cli("shepp-series", "--sequence", "zero", "--N", "10000",
                           "--expect", "converging")
        assert res.returncode == 0
        res = self.run_cli("shepp-series", "--sequence", "zero", "--N", "10000",
                           "--expect", "diverging")
        assert res.returncode == 3

    def test_karamata(self):
        res = self.run_cli("karamata", "--tail", "pow:-0.5", "--x", "10000")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["karamata_ratio"] == pytest.approx(0.5, abs=0.02)

    def test_snapshot(self, tmp_path):
        res = self.run_cli("snapshot", "--tail", "const:1", "--n", "100", "--alpha", "0.5",
                           "--replicates", "300", "--seed", "3", "--out", str(tmp_path / "s.json"),
                           "--assert")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny smoke run\n"
            "phase = gumbel\n"
            "tail = const:1\n"
            "n = 32, 64\n"
            "replicates = 10\n"
            "seed = 11\n"
            f"out = {tmp_path / 'from_file'}\n"
        )
        res = self.run_cli("cover", "--config", str(cfg))
        assert res.returncode == 0
        lines = (tmp_path / "from_file.csv").read_text().splitlines()
        assert len(lines) == 1 + 20

    def write_config(self, tmp_path, **extra):
        cfg = tmp_path / "run.cfg"
        lines = ["phase = gumbel", "tail = const:1", "n = 32", "replicates = 4", "seed = 999",
                 f"out = {tmp_path / 'from_file'}"]
        cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in extra.items()]) + "\n")
        return cfg

    def test_config_file_seed_reaches_manifest(self, tmp_path):
        res = self.run_cli("cover", "--config", str(self.write_config(tmp_path)))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "from_file.manifest.json").read_text())
        assert manifest["config"]["base_seed"] == 999

    def test_seed_flag_overrides_config_file(self, tmp_path):
        res = self.run_cli("cover", "--config", str(self.write_config(tmp_path)), "--seed", "5")
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "from_file.manifest.json").read_text())
        assert manifest["config"]["base_seed"] == 5

    def test_unknown_config_key_exits_2(self, tmp_path):
        res = self.run_cli("cover", "--config", str(self.write_config(tmp_path, workers=4)))
        assert res.returncode == 2
        assert "workers" in res.stderr

    def test_pi_rejects_phase(self, tmp_path):
        res = self.run_cli("pi", "--phase", "gumbel", "--tail", "const:1", "--alpha", "0.5", "--n", "50",
                           "--replicates", "4", "--out", str(tmp_path / "pi"))
        assert res.returncode == 2
        res = self.run_cli("pi", "--config", str(self.write_config(tmp_path)), "--alpha", "0.5")
        assert res.returncode == 2
        assert "shepp_pi" in res.stderr

    def test_config_rejected_where_unread(self, tmp_path):
        cfg = str(self.write_config(tmp_path))
        res = self.run_cli("snapshot", "--config", cfg, "--tail", "const:1", "--n", "100", "--alpha", "0.5")
        assert res.returncode == 2
        res = self.run_cli("dimension", "--config", cfg, "--n", "500")
        assert res.returncode == 2

    def test_preset_takes_flags(self, tmp_path):
        out = tmp_path / "cal"
        res = self.run_cli("cover", "--preset", "calibration", "--replicates", "3", "--n", "500", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["500"] * 3

    @pytest.mark.parametrize("args", [
        ("dimension", "--n", "200", "--n", "300"),
        ("dimension", "--n", "200", "--alpha", "0.3", "--alpha", "0.5"),
        ("snapshot", "--tail", "const:1", "--n", "100", "--n", "200", "--alpha", "0.5"),
        ("snapshot", "--tail", "const:1", "--n", "100", "--alpha", "0.5", "--alpha", "1"),
        ("dimension", "--n", "0"),
        ("pi", "--n", "0", "--alpha", "0.5"),
        ("snapshot", "--tail", "const:1", "--n", "100", "--alpha", "0.5", "--replicates", "0"),
        ("pi", "--n", "50", "--alpha", "0.5", "--replicates", "4", "--workers", "0"),
        ("cover", "--phase", "compact", "--tail", "const:1", "--n", "100"),
        ("cover", "--phase", "compact", "--tail", "geom:0.5", "--n", "2000"),
        ("cover", "--phase", "preexp", "--tail", "logpow:-0.5", "--n", "1000"),
        ("cover", "--phase", "preexp", "--tail", "slowlog", "--n", "1000"),
        ("karamata", "--tail", "const:1"),
        ("karamata", "--tail", "geom:0.5", "--x", "2000"),
        ("cover", "--phase", "bstar", "--tail", "logpow:nan", "--n", "100", "--replicates", "3"),
        ("cover", "--phase", "bstar", "--tail", "logpow:inf", "--n", "100", "--replicates", "3"),
        ("snapshot", "--tail", "const:1", "--n", "100", "--time", "nan", "--replicates", "3"),
        ("dimension", "--alpha", "0.5", "--n", "1"),
        ("cover", "--preset", "dimension", "--n", "1"),
        ("snapshot", "--tail", "const:1", "--n", "1", "--alpha", "0.5", "--replicates", "3"),
        ("pi", "--alpha", "0.3", "--alpha", "0.3", "--n", "100", "--replicates", "50"),
    ])
    def test_bad_input_exits_2(self, args):
        res = self.run_cli(*args)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("phase, tail, n", [("compact", "const:1", "100"), ("preexp", "logpow:-0.5", "1000")])
    def test_phase_tail_mismatch_runs_nothing(self, tmp_path, monkeypatch, phase, tail, n):
        # refused before any replicate runs: no cover time is drawn and no file is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("arccover.experiments.run_to_cover", None)
        argv = ["cover", "--phase", phase, "--tail", tail, "--n", n, "--replicates", "3", "--out", "run/x"]
        assert cli.main(argv) == 2
        assert not any(tmp_path.iterdir())

    def test_dimension_command(self, tmp_path):
        res = self.run_cli("dimension", "--alpha", "0.5", "--n", "500", "--replicates", "150",
                           "--seed", "9", "--out", str(tmp_path / "d.json"))
        assert res.returncode == 0
        payload = json.loads((tmp_path / "d.json").read_text())
        assert payload["accepted"] >= 30

    def test_dimension_gate_same_in_cover(self, tmp_path):
        # 40 replicates at alpha = 0.95 leave fewer than 30 non-covered configurations
        args = ("--n", "1000", "--alpha", "0.95", "--replicates", "40", "--out", str(tmp_path / "d"), "--assert")
        assert self.run_cli("dimension", *args).returncode == 2
        res = self.run_cli("cover", "--preset", "dimension", *args)
        assert res.returncode == 3, res.stdout + res.stderr

    def test_calibrate(self, tmp_path):
        res = self.run_cli("calibrate", "--K", "2000", "--replicates", "400", "--seed", "2",
                           "--out", str(tmp_path / "cal"), "--assert")
        assert res.returncode == 0, res.stdout + res.stderr
