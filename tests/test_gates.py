"""Each gate of ``arccover.gates`` at the edges of its thresholds, on hand-built summaries."""
import pytest

from arccover.experiments import PHASES
from arccover.gates import MIN_ACCEPTED, PHASE_GATES, dimension_gate, ks_gate, sandwich_gate, vacancy_gate


def ks_summary(phase, *d_by_n):
    return {"phase": phase, "groups": {f"f|n={n}": {"ks": {"D": d}} for n, d in d_by_n}}


def test_phase_gates_and_ungated_phases_partition_phases():
    # a new phase must be placed on one side: given a gate, or refused by cover --assert
    ungated = {"compact", "bstar", "shepp_pi"}
    assert not ungated & set(PHASE_GATES)
    assert ungated | set(PHASE_GATES) == set(PHASES)


class TestKSGate:
    @pytest.mark.parametrize("phase, level", [("gumbel", 0.05), ("calibration", 0.05), ("exponential", 0.15)])
    def test_level_edge(self, phase, level):
        assert ks_gate(ks_summary(phase, (100, level))).ok
        assert not ks_gate(ks_summary(phase, (100, level + 1e-9))).ok

    def test_single_n_skips_trend(self):
        gate = ks_gate(ks_summary("exponential", (100, 0.1)))
        assert gate.ok and "trend" not in gate.detail

    @pytest.mark.parametrize("phase, ok", [("gumbel", True), ("calibration", True), ("exponential", False)])
    def test_equal_trend(self, phase, ok):
        # the Gumbel phases accept no change from the smallest n; the exponential phase needs a strict fall
        assert ks_gate(ks_summary(phase, (100, 0.04), (1000, 0.04))).ok is ok

    def test_worse_at_largest_n_fails(self):
        assert not ks_gate(ks_summary("gumbel", (100, 0.03), (1000, 0.04))).ok
        assert ks_gate(ks_summary("exponential", (100, 0.12), (1000, 0.11))).ok

    def test_largest_n_is_numeric(self):
        # "n=10" sorts before "n=9" as text; the level is read at n = 10
        gate = ks_gate(ks_summary("gumbel", (9, 0.2), (10, 0.01)))
        assert gate.ok and "KS=0.0100 at f|n=10" in gate.detail


class TestSandwichGate:
    def bounds(self, *within):
        return {f"{a:g}": {"lower": 0.4, "upper": 0.6, "ecdf": 0.5, "within_003": w}
                for a, w in zip((0.5, 1.0, 2.0), within)}

    def test_every_flag_must_hold(self):
        summary = {"phase": "preexp", "groups": {"pow:-0.5|n=1000": {"bounds": self.bounds(True, True, True)}}}
        assert sandwich_gate(summary).ok
        summary["groups"]["pow:-0.5|n=1000000"] = {"bounds": self.bounds(True, False, True)}
        gate = sandwich_gate(summary)
        assert not gate.ok
        assert "pow:-0.5|n=1000000 a=1: 0.4000 <= 0.5000 <= 0.6000 +-0.03 (BAD)" in gate.detail


class TestDimensionGate:
    def summary(self, accepted, exponent, alpha=0.5):
        small = {"count": 100, "accepted": 0, "conditional_mean_exponent": None}
        large = {"count": 100, "accepted": accepted, "conditional_mean_exponent": exponent}
        return {"phase": "dimension", "groups": {f"alpha={alpha:g}|n=9": small, f"alpha={alpha:g}|n=10": large}}

    def test_acceptance_edge(self):
        # only the largest n is read, so the empty group at n = 9 does not fail the gate
        assert MIN_ACCEPTED == 30
        assert not dimension_gate(self.summary(29, 0.5)).ok
        assert dimension_gate(self.summary(30, 0.5)).ok

    def test_too_few_skips_exponent(self):
        gate = dimension_gate(self.summary(0, None))
        assert not gate.ok and "exponent" not in gate.detail

    @pytest.mark.parametrize("exponent, ok", [(0.6, True), (0.4, True), (0.6001, False), (0.3999, False)])
    def test_band_edge(self, exponent, ok):
        assert dimension_gate(self.summary(200, exponent)).ok is ok

    def test_every_alpha_at_largest_n(self):
        summary = self.summary(200, 0.5)
        summary["groups"].update(self.summary(200, 0.5, alpha=0.8)["groups"])
        assert not dimension_gate(summary).ok  # alpha = 0.8 wants an exponent near 0.2
        summary["groups"]["alpha=0.8|n=10"]["conditional_mean_exponent"] = 0.25
        assert dimension_gate(summary).ok


class TestVacancyGate:
    # p = 0.5 over 100 replicates: one binomial sd is 0.05, so 4 sd is 0.2
    @pytest.mark.parametrize("single, pair, ok", [
        (0.3, 0.5, True),
        (0.7, 0.5, True),
        (0.29, 0.5, False),
        (0.5, 0.71, False),
    ])
    def test_four_sigma_edge(self, single, pair, ok):
        assert vacancy_gate((single, pair), (0.5, 0.5), 100).ok is ok

    def test_detail_names_both(self):
        gate = vacancy_gate((0.5, 0.9), (0.5, 0.5), 100)
        assert gate.detail == "single 5.00e-01 vs 5.00e-01 (ok); pair 9.00e-01 vs 5.00e-01 (BAD)"
