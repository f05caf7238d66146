"""Acceptance gates, each threshold and clause stated once; read by ``--assert`` and the acceptance tests.

A gate reads a run's summary (the vacancy gate, measured and exact frequencies) and returns a GateResult.
"""
import math
import operator
from dataclasses import dataclass

KS_RULES = {"gumbel": (0.05, operator.le), "calibration": (0.05, operator.le), "exponential": (0.15, operator.lt)}
SANDWICH_SLACK = 0.03  # on either side of the bounds, in the summary's within_003 flag
MIN_ACCEPTED = 30  # non-covered configurations behind a conditional mean exponent
EXPONENT_BAND = 0.1


@dataclass(frozen=True)
class GateResult:
    ok: bool
    detail: str  # each clause's measured values, marked ok or BAD


def _result(clauses: list[tuple[bool, str]]) -> GateResult:
    """The gate of (holds, text) clauses: it passes when every clause holds."""
    detail = "; ".join(f"{text} ({'ok' if holds else 'BAD'})" for holds, text in clauses)
    return GateResult(all(holds for holds, _ in clauses), detail)


def _group_n(key: str) -> int:
    return int(key.rsplit("n=", 1)[1])  # summary group keys end in |n=<n>


def ks_gate(summary: dict) -> GateResult:
    """KS at the top n within its level; with several n, also no worse (le) or better (lt) than at the smallest."""
    level, improves = KS_RULES[summary["phase"]]
    by_n = sorted(summary["groups"].items(), key=lambda kv: _group_n(kv[0]))
    (small_key, small), (large_key, large) = by_n[0], by_n[-1]
    d = large["ks"]["D"]
    clauses = [(d <= level, f"KS={d:.4f} at {large_key} <= {level:g}")]
    if len(by_n) > 1:
        clauses.append((improves(d, small["ks"]["D"]), f"trend from KS={small['ks']['D']:.4f} at {small_key}"))
    return _result(clauses)


def sandwich_gate(summary: dict) -> GateResult:
    """Every pre-exponential ECDF within SANDWICH_SLACK of its [lower, upper] bounds."""
    checks = [(key, alpha, chk) for key, group in summary["groups"].items() for alpha, chk in group["bounds"].items()]
    return _result([(chk["within_003"], f"{key} a={alpha}: {chk['lower']:.4f} <= {chk['ecdf']:.4f} <= "
                                        f"{chk['upper']:.4f} +-{SANDWICH_SLACK:g}") for key, alpha, chk in checks])


def dimension_gate(summary: dict) -> GateResult:
    """At the largest n, each alpha has MIN_ACCEPTED acceptances and an exponent within EXPONENT_BAND of 1 - alpha."""
    top_n = max(map(_group_n, summary["groups"]))
    clauses = []
    for key, group in summary["groups"].items():
        if _group_n(key) != top_n:
            continue
        enough = group["accepted"] >= MIN_ACCEPTED
        clauses.append((enough, f"{key}: accepted={group['accepted']} >= {MIN_ACCEPTED}"))
        if enough:
            target = 1.0 - float(key.split("|")[0].removeprefix("alpha="))
            exponent = group["conditional_mean_exponent"]
            clauses.append((abs(exponent - target) <= EXPONENT_BAND,
                            f"exponent={exponent:.4f} within {EXPONENT_BAND:g} of {target:g}"))
    return _result(clauses)


def vacancy_gate(measured: tuple[float, float], exact: tuple[float, float], replicates: int) -> GateResult:
    """The (single-site, pair) vacancy frequencies each within 4 binomial sd of the exact probabilities."""
    return _result([(abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / replicates), f"{label} {freq:.2e} vs {p:.2e}")
                    for label, freq, p in zip(("single", "pair"), measured, exact)])


# the gate of each gated phase; cover --assert refuses every other phase
PHASE_GATES = {**dict.fromkeys(KS_RULES, ks_gate), "preexp": sandwich_gate, "dimension": dimension_gate}
