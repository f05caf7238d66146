"""Command-line front end.

Subcommands: cover, snapshot, pi, dimension, shepp-series, calibrate, karamata.
Exit codes: 0 success, 2 validation failure, 3 acceptance-gate failure (gates.py) under --assert.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .circle import CONVERGING, DIVERGING, shepp_series
from .experiments import (
    COVER_PHASES,
    DEFAULT_BASE_SEED,
    ExperimentConfig,
    PRESETS,
    run_experiment,
    vacancy_frequency,
)
from .gates import MIN_ACCEPTED, PHASE_GATES, GateResult, vacancy_gate
from .tails import cf_estimate, karamata_ratio, parse_tail, rv_limit_probe
from .torus import pair_vacancy_exact, vacancy_probability_exact

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; lists are comma-separated."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (need key = value): {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


# key, the attribute of its flag -> (flag, argparse options), and where the --config file may set the key,
# also (ExperimentConfig field, parser of the file value). Each subcommand takes only the flags it reads.
_FLAGS = {
    "config": ("--config", dict(help="key = value config file; flags override its values")),
    "phase": ("--phase", dict(choices=COVER_PHASES), "phase", str),
    "tail": ("--tail", dict(help="const:<c> geom:<q> logpow:<b> pow:<p> slowlog"), "tail", str),
    "n": ("--n", dict(type=int, action="append", help="torus size (repeatable)"), "n_list", _int_list),
    "replicates": ("--replicates", dict(type=int), "replicates", int),
    "seed": ("--seed", dict(type=int, help=f"base seed (default {DEFAULT_BASE_SEED})"), "base_seed", int),
    "alpha": ("--alpha", dict(type=float, action="append"), "alpha_list", _float_list),
    "out": ("--out", dict(help="output path stem"), "output_path", str),
    "workers": ("--workers", dict(type=int, default=1)),
    "assert": ("--assert", dict(dest="assert_gates", action="store_true", help="exit 3 when the gate fails")),
}


def _experiment_config(args: argparse.Namespace, preset: str | None) -> ExperimentConfig:
    """The preset's fields, overridden by the --config file, overridden by the flags given.

    Every subcommand but cover runs its preset's phase alone and rejects any other.
    """
    fields = {**PRESETS[preset], "output_path": f"results/{preset}"} if preset else {}
    phase = fields.get("phase")
    settable = {key: row[2:] for key, row in _FLAGS.items() if len(row) > 2}
    config_path = getattr(args, "config", None)
    raw = _read_config_file(config_path) if config_path else {}
    unknown = sorted(set(raw) - set(settable))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; known keys are {sorted(settable)}")
    for key, (field, parse) in settable.items():
        flag = getattr(args, key, None)
        if flag is not None:
            fields[field] = tuple(flag) if isinstance(flag, list) else flag
        elif key in raw:
            fields[field] = parse(raw[key])
    if args.command != "cover" and fields["phase"] != phase:
        raise ValueError(f"{args.command} runs the {phase} phase, not {fields['phase']!r}")
    return ExperimentConfig(**fields)


def _reject_repeats(args: argparse.Namespace) -> None:
    """A subcommand that reads one n and one alpha refuses a repeated flag."""
    for key in ("n", "alpha"):
        values = getattr(args, key, None) or ()
        if len(values) > 1:
            raise ValueError(f"{args.command} reads one {key}, got {len(values)}: {values}")


def _failed(gate: GateResult) -> bool:
    """Print a failed gate's detail; True when it failed."""
    if not gate.ok:
        print(f"GATE FAIL: {gate.detail}")
    return not gate.ok


def _cmd_cover(args) -> int:
    config = _experiment_config(args, args.preset)
    if args.assert_gates and config.phase not in PHASE_GATES:
        raise ValueError(f"--assert has no gate for the {config.phase} phase (gated: {', '.join(PHASE_GATES)})")
    paths, summary = run_experiment(config, workers=args.workers)
    print(f"wrote {paths['csv']} {paths['summary']}")
    if args.assert_gates:
        if _failed(PHASE_GATES[config.phase](summary)):
            return EXIT_GATE
        print("gates passed")
    return EXIT_OK


def _emit_json(result: dict, out: str | None) -> None:
    """Print ``result`` as JSON; also write it to ``out`` when given."""
    text = json.dumps(result, indent=2, sort_keys=True)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_snapshot(args) -> int:
    _reject_repeats(args)
    tail = parse_tail(args.tail)
    n = args.n[0]
    if n < 2:
        raise ValueError(f"snapshot needs --n >= 2 for its site pair (0, n // 2), got --n {n}")
    mu = tail.mean()
    if args.time is not None:
        t = args.time
    elif args.alpha:
        if mu is None:
            raise ValueError("alpha-scaled snapshot time needs a finite-mean family; pass --time")
        t = args.alpha[0] * n * math.log(n) / mu
    else:
        raise ValueError("need --time or --alpha")
    sites = (0, n // 2)
    freq, joint = vacancy_frequency(tail, n, t, sites, args.replicates, args.seed)
    exact0 = vacancy_probability_exact(tail, n, t)
    exact_pair = pair_vacancy_exact(tail, n, t, n // 2)
    result = {
        "n": n,
        "t": t,
        "replicates": args.replicates,
        "site0_frequency": freq[0],
        "site0_exact": exact0,
        "pair_frequency": joint,
        "pair_exact": exact_pair,
    }
    _emit_json(result, args.out)
    if args.assert_gates:
        if _failed(vacancy_gate((freq[0], joint), (exact0, exact_pair), args.replicates)):
            return EXIT_GATE
        print("gates passed")
    return EXIT_OK


def _cmd_pi(args) -> int:
    config = _experiment_config(args, "shepp_pi")
    paths, summary = run_experiment(config, workers=args.workers)
    print(f"wrote {paths['csv']} {paths['summary']}")
    for key, group in sorted(summary["groups"].items()):
        print(f"{key}: pi_hat = {group['pi_hat']:.4f} +- {group['halfwidth_95']:.4f}")
    return EXIT_OK


def _cmd_dimension(args) -> int:
    _reject_repeats(args)
    config = _experiment_config(args, "dimension")
    [alpha], [n] = config.alpha_list, config.n_list
    _, summary = run_experiment(config, workers=args.workers)
    [group] = summary["groups"].values()
    accepted = group["accepted"]
    if accepted < MIN_ACCEPTED:
        print(f"insufficient acceptances: {accepted} non-covered configurations < {MIN_ACCEPTED}", file=sys.stderr)
        return EXIT_VALIDATION
    mean_exp = group["conditional_mean_exponent"]
    result = {"alpha": alpha, "n": n, "conditional_mean_exponent": mean_exp, "accepted": accepted}
    _emit_json(result, args.out)
    return EXIT_GATE if args.assert_gates and _failed(PHASE_GATES[config.phase](summary)) else EXIT_OK


def _parse_length_sequence(spec: str):
    if spec == "zero":
        return lambda n: 0.0
    name, sep, arg = spec.partition(":")
    if name == "c_over_n" and sep:
        c = float(arg)
        return lambda n: min(c / n, 1.0)
    if name == "const" and sep:
        v = float(arg)
        return lambda n: v
    raise ValueError(f"unknown length sequence {spec!r} (use zero, c_over_n:<c>, const:<v>)")


def _cmd_shepp_series(args) -> int:
    fn = _parse_length_sequence(args.sequence)
    partial, cls = shepp_series(fn, args.N)
    print(f"sequence={args.sequence} N={args.N} S_N={partial[-1]:.6g} classification={cls}")
    if args.expect and args.expect != cls:
        print(f"GATE FAIL: expected {args.expect}, classified {cls}")
        return EXIT_GATE
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    _reject_repeats(args)
    config = _experiment_config(args, "calibration")
    paths, summary = run_experiment(config, workers=args.workers)
    [group] = summary["groups"].values()
    print(f"wrote {paths['csv']}; KS vs Gumbel = {group['ks']['D']:.4f}")
    return EXIT_GATE if args.assert_gates and _failed(PHASE_GATES[config.phase](summary)) else EXIT_OK


def _cmd_karamata(args) -> int:
    tail = parse_tail(args.tail)
    x = args.x
    rows = {
        "tail": args.tail,
        "x": x,
        "karamata_ratio": karamata_ratio(tail, x),
        "cf_estimate": cf_estimate(tail, x),
        "rv_probe_t2": rv_limit_probe(tail, 2.0, x),
    }
    print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_OK


def _add_flags(parser, names, required=()):
    for name in names:
        flag, kwargs, *_ = _FLAGS[name]
        parser.add_argument(flag, required=name in required, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arccover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cover = sub.add_parser("cover", help="cover-time experiment for one phase")
    _add_flags(p_cover, ("config", "phase", "tail", "n", "replicates", "seed", "alpha", "out", "workers", "assert"))
    p_cover.add_argument("--preset", choices=sorted(PRESETS), help="named preset grid")
    p_cover.set_defaults(fn=_cmd_cover)

    p_snap = sub.add_parser("snapshot", help="timed vacancy snapshot vs exact formulas")
    _add_flags(p_snap, ("tail", "n", "replicates", "seed", "alpha", "out", "assert"), required=("tail", "n"))
    p_snap.add_argument("--time", type=float, help="absolute Poisson time t")
    p_snap.set_defaults(fn=_cmd_snapshot, replicates=200, seed=DEFAULT_BASE_SEED)

    p_pi = sub.add_parser("pi", help="Monte Carlo covering probability pi_hat")
    _add_flags(p_pi, ("config", "n", "replicates", "seed", "alpha", "out", "workers"))
    p_pi.set_defaults(fn=_cmd_pi)

    p_dim = sub.add_parser("dimension", help="conditional vacancy exponent ln Z / ln n")
    _add_flags(p_dim, ("n", "replicates", "seed", "alpha", "out", "workers", "assert"), required=("n",))
    p_dim.set_defaults(fn=_cmd_dimension)

    p_ss = sub.add_parser("shepp-series", help="series divergence diagnostic")
    p_ss.add_argument("--sequence", required=True, help="zero | c_over_n:<c> | const:<v>")
    p_ss.add_argument("--N", type=int, default=10**6)
    p_ss.add_argument("--expect", choices=(DIVERGING, CONVERGING, "inconclusive"))
    p_ss.set_defaults(fn=_cmd_shepp_series)

    p_cal = sub.add_parser("calibrate", help="coupon-collector Gumbel calibration")
    p_cal.add_argument("--K", dest="n", type=int, action="append", metavar="K", help="coupon count")
    _add_flags(p_cal, ("replicates", "seed", "out", "workers", "assert"))
    p_cal.set_defaults(fn=_cmd_calibrate)

    p_kar = sub.add_parser("karamata", help="regular-variation diagnostics table")
    _add_flags(p_kar, ("tail",), required=("tail",))
    p_kar.add_argument("--x", type=int, default=10**6)
    p_kar.set_defaults(fn=_cmd_karamata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
