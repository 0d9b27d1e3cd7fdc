"""Command-line interface for disordered quantum walk experiments.

Subcommands: run, average, exact, moments, coeffs, variance.  Every
output embeds the fully resolved configuration and its digest, so any
result file can be reproduced byte for byte from its own config.  Seeds
resolve as: --seed flag > DQW_SEED env var > config file > 0.

Exit codes: 0 success, 2 configuration error, 3 numerical drift,
4 infeasible exact enumeration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import HADAMARD, Coin, NumericalDriftError
from .engine import evolve, run_realization
from .ensembles import (
    CoinEnsemble,
    InitialStateRule,
    audit_moments,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    make_ribeiro_uniform,
    make_shapira,
)
from .pathsum import (
    EnumerationInfeasibleError,
    binomial_distribution,
    coefficients,
    exact_average,
    reconstruct_state,
)
from .stats import (
    AveragedWalker,
    ClassicalWalker,
    DeterministicWalker,
    config_digest,
    monte_carlo_average,
    variance_scan,
)
from .streams import COIN_STREAM, INIT_STREAM, substream

ENSEMBLE_NAMES = (
    "ribeiro_uniform",
    "ribeiro_two_point",
    "mackay_uniform",
    "shapira",
    "fixed_hadamard",
)


def ensemble_from_config(name: str, params: dict) -> CoinEnsemble:
    """Instantiate a catalog ensemble from its config name and parameters."""
    params = dict(params)
    builders = {
        "ribeiro_uniform": make_ribeiro_uniform,
        "ribeiro_two_point": lambda: make_ribeiro_two_point(float(params.pop("xi"))),
        "mackay_uniform": make_mackay,
        "shapira": lambda: make_shapira(float(params.pop("sigma"))),
        "fixed_hadamard": make_fixed,
    }
    if name not in builders:
        raise ValueError(f"unknown ensemble {name!r}; choose one of {', '.join(ENSEMBLE_NAMES)}")
    try:
        ensemble = builders[name]()
    except KeyError as exc:
        raise ValueError(f"ensemble {name} needs parameter {exc.args[0]}") from None
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")
    return ensemble


def parse_init_spec(spec) -> InitialStateRule:
    """Initial state from 'caseI', 'caseII', 'alpha,beta', or [[re,im],[re,im]]."""
    if isinstance(spec, str):
        text = spec.strip()
        if text.lower() in ("casei", "caseii", "casei_default", "caseii_uniform_phase",
                            "case_i", "case_ii"):
            return make_initial_state(text)
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"fixed initial state must be 'alpha,beta', got {spec!r}")
        try:
            alpha, beta = complex(parts[0]), complex(parts[1])
        except ValueError:
            raise ValueError(f"cannot parse initial state {spec!r}") from None
        return make_initial_state((alpha, beta))
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        pair = []
        for item in spec:
            if isinstance(item, (list, tuple)) and len(item) == 2:
                pair.append(complex(float(item[0]), float(item[1])))
            else:
                pair.append(complex(item))
        return make_initial_state(tuple(pair))
    raise ValueError(f"cannot interpret initial-state spec {spec!r}")


def parse_n_list(text: str) -> list[int]:
    """'12', '10,20,50', or 'a..b[:step]' into a strictly increasing list."""
    text = text.strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        lo_text, _, hi_text = span.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        step = int(step_text) if step_text else 1
        if step < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        return list(range(lo, hi + 1, step))
    if "," in text:
        return [int(part) for part in text.split(",")]
    return [int(text)]


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _resolve_seed(args, file_config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("DQW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"DQW_SEED must be an integer, got {env!r}") from None
    if "seed" in file_config:
        return int(file_config["seed"])
    return 0


def _pick(args, file_config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_config:
        return file_config[key]
    return default


def _resolve_ensemble(args, file_config: dict) -> tuple[CoinEnsemble, str, dict]:
    name = _pick(args, file_config, "ensemble", "ribeiro_uniform")
    params = dict(file_config.get("params", {}))
    if getattr(args, "xi", None) is not None:
        params["xi"] = args.xi
    if getattr(args, "sigma", None) is not None:
        params["sigma"] = args.sigma
    ensemble = ensemble_from_config(name, params)
    return ensemble, name, dict(ensemble.params)


def _resolve_init(args, file_config: dict) -> InitialStateRule:
    spec = _pick(args, file_config, "init", "caseI")
    return parse_init_spec(spec)


def _require_workers(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    return args.workers


def _require_n(args, file_config: dict) -> int:
    n = _pick(args, file_config, "n")
    if n is None:
        raise ValueError("n is required (flag --n or config file)")
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return n


def _emit(payload_config: dict, result: dict, fmt: str, out: str | None, csv_rows=None) -> None:
    digest = config_digest(payload_config)
    if fmt == "json":
        document = {"config": payload_config, "config_digest": digest, "result": result}
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    else:
        if csv_rows is None:
            raise ValueError("csv output is not supported for this command")
        canonical = json.dumps(payload_config, sort_keys=True, separators=(",", ":"))
        lines = [f"# config: {canonical}", f"# digest: {digest}"] + list(csv_rows)
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_run(args) -> None:
    file_config = _load_config_file(args.config)
    ensemble, name, params = _resolve_ensemble(args, file_config)
    init_rule = _resolve_init(args, file_config)
    n = _require_n(args, file_config)
    seed = _resolve_seed(args, file_config)
    dist = run_realization(ensemble, init_rule, n, seed, trial=0)
    resolved = {
        "command": "run",
        "ensemble": name,
        "params": params,
        "init": init_rule.config(),
        "n": n,
        "seed": seed,
    }
    _emit(resolved, dist.to_json_dict(), args.format, args.out, dist.to_csv_rows())


def _cmd_average(args) -> None:
    file_config = _load_config_file(args.config)
    ensemble, name, params = _resolve_ensemble(args, file_config)
    init_rule = _resolve_init(args, file_config)
    n = _require_n(args, file_config)
    seed = _resolve_seed(args, file_config)
    trials = _pick(args, file_config, "trials")
    if trials is None:
        raise ValueError("trials is required for average")
    trials = int(trials)
    audit_draws = int(_pick(args, file_config, "audit_draws", 100_000))
    workers = _require_workers(args)
    # The audit runs after the average; reject its size before that work.
    if audit_draws < 1:
        raise ValueError(f"draws must be at least 1, got {audit_draws}")
    result = monte_carlo_average(ensemble, init_rule, n, trials, seed, workers=workers)
    audit = audit_moments(ensemble, audit_draws, seed)
    resolved = {
        "command": "average",
        "ensemble": name,
        "params": params,
        "init": init_rule.config(),
        "n": n,
        "trials": trials,
        "seed": seed,
        "audit_draws": audit_draws,
    }
    payload = result.to_json_dict()
    payload["moment_audit"] = audit.to_json_dict()
    rows = result.to_csv_rows() + [
        f"# stderr_max: {result.stderr_max!r}",
        f"# tv_to_binomial: {result.tv_to_binomial!r}",
    ]
    _emit(resolved, payload, args.format, args.out, rows)


def _cmd_exact(args) -> None:
    file_config = _load_config_file(args.config)
    ensemble, name, params = _resolve_ensemble(args, file_config)
    init_rule = _resolve_init(args, file_config)
    n = _require_n(args, file_config)
    dist = exact_average(ensemble, init_rule, n)
    reference = binomial_distribution(n)
    max_dev = float(np.abs(dist.probs - reference.probs).max())
    resolved = {
        "command": "exact",
        "ensemble": name,
        "params": params,
        "init": init_rule.config(),
        "n": n,
    }
    payload = dist.to_json_dict()
    payload["max_abs_dev_from_binomial"] = max_dev
    rows = dist.to_csv_rows() + [f"# max_abs_dev_from_binomial: {max_dev!r}"]
    _emit(resolved, payload, args.format, args.out, rows)


def _cmd_moments(args) -> None:
    file_config = _load_config_file(args.config)
    ensemble, name, params = _resolve_ensemble(args, file_config)
    seed = _resolve_seed(args, file_config)
    draws = int(_pick(args, file_config, "draws", 100_000))
    report = audit_moments(ensemble, draws, seed)
    resolved = {
        "command": "moments",
        "ensemble": name,
        "params": params,
        "draws": draws,
        "seed": seed,
    }
    _emit(resolved, report.to_json_dict(), args.format, args.out)


def _cmd_coeffs(args) -> None:
    file_config = _load_config_file(args.config)
    ensemble, name, params = _resolve_ensemble(args, file_config)
    init_rule = _resolve_init(args, file_config)
    n = _require_n(args, file_config)
    if n < 1:
        raise ValueError("coeffs needs n >= 1")
    seed = _resolve_seed(args, file_config)
    rows = ensemble.sample_batch(substream(seed, 0, COIN_STREAM), n)
    coins = [Coin(*map(complex, row)) for row in rows]
    pc = coefficients(coins, n)
    phi = (
        init_rule.draw(substream(seed, 0, INIT_STREAM))
        if init_rule.kind == "random"
        else init_rule.draw()
    )
    rebuilt = reconstruct_state(pc, coins[0], phi)
    reference = evolve(phi, coins).final
    residual = float(
        max(
            np.abs(rebuilt.psi_l - reference.psi_l).max(),
            np.abs(rebuilt.psi_r - reference.psi_r).max(),
        )
    )
    resolved = {
        "command": "coeffs",
        "ensemble": name,
        "params": params,
        "init": init_rule.config(),
        "n": n,
        "seed": seed,
    }
    payload = pc.to_json_dict()
    payload["max_reconstruction_residual"] = residual
    _emit(resolved, payload, args.format, args.out)


def _cmd_variance(args) -> None:
    file_config = _load_config_file(args.config)
    raw_n = _pick(args, file_config, "n")
    if raw_n is None:
        raise ValueError("n is required (a value, list, or range like 10..100:10)")
    if isinstance(raw_n, (list, tuple)):
        n_list = [int(v) for v in raw_n]
    else:
        n_list = parse_n_list(str(raw_n))
    walker_name = _pick(args, file_config, "walker", "classical")
    workers = _require_workers(args)
    seed = _resolve_seed(args, file_config)
    resolved = {"command": "variance", "walker": walker_name, "n": list(n_list)}
    if walker_name == "classical":
        walker = ClassicalWalker()
    elif walker_name == "hadamard":
        init_rule = _resolve_init(args, file_config)
        if init_rule.kind != "fixed":
            raise ValueError("the deterministic hadamard walker needs a fixed initial state")
        walker = DeterministicWalker(HADAMARD, init_rule.draw())
        resolved["init"] = init_rule.config()
    elif walker_name == "averaged":
        ensemble, name, params = _resolve_ensemble(args, file_config)
        init_rule = _resolve_init(args, file_config)
        trials = _pick(args, file_config, "trials")
        if trials is None:
            raise ValueError("trials is required for the averaged walker")
        walker = AveragedWalker(ensemble, init_rule, int(trials), seed, workers=workers)
        resolved.update(
            {"ensemble": name, "params": params, "init": init_rule.config(),
             "trials": int(trials), "seed": seed}
        )
    else:
        raise ValueError(f"unknown walker {walker_name!r}; choose classical, hadamard, or averaged")
    scan = variance_scan(walker, n_list)
    _emit(resolved, scan.to_json_dict(), args.format, args.out, scan.to_csv_rows())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqwalk",
        description="Disordered quantum walks on the line: single realizations, "
        "exact and Monte Carlo ensemble averages, coefficient exports, and "
        "moment and variance diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_init: bool = True, with_n: bool = True):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--ensemble", help=f"one of: {', '.join(ENSEMBLE_NAMES)}")
        p.add_argument("--xi", type=float, help="angle parameter of ribeiro_two_point (radians)")
        p.add_argument("--sigma", type=float, help="kick width of the shapira ensemble")
        if with_init:
            p.add_argument("--init", help="caseI, caseII, or 'alpha,beta' complex literals")
        if with_n:
            p.add_argument("--n", help="number of steps")
        p.add_argument("--seed", type=int, help="master seed (overrides DQW_SEED and config)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_run = sub.add_parser("run", help="one seeded realization's distribution")
    add_common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_avg = sub.add_parser("average", help="Monte Carlo ensemble average")
    add_common(p_avg)
    p_avg.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    p_avg.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_avg.add_argument("--audit-draws", dest="audit_draws", type=int,
                       help="draws for the embedded moment audit (default 100000)")
    p_avg.set_defaults(handler=_cmd_average)

    p_exact = sub.add_parser("exact", help="exact ensemble average by enumeration")
    add_common(p_exact)
    p_exact.set_defaults(handler=_cmd_exact)

    p_mom = sub.add_parser("moments", help="moment audit of an ensemble")
    add_common(p_mom, with_init=False, with_n=False)
    p_mom.add_argument("--draws", type=int, help="sample size (default 100000)")
    p_mom.set_defaults(handler=_cmd_moments)

    p_coeffs = sub.add_parser("coeffs", help="path-sum coefficient export")
    add_common(p_coeffs)
    p_coeffs.set_defaults(handler=_cmd_coeffs)

    p_var = sub.add_parser("variance", help="variance scaling scan")
    add_common(p_var)
    p_var.add_argument("--walker", help="classical, hadamard, or averaged")
    p_var.add_argument("--trials", type=int, help="trials per n for the averaged walker")
    p_var.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_var.set_defaults(handler=_cmd_variance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except EnumerationInfeasibleError as exc:
        print(f"dqwalk: {exc}", file=sys.stderr)
        return 4
    except NumericalDriftError as exc:
        print(f"dqwalk: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"dqwalk: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
