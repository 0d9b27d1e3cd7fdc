"""Command-line interface for disordered quantum walk experiments.

Subcommands: run, average, exact, moments, coeffs, variance.  Every
output embeds the fully resolved configuration and its digest, so any
result file can be reproduced byte for byte from its own config.  A
command reads each input through one resolver (`_Inputs`): flag >
--config file > default, and for the seed --seed flag > DQW_SEED env var
> config file > 0.  The resolver records every value as it reads it into
the config block; --workers, --out and --format never enter it.  A
command returns its result and CSV rows, and `main` writes the document.

Exit codes: 0 success, 2 configuration error (a run too large for
memory among them), 3 numerical drift, 4 exact average of an ensemble
without finite support.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import HADAMARD, Coin, NumericalDriftError, QubitState
from .engine import evolve
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
    draw_realization,
    monte_carlo_average,
    run_realization,
    variance_scan,
)


def _convert(key: str, convert, value):
    """`convert(value)`, raising ValueError for a value of the wrong type or range."""
    try:
        return convert(value)
    except (TypeError, OverflowError):
        raise ValueError(f"malformed {key}: {value!r}") from None


def _integer(key: str, value) -> int:
    """An integer or the text of one, raising ValueError for any other value.

    Flags arrive as text.  JSON numbers with a fraction or exponent (`2.7`,
    `1.0`) and booleans are rejected rather than truncated.
    """
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"malformed {key}: {value!r}")
    return value


#: Catalog builders by config name, with the numeric parameters each takes.
_BUILDERS = {
    "ribeiro_uniform": (make_ribeiro_uniform, ()),
    "ribeiro_two_point": (make_ribeiro_two_point, ("xi",)),
    "mackay_uniform": (make_mackay, ()),
    "shapira": (make_shapira, ("sigma",)),
    "fixed_hadamard": (make_fixed, ()),
}

ENSEMBLE_NAMES = tuple(_BUILDERS)


def ensemble_from_config(name: str, params: dict) -> CoinEnsemble:
    """Instantiate a catalog ensemble from its config name and parameters."""
    params = dict(params)

    def number(key: str) -> float:
        value = params.pop(key)
        if isinstance(value, bool):
            raise ValueError(f"malformed {key}: {value!r}")
        return _convert(key, float, value)

    if name not in ENSEMBLE_NAMES:
        raise ValueError(f"unknown ensemble {name!r}; choose one of {', '.join(ENSEMBLE_NAMES)}")
    build, keys = _BUILDERS[name]
    try:
        ensemble = build(*map(number, keys))
    except KeyError as exc:
        raise ValueError(f"ensemble {name} needs parameter {exc.args[0]}") from None
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")
    return ensemble


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


class _Inputs:
    """One invocation's inputs, each read as flag > --config file > default.

    Every value a command reads is recorded, as resolved, into `config`,
    the block its document embeds.  `--workers`, `--out` and `--format`
    are never recorded, so a document does not depend on them.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.config = {"command": args.command}
        self.file = {}
        if args.config is not None:
            self.file = json.loads(Path(args.config).read_text())
            if not isinstance(self.file, dict):
                raise ValueError(f"config file {args.config} must hold a JSON object")

    def pick(self, key: str, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        return self.file.get(key, default)

    def record(self, key: str, value):
        self.config[key] = value
        return value

    def integer(self, key: str, default=None, missing: str | None = None) -> int:
        value = self.pick(key, default)
        if value is None and missing is not None:
            raise ValueError(missing)
        return self.record(key, _integer(key, value))

    def n(self) -> int:
        n = self.integer("n", missing="n is required (flag --n or config file)")
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        return n

    def seed(self, record: bool = True) -> int:
        """--seed flag > DQW_SEED env var > config file > 0."""
        env = os.environ.get("DQW_SEED")
        if self.args.seed is not None:
            seed = self.args.seed
        elif env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ValueError(f"DQW_SEED must be an integer, got {env!r}") from None
        else:
            seed = _integer("seed", self.file.get("seed", 0))
        return self.record("seed", seed) if record else seed

    def ensemble(self) -> CoinEnsemble:
        params = _convert("params", dict, self.file.get("params", {}))
        for key in ("xi", "sigma"):
            if getattr(self.args, key) is not None:
                params[key] = getattr(self.args, key)
        ensemble = ensemble_from_config(self.pick("ensemble", "ribeiro_uniform"), params)
        self.config.update(ensemble.config())
        return ensemble

    def init(self) -> InitialStateRule:
        rule = _convert("init", make_initial_state, self.pick("init", "caseI"))
        self.record("init", rule.config())
        return rule

    def workers(self) -> int:
        if self.args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.args.workers}")
        return self.args.workers


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


def _cmd_run(inputs: _Inputs) -> tuple[dict, list[str] | None]:
    ensemble, init_rule, n = inputs.ensemble(), inputs.init(), inputs.n()
    dist = run_realization(ensemble, init_rule, n, inputs.seed(), trial=0)
    return dist.to_json_dict(), dist.to_csv_rows()


def _cmd_average(inputs: _Inputs) -> tuple[dict, list[str] | None]:
    ensemble, init_rule, n, seed = inputs.ensemble(), inputs.init(), inputs.n(), inputs.seed()
    trials = inputs.integer("trials", missing="trials is required for average")
    audit_draws = inputs.integer("audit_draws", 100_000)
    result = monte_carlo_average(
        ensemble, init_rule, n, trials, seed, workers=inputs.workers(), audit_draws=audit_draws
    )
    payload = result.to_json_dict()
    rows = result.mean_distribution.to_csv_rows() + [
        f"# stderr_max: {result.stderr_max!r}",
        f"# tv_to_binomial: {result.tv_to_binomial!r}",
    ]
    return payload, rows


def _cmd_exact(inputs: _Inputs) -> tuple[dict, list[str] | None]:
    ensemble, init_rule, n = inputs.ensemble(), inputs.init(), inputs.n()
    dist = exact_average(ensemble, init_rule, n)
    max_dev = float(np.abs(dist.probs - binomial_distribution(n).probs).max())
    payload = dist.to_json_dict()
    payload["max_abs_dev_from_binomial"] = max_dev
    return payload, dist.to_csv_rows() + [f"# max_abs_dev_from_binomial: {max_dev!r}"]


def _cmd_moments(inputs: _Inputs) -> tuple[dict, list[str] | None]:
    ensemble, seed = inputs.ensemble(), inputs.seed()
    report = audit_moments(ensemble, inputs.integer("draws", 100_000), seed)
    return report.to_json_dict(), None


def _cmd_coeffs(inputs: _Inputs) -> tuple[dict, list[str] | None]:
    ensemble, init_rule, n = inputs.ensemble(), inputs.init(), inputs.n()
    if n < 1:
        raise ValueError("coeffs needs n >= 1")
    rows, initial = draw_realization(ensemble, init_rule, n, inputs.seed())
    coins = [Coin(*map(complex, row)) for row in rows]
    pc = coefficients(coins, n)
    phi = QubitState(*map(complex, initial[0]))
    rebuilt = reconstruct_state(pc, coins[0], phi)
    reference = evolve(phi, coins).final
    residual = float(
        max(
            np.abs(rebuilt.psi_l - reference.psi_l).max(),
            np.abs(rebuilt.psi_r - reference.psi_r).max(),
        )
    )
    payload = pc.to_json_dict()
    payload["max_reconstruction_residual"] = residual
    return payload, None


def _cmd_variance(inputs: _Inputs) -> tuple[dict, list[str] | None]:
    raw_n = inputs.pick("n")
    if raw_n is None:
        raise ValueError("n is required (a value, list, or range like 10..100:10)")
    if isinstance(raw_n, list):
        n_list = [_integer("n", v) for v in raw_n]
    elif isinstance(raw_n, str):
        n_list = parse_n_list(raw_n)
    else:
        n_list = [_integer("n", raw_n)]
    inputs.record("n", n_list)
    walker_name = inputs.record("walker", inputs.pick("walker", "classical"))
    workers = inputs.workers()
    # Only the averaged walker draws random numbers, so only its config holds the seed.
    seed = inputs.seed(record=walker_name == "averaged")
    if walker_name == "classical":
        walker = ClassicalWalker()
    elif walker_name == "hadamard":
        init_rule = inputs.init()
        if init_rule.state is None:
            raise ValueError("the deterministic hadamard walker needs a fixed initial state")
        walker = DeterministicWalker(HADAMARD, init_rule.state)
    elif walker_name == "averaged":
        ensemble, init_rule = inputs.ensemble(), inputs.init()
        trials = inputs.integer("trials", missing="trials is required for the averaged walker")
        walker = AveragedWalker(ensemble, init_rule, trials, seed, workers=workers)
    else:
        raise ValueError(f"unknown walker {walker_name!r}; choose classical, hadamard, or averaged")
    scan = variance_scan(walker, n_list)
    return scan.to_json_dict(), scan.to_csv_rows()


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
            p.add_argument("--init", help="caseI, caseII, or 'alpha,beta' as Python complex "
                           "literals; the forms of dqwalk.make_initial_state")
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

    p_exact = sub.add_parser("exact", help="exact average over a finite-support ensemble")
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
        inputs = _Inputs(args)
        payload, csv_rows = args.handler(inputs)
        _emit(inputs.config, payload, args.format, args.out, csv_rows)
    except EnumerationInfeasibleError as exc:
        print(f"dqwalk: {exc}", file=sys.stderr)
        return 4
    except NumericalDriftError as exc:
        print(f"dqwalk: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"dqwalk: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
