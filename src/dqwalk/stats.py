"""Seeded walk realizations, their Monte Carlo average, and comparison metrics.

Trial t of a master seed draws its coins from the stream (seed, t,
COIN_STREAM) and its initial state, when random, from (seed, t,
INIT_STREAM).  `draw_realization` takes one trial's draws from its own
generators and `run_realization` evolves them; a Monte Carlo run takes
the same draws for many trials at once (`_block_draws`), so a single
realization equals its trial inside an average bit for bit.

Trials are partitioned into fixed-size blocks keyed by absolute trial
index, and the block is the unit of reduction: each block's partial is
the sum of its trials' probabilities.  The unit of work is a run of
consecutive whole blocks (only the last block of the job may be
partial), sized from n alone so that a run's probabilities stay within
RUN_SITES trial-sites.  A run draws its per-trial streams (all uniforms
at once for `UniformDraw` ensembles), evolves all its realizations in one
vectorized kernel call, and sums each of its blocks' rows.  The kernel
takes each sub-block's coins only when it steps that sub-block, so no
array of a whole run's coins is ever built; a `UniformDraw` makes them in
step order, one contiguous plane per coin entry.  Summing a (trials, sites)
array over axis 0 adds the trial rows one after another, in trial order
(numpy's pairwise summation applies only along a contiguous axis, which
the trial axis is only at n = 0, with one site).  The
final reduction over block partials is ordered, so the averaged result
is bit-identical whether runs go serially or across any number of
processes, and whatever the run length.  An average asked for a moment
audit runs it in the parent process: while a pool's workers run the
trials, or after the runs when there is no pool.  Its bits do not depend
on which.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .core import Coin, Distribution, QubitState, _sample_variance, summary_stats
from .engine import _check_block_norms, _evolve_block
from .ensembles import (
    CoinEnsemble,
    InitialStateRule,
    MomentReport,
    UniformDraw,
    _draw_rows,
    audit_moments,
    make_fixed,
)
from .pathsum import binomial_distribution, exact_average
from .streams import COIN_STREAM, INIT_STREAM, block_uniforms, substream

#: Trials per accumulation block.  Fixed (not tuned per run) so that the
#: reduction tree, and therefore the result, never depends on trial count
#: partitioning across workers.
BLOCK_SIZE = 1024

#: Trial-sites (8 bytes each) of probabilities that one Monte Carlo run
#: holds at most, unless a single block is larger.  A run covers
#: max(1, RUN_SITES // (BLOCK_SIZE * (n + 1))) blocks, which depends on n
#: alone; it amortises the fixed per-task costs (stream seeding, the coin
#: and state transforms, a kernel call, a pool round trip) at small n.
RUN_SITES = 1 << 16


def config_digest(payload: dict) -> str:
    """Stable hex digest of a JSON-serializable configuration."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class AveragedResult:
    """Monte Carlo estimate of the ensemble-averaged distribution.

    `stderr` holds the per-site standard error of the mean (sample
    standard deviation of the per-realization probabilities across
    trials, divided by sqrt(trials)); `stderr_max` is its maximum over
    sites.  `tv_to_binomial` is the total variation distance between the
    mean distribution and the classical symmetric walk law at the same n.
    `moment_audit` is the ensemble's moment audit at the same master seed
    when the average was asked for one, and `to_json_dict` writes it only
    then.
    """

    mean_distribution: Distribution
    trials: int
    stderr: np.ndarray
    stderr_max: float
    master_seed: int
    tv_to_binomial: float
    digest: str
    moment_audit: MomentReport | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "n": self.mean_distribution.n,
            "trials": self.trials,
            "seed": self.master_seed,
            "mean": [[k, p] for k, p in self.mean_distribution.items()],
            "stderr_max": self.stderr_max,
            "tv_to_binomial": self.tv_to_binomial,
            "config_digest": self.digest,
        }
        if self.moment_audit is not None:
            payload["moment_audit"] = self.moment_audit.to_json_dict()
        return payload


class _SubBlockDraws:
    """The (count, size, width) draws of one trial block, made per slice.

    Slicing by trial, ``draws[lo:hi]``, returns the rows of trials lo..hi-1
    as a new complex128 array; `shape` is that of the whole block.  The
    evolution kernel reads its coins this way one sub-block at a time, so
    only one sub-block's coins exist at once.
    """

    def __init__(self, shape: tuple[int, int, int], rows) -> None:
        self.shape = shape
        self._rows = rows

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, _ = key.indices(self.shape[0])
        return self._rows(lo, hi)


def _block_draws(
    draw, master_seed: int, start: int, count: int, stream: int, size: int, width: int
) -> _SubBlockDraws:
    """(count, size, width) draws of trials start..start+count-1 on `stream`.

    `draw(rng, size)` is an ensemble's or a random initial-state rule's
    `draw_parameters`.  A `UniformDraw` takes all uniforms from one
    `block_uniforms` call (8 bytes per trial and draw) and applies its
    transform to the trials of each slice in step order, draw j of every
    trial before draw j + 1, and reads the rows as (width, size, trials)
    planes: a view of the column-major rows the catalog's transforms
    return, a copy of a row-major transform's.  The kernel then copies each
    step's coin entries from contiguous memory.  Any other draw runs
    `draw(rng, size)` on each sliced trial's own `substream`.  Either way a
    draw whose rows are not (trials * size, width), or (size, width) for
    one trial, raises ValueError, as `sample_batch` and `draw_batch` do,
    and both give the same rows bit for bit, whatever the slices.
    """
    if isinstance(draw, UniformDraw):
        u = block_uniforms(master_seed, start, count, stream, size)

        def rows(lo: int, hi: int) -> np.ndarray:
            out = _draw_rows(draw.transform(u[lo:hi].T.reshape(-1)), ((hi - lo) * size, width))
            return out.T.reshape(width, size, hi - lo).transpose(2, 1, 0)
    else:
        def rows(lo: int, hi: int) -> np.ndarray:
            out = np.empty((hi - lo, size, width), dtype=np.complex128)
            for i in range(lo, hi):
                rng = substream(master_seed, start + i, stream)
                out[i - lo] = _draw_rows(draw(rng, size), (size, width))
            return out

    return _SubBlockDraws((count, size, width), rows)


def _mc_block(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
    master_seed: int,
    start: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (sums, sums of squares) of site probabilities over a run.

    The run is trials start..start+count-1, cut into BLOCK_SIZE blocks
    from `start` (only the last may be partial).  Returns two (blocks,
    n+1) arrays whose row b is the axis-0 sum over block b's own rows, the
    same bits as evolving that block alone.
    """
    abcd = _block_draws(ensemble.draw_parameters, master_seed, start, count, COIN_STREAM, n, 4)
    if init_rule.state is None:
        initial = _block_draws(
            init_rule.draw_parameters, master_seed, start, count, INIT_STREAM, 1, 2
        )[:][:, 0]
    else:
        initial = init_rule.draw_batch(None, count)
    probs = _evolve_block(abcd, initial)
    _check_block_norms(probs, n)
    starts = range(0, count, BLOCK_SIZE)
    sums = np.stack([probs[lo : lo + BLOCK_SIZE].sum(axis=0) for lo in starts])
    np.square(probs, out=probs)
    return sums, np.stack([probs[lo : lo + BLOCK_SIZE].sum(axis=0) for lo in starts])


def _mc_block_args(args) -> tuple[np.ndarray, np.ndarray]:
    return _mc_block(*args)


def draw_realization(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
    master_seed: int,
    trial: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """A realization's (n, 4) coin rows and (1, 2) initial state.

    The coin sequence comes from the stream (master_seed, trial,
    COIN_STREAM) and the initial state, when random, from (master_seed,
    trial, INIT_STREAM): the rows `_mc_block` draws for trial `trial`.
    """
    abcd = ensemble.sample_batch(substream(master_seed, trial, COIN_STREAM), n)
    initial = init_rule.draw_batch(
        substream(master_seed, trial, INIT_STREAM) if init_rule.state is None else None, 1
    )
    return abcd, initial


def run_realization(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
    master_seed: int,
    trial: int = 0,
) -> Distribution:
    """One seeded realization: draw n coins and an initial state, evolve.

    The draws are `draw_realization`'s.  Identical inputs give identical
    output, and the result equals the corresponding trial inside
    `monte_carlo_average` bit for bit.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    abcd, initial = draw_realization(ensemble, init_rule, n, master_seed, trial)
    probs = _evolve_block(abcd[np.newaxis, :, :], initial)
    _check_block_norms(probs, n)
    return Distribution(n, probs[0])


def monte_carlo_average(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
    trials: int,
    master_seed: int,
    workers: int = 1,
    audit_draws: int | None = None,
) -> AveragedResult:
    """Average `trials` independent realizations of the disordered walk.

    Trial t draws from the streams (master_seed, t, COIN_STREAM) and
    (master_seed, t, INIT_STREAM), so results are deterministic in all
    arguments and invariant to `workers`.

    Given `audit_draws`, the result carries `audit_moments(ensemble,
    audit_draws, master_seed)`.  With a process pool the parent runs that
    audit while the workers run the trials, after every run is submitted
    (under the fork start method the pool has then forked all its
    workers); without one it runs after the trials.  The report's bits
    are the same either way.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if audit_draws is not None and audit_draws < 1:
        raise ValueError(f"draws must be at least 1, got {audit_draws}")

    run = max(1, RUN_SITES // (BLOCK_SIZE * (n + 1))) * BLOCK_SIZE
    runs = [
        (ensemble, init_rule, n, master_seed, start, min(run, trials - start))
        for start in range(0, trials, run)
    ]

    def audit() -> MomentReport | None:
        return None if audit_draws is None else audit_moments(ensemble, audit_draws, master_seed)

    if workers == 1 or len(runs) == 1:
        partials = [_mc_block_args(args) for args in runs]
        report = audit()
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(runs))) as pool:
            pending = pool.map(_mc_block_args, runs)
            report = audit()
            partials = list(pending)

    total = np.concatenate([p for p, _ in partials]).sum(axis=0)
    total_sq = np.concatenate([q for _, q in partials]).sum(axis=0)
    mean = total / trials
    stderr = np.sqrt(_sample_variance(mean, total_sq, trials) / trials)
    stderr.setflags(write=False)

    mean_distribution = Distribution(n, mean)
    digest = config_digest(
        {
            **ensemble.config(),
            "init": init_rule.config(),
            "n": n,
            "trials": trials,
            "seed": master_seed,
        }
    )
    return AveragedResult(
        mean_distribution=mean_distribution,
        trials=trials,
        stderr=stderr,
        stderr_max=float(stderr.max()),
        master_seed=master_seed,
        tv_to_binomial=tv_distance(mean_distribution, binomial_distribution(n)),
        digest=digest,
        moment_audit=report,
    )


def tv_distance(d1: Distribution, d2: Distribution) -> float:
    """Total variation distance, half the L1 distance between the masses."""
    if d1.n != d2.n:
        raise ValueError(f"distributions live at different times: {d1.n} vs {d2.n}")
    return 0.5 * float(np.abs(d1.probs - d2.probs).sum())


# --- variance scaling -------------------------------------------------------

@dataclass(frozen=True)
class ClassicalWalker:
    """The classical symmetric random walk (variance exactly n)."""


@dataclass(frozen=True)
class DeterministicWalker:
    """A walk under one fixed coin every step."""

    coin: Coin
    initial: QubitState


@dataclass(frozen=True)
class AveragedWalker:
    """Monte Carlo ensemble average of the disordered walk."""

    ensemble: CoinEnsemble
    init_rule: InitialStateRule
    trials: int
    master_seed: int
    workers: int = 1


Walker = ClassicalWalker | DeterministicWalker | AveragedWalker


@dataclass(frozen=True)
class VarianceScan:
    """Rows of (n, variance) for one walker configuration."""

    walker: str
    rows: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {"walker": self.walker, "rows": [[n, v] for n, v in self.rows]}

    def to_csv_rows(self) -> list[str]:
        return ["n,variance"] + [f"{n},{v!r}" for n, v in self.rows]


def variance_scan(walker: Walker, n_list: Sequence[int]) -> VarianceScan:
    """Variance of the site coordinate at each n in `n_list`.

    The classical walker's variance is n exactly; the deterministic
    walker's row is the exact average of its one-coin ensemble, which is
    its walk (`dqwalk.pathsum.exact_average`); the averaged walker runs a full
    Monte Carlo average per n (same master seed each row, so a row
    reproduces the standalone `monte_carlo_average` call).
    """
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {list(n_list)}")
    if any(n < 0 for n in n_list):
        raise ValueError("n values must be nonnegative")

    if isinstance(walker, ClassicalWalker):
        # sum_m (2m-n)^2 C(n,m) / 2^n = n exactly.
        return VarianceScan(walker="classical", rows=tuple((int(n), float(n)) for n in n_list))
    if isinstance(walker, DeterministicWalker):
        label = "deterministic"
        ensemble, init_rule = make_fixed(walker.coin), InitialStateRule(state=walker.initial)
        distribution = partial(exact_average, ensemble, init_rule)
    elif isinstance(walker, AveragedWalker):
        label = f"averaged:{walker.ensemble.name}"

        def distribution(n: int) -> Distribution:
            return monte_carlo_average(walker.ensemble, walker.init_rule, n, walker.trials,
                                       walker.master_seed, workers=walker.workers).mean_distribution
    else:
        raise ValueError(f"unknown walker configuration {walker!r}")
    rows = tuple((int(n), summary_stats(distribution(int(n)))[1]) for n in n_list)
    return VarianceScan(walker=label, rows=rows)
