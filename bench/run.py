"""Benchmark of the dqwalk command-line interface.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one `dqwalk` CLI invocation through `dqwalk.cli.main`
in a fresh interpreter (bench/child.py), because CLI users pay first-call
allocator costs on every run and warm in-process repetitions would hide
them.  Repetitions run back to back, one at a time (a closed loop with
one client), until S seconds have passed; the seed goes to the CLI as
`--seed`, and every repetition of a run uses it.

Every repetition passes a correctness gate or counts as failed: exit code
0, an output document that matches the binomial law (within Z_LIMIT
standard errors for Monte Carlo, within EXACT_LIMIT for enumeration), and
bytes identical to the run's first document.

`--trace 0` reports the end-to-end metrics as medians over repetitions.
`--trace 1` alternates untraced and traced repetitions of the same
invocation (bench/tracing.py wraps each layer from outside the package)
and reports per-layer metrics; a workload that fans out to a process
pool also gets a traced 1-worker pass, which supplies its sub-layer
spans and the fan-out efficiency.  Traced documents must be identical to
untraced ones, and 1-worker documents to pool ones.

The last line of standard output is the result object; the line before
it is a record of the run (machine, seed, every repetition, layer
spans).  Runs with MALLOC_* or PYTHONMALLOC set are refused, because
raising the mmap threshold alone changed first-call kernel time by
about 1.5x.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import summarise

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: A Monte Carlo document fails when some site's mean is further than this
#: many `stderr_max` from the binomial law (seen: 0.4 to 1.1).
Z_LIMIT = 5.0
#: An exact document fails when any site is further than this from the law.
EXACT_LIMIT = 1e-12
#: Every run must end within this many seconds, repetitions included.
RUN_LIMIT_S = 170.0

#: Unit of every reported metric: end-to-end ones first, then per layer.
UNITS = {
    "wall_s": "s",
    "walks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "streams.substream.calls": "count",
    "streams.substream.s": "s",
    "ensembles.sample_batch.calls": "count",
    "ensembles.sample_batch.s": "s",
    "ensembles.draw_batch.calls": "count",
    "ensembles.draw_batch.s": "s",
    "ensembles.audit_moments.s": "s",
    "engine.evolve_block.calls": "count",
    "engine.evolve_block.s": "s",
    "engine.check_norms.s": "s",
    "engine.site_updates": "count",
    "engine.site_updates_per_s": "1/s",
    "engine.bytes_computed": "B",
    "engine.minor_faults": "count",
    "stats.mc_block.calls": "count",
    "stats.mc_block.self_s": "s",
    "stats.monte_carlo_average.s": "s",
    "stats.fanout.tasks": "count",
    "stats.fanout.efficiency": "ratio",
    "pathsum.sequences": "count",
    "pathsum.exact_average.s": "s",
    "pathsum.exact_average.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    walks: int  # realizations averaged: trials, or coin sequences enumerated


WORKLOADS = {
    # Per-trial stream set-up dominates: caseII seeds two SeedSequence +
    # PCG64 streams per trial and draws coins and a state from them.  The
    # only workload with many small blocks (40 of 1024 trials) spread over
    # a process pool, so it exercises fan-out; vectorised streams show
    # here, and the kernel barely matters.
    "mc_small_n": Workload(
        ("average", "--ensemble", "mackay_uniform", "--init", "caseII",
         "--n", "10", "--trials", "40000", "--workers", "2"),
        walks=40000,
    ),
    # The plain single-process kernel baseline: _evolve_block is almost
    # all of the time.  Each amplitude array (1024 x 321 complex, 5.3 MB)
    # exceeds a core's L2 cache, so cache blocking and allocation-free
    # stepping show here and not on mc_small_n.
    "mc_large_n": Workload(
        ("average", "--ensemble", "ribeiro_uniform", "--init", "caseI",
         "--n", "320", "--trials", "1024", "--workers", "1"),
        walks=1024,
    ),
    # The engine used differently: 2^17 short walks in chunks of 16384
    # that share prefixes, plus Python enumeration in pathsum; streams and
    # ensemble draws do no work.  The coin-averaged channel or any prefix
    # sharing shows here.
    "exact_enum": Workload(
        ("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854",
         "--init", "caseI", "--n", "17"),
        walks=2**17,
    ),
}


def binomial_law(n: int) -> list[float]:
    return [math.comb(n, m) / 2**n for m in range(n + 1)]


def check_document(workload: Workload, text: bytes) -> str | None:
    """Why the output document is wrong, or None if it passes."""
    result = json.loads(text)["result"]
    n = result["n"]
    monte_carlo = workload.argv[0] == "average"
    sites = result["mean"] if monte_carlo else result["mass"]
    if [k for k, _ in sites] != list(range(-n, n + 1, 2)):
        return f"sites do not cover the parity support at n={n}"
    deviation = max(abs(p - q) for (_, p), q in zip(sites, binomial_law(n)))
    if monte_carlo:
        if result["trials"] != workload.walks:
            return f"trials {result['trials']} != {workload.walks}"
        stderr = result["stderr_max"]
        if not deviation <= Z_LIMIT * stderr:
            return f"max |mean - binomial| {deviation!r} exceeds {Z_LIMIT} x stderr_max {stderr!r}"
    elif not max(deviation, result["max_abs_dev_from_binomial"]) <= EXACT_LIMIT:
        return f"max |mass - binomial| {deviation!r} exceeds {EXACT_LIMIT}"
    return None


class Runner:
    """Runs repetitions of one workload and gates their documents."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.reference: bytes | None = None
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.env.pop("DQW_SEED", None)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def warm_up(self) -> None:
        """Compile bytecode and fill the page cache outside any timing."""
        subprocess.run(
            [sys.executable, "-c", "import dqwalk.cli"],
            cwd=ROOT, env=self.env, check=True, timeout=self.remaining(),
        )

    def rep(self, argv: tuple[str, ...], spans: Path | None = None) -> dict:
        out = self.work / "out.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, str(CHILD), str(spans) if spans else "-", "--",
            *argv, "--seed", str(self.seed), "--out", str(out),
        ]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"failure": "timed out"}
        finally:
            if proc.poll() is None:  # timed out, or this process is exiting
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            return {"failure": f"exit code {proc.returncode}: {stderr.strip()[-300:]}"}
        rep = json.loads(stdout.strip().splitlines()[-1])
        rep["setup_s"] = rep.pop("ready") - spawned
        document = out.read_bytes()
        if self.reference is None:
            self.reference = document
        failure = check_document(self.workload, document)
        if failure is None and document != self.reference:
            failure = "document differs from the run's first one at the same seed"
        rep["failure"] = failure
        if spans is not None:
            rep["layers"] = summarise(str(spans))
        return rep


def median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps if key in rep)


def layer_metrics(rep: dict) -> dict[str, float]:
    layers, counters = rep["layers"], rep["counters"]
    evolve_s = layers["engine.evolve_block"]["s"]
    return {
        "streams.substream.calls": layers["streams.substream"]["calls"],
        "streams.substream.s": layers["streams.substream"]["s"],
        "ensembles.sample_batch.calls": layers["ensembles.sample_batch"]["calls"],
        "ensembles.sample_batch.s": layers["ensembles.sample_batch"]["s"],
        "ensembles.draw_batch.calls": layers["ensembles.draw_batch"]["calls"],
        "ensembles.draw_batch.s": layers["ensembles.draw_batch"]["s"],
        "ensembles.audit_moments.s": layers["ensembles.audit_moments"]["s"],
        "engine.evolve_block.calls": layers["engine.evolve_block"]["calls"],
        "engine.evolve_block.s": evolve_s,
        "engine.check_norms.s": layers["engine.check_norms"]["s"],
        "engine.site_updates": counters["engine.site_updates"],
        "engine.site_updates_per_s": counters["engine.site_updates"] / evolve_s,
        "engine.bytes_computed": counters["engine.bytes_computed"],
        "engine.minor_faults": counters["engine.minor_faults"],
        "stats.mc_block.calls": layers["stats.mc_block"]["calls"],
        "stats.mc_block.self_s": layers["stats.mc_block"]["self_s"],
        "stats.monte_carlo_average.s": layers["stats.monte_carlo_average"]["s"],
        "pathsum.sequences": counters["pathsum.sequences"],
        "pathsum.exact_average.s": layers["pathsum.exact_average"]["s"],
        "pathsum.exact_average.self_s": layers["pathsum.exact_average"]["self_s"],
        "cli.self_s": layers["cli.main"]["self_s"],
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the lower median, so that counts stay whole numbers."""
    return {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}


def run_passes(runner: Runner, passes: dict[str, tuple], seconds: int) -> dict[str, list]:
    """Repeat every pass in turn until `seconds` have passed, at least once."""
    reps: dict[str, list] = {name: [] for name in passes}
    deadline = time.monotonic() + seconds
    while True:
        for name, (argv, spans) in passes.items():
            reps[name].append(runner.rep(argv, spans))
        if time.monotonic() >= deadline:
            return reps
        average_round = (time.monotonic() - runner.started) / len(reps[name])
        if runner.remaining() < 2 * average_round:
            return reps


def fans_out(argv: tuple[str, ...]) -> bool:
    return "--workers" in argv and argv[argv.index("--workers") + 1] != "1"


def one_worker(argv: tuple[str, ...]) -> tuple[str, ...]:
    index = argv.index("--workers")
    return argv[: index + 1] + ("1",) + argv[index + 2 :]


def end_to_end(workload: Workload, reps: list[dict]) -> dict[str, float]:
    """Medians over the run's repetitions."""
    wall_s = median(reps, "wall_s")
    return {
        "wall_s": wall_s,
        "walks_per_s": workload.walks / wall_s,
        "setup_s": median(reps, "setup_s"),
        "peak_rss_mb": median(reps, "peak_rss_mb"),
    }


def per_layer(workload: Workload, reps: dict[str, list]) -> tuple[dict, dict]:
    """Per-layer metrics and the median layer spans they came from."""
    spans_pass = reps.get("traced_1_worker", reps["traced"])
    timed = [rep for rep in spans_pass if "layers" in rep]
    metrics = medians([layer_metrics(rep) for rep in timed])
    layers = {
        name: medians([rep["layers"][name] for rep in timed])
        for name in timed[0]["layers"]
    }
    pool = [rep for rep in reps["traced"] if "layers" in rep]
    if "traced_1_worker" in reps:
        pool_s = statistics.median(rep["layers"]["stats.monte_carlo_average"]["s"] for rep in pool)
        metrics["stats.fanout.tasks"] = statistics.median_low(
            rep["counters"]["stats.fanout.tasks"] for rep in pool
        )
        metrics["stats.fanout.efficiency"] = metrics["stats.monte_carlo_average.s"] / (2 * pool_s)
    else:
        metrics["stats.fanout.tasks"] = 0
        metrics["stats.fanout.efficiency"] = 0.0
    untraced = median(reps["untraced"], "wall_s")
    metrics["trace.overhead_frac"] = (median(pool, "wall_s") - untraced) / untraced
    return metrics, layers


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    allocator_env = sorted(
        name for name in os.environ if name.startswith("MALLOC_") or name == "PYTHONMALLOC"
    )
    if allocator_env:
        print(f"refusing to record a run with {', '.join(allocator_env)} set", file=sys.stderr)
        return 3
    if not (ROOT / "src" / "dqwalk" / "cli.py").is_file():
        print(f"no dqwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / "bench" / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work)
    runner.warm_up()

    if args.trace:
        passes = {"untraced": (workload.argv, None), "traced": (workload.argv, work / "spans.npz")}
        if fans_out(workload.argv):
            passes["traced_1_worker"] = (one_worker(workload.argv), work / "spans_1_worker.npz")
    else:
        passes = {"untraced": (workload.argv, None)}
    reps = run_passes(runner, passes, args.seconds)

    every_rep = [rep for pass_reps in reps.values() for rep in pass_reps]
    failed = sum(rep["failure"] is not None for rep in every_rep)
    for name, pass_reps in reps.items():
        if not any("wall_s" in rep for rep in pass_reps):
            print(f"{name}: no repetition ran: {pass_reps[0]['failure']}", file=sys.stderr)
            return 1
    if args.trace:
        metrics, layers = per_layer(workload, reps)
    else:
        metrics, layers = end_to_end(workload, reps["untraced"]), None
    record = {
        "workload": args.workload,
        "argv": list(workload.argv),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "allocator_env": allocator_env,
        "failed_fraction": failed / len(every_rep),
        "reps": {
            name: [{key: rep.get(key) for key in ("setup_s", "wall_s", "peak_rss_mb", "failure")}
                   for rep in pass_reps]
            for name, pass_reps in reps.items()
        },
        "layers": layers,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every_rep),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
