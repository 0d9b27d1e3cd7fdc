"""Outside-in tracing of one dqwalk CLI run.

`install` replaces, from outside the package, the names that dqwalk
modules call across module boundaries with wrappers that record a span
and call straight through to the original.  A traced run therefore
computes exactly what an untraced one does; only the clock reads and the
span bookkeeping are added.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written once, when the run ends.  `summarise` turns them into per-layer
call counts, total time and self time, where a span's self time is its
duration minus the part its child spans cover.

Spans recorded in pool worker processes stay in those processes, so a
run that fans out sees only the spans of its parent process.
"""

from __future__ import annotations

import functools
import resource
from array import array
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

#: Span names, one per wrapped boundary; the prefix is the layer (module).
SPAN_NAMES = (
    "cli.main",
    "stats.monte_carlo_average",
    "stats.mc_block",
    "streams.substream",
    "ensembles.sample_batch",
    "ensembles.draw_batch",
    "ensembles.audit_moments",
    "engine.evolve_block",
    "engine.check_norms",
    "pathsum.exact_average",
)

#: Counters recorded at the same boundaries, summed over the run.
COUNTER_NAMES = (
    "engine.site_updates",
    "engine.bytes_computed",
    "engine.minor_faults",
    "pathsum.sequences",
    "stats.fanout.tasks",
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.code = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = [-1]

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] += value

    def wrap(self, name: str, fn):
        """`fn` wrapped so that every call records one span called `name`."""
        code = SPAN_NAMES.index(name)
        codes, starts, ends, parents, stack = (
            self.code, self.start, self.end, self.parent, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            code=np.frombuffer(self.code, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _kernel(tracer: Tracer, fn, enumerates: bool):
    """Kernel wrapper adding work counts computed from the input shapes.

    A call on `abcd` of shape (trials, n, 4) updates n(n+3)/2 sites per
    trial: step j writes the j+1 sites reachable after it.  Its computed
    amplitude traffic reads both complex components before each step and
    writes both after it, 32 * trials * n * (n+2) bytes; temporaries the
    kernel allocates on top are not counted.  Minor page faults are a
    getrusage delta around the call.
    """

    def kernel(abcd, initial):
        trials, n = abcd.shape[0], abcd.shape[1]
        tracer.add("engine.site_updates", trials * n * (n + 3) // 2)
        tracer.add("engine.bytes_computed", 32 * trials * n * (n + 2))
        if enumerates:
            tracer.add("pathsum.sequences", trials)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        probs = fn(abcd, initial)
        tracer.add(
            "engine.minor_faults",
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
        )
        return probs

    return kernel


def install(tracer: Tracer):
    """Wrap every cross-module call of dqwalk; return the traced `cli.main`."""
    from dqwalk import cli, pathsum, stats
    from dqwalk.ensembles import CoinEnsemble, InitialStateRule

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tracer.add("stats.fanout.tasks", 1)
            return super().submit(fn, *args, **kwargs)

    stats.ProcessPoolExecutor = CountingPool
    stats.substream = tracer.wrap("streams.substream", stats.substream)
    stats._mc_block = tracer.wrap("stats.mc_block", stats._mc_block)
    stats._evolve_block = tracer.wrap(
        "engine.evolve_block", _kernel(tracer, stats._evolve_block, enumerates=False)
    )
    stats._check_block_norms = tracer.wrap("engine.check_norms", stats._check_block_norms)
    pathsum._evolve_block = tracer.wrap(
        "engine.evolve_block", _kernel(tracer, pathsum._evolve_block, enumerates=True)
    )
    pathsum._check_block_norms = tracer.wrap("engine.check_norms", pathsum._check_block_norms)
    CoinEnsemble.sample_batch = tracer.wrap("ensembles.sample_batch", CoinEnsemble.sample_batch)
    InitialStateRule.draw_batch = tracer.wrap("ensembles.draw_batch", InitialStateRule.draw_batch)
    cli.audit_moments = tracer.wrap("ensembles.audit_moments", cli.audit_moments)
    cli.monte_carlo_average = tracer.wrap("stats.monte_carlo_average", cli.monte_carlo_average)
    cli.exact_average = tracer.wrap("pathsum.exact_average", cli.exact_average)
    return tracer.wrap("cli.main", cli.main)


def summarise(path: str) -> dict[str, dict[str, float]]:
    """{span name: {"calls", "s", "self_s"}} from a saved span file."""
    with np.load(path) as spans:
        code, parent = spans["code"], spans["parent"]
        duration = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = duration - covered
    layers = {}
    for index, name in enumerate(SPAN_NAMES):
        mask = code == index
        layers[name] = {
            "calls": int(mask.sum()),
            "s": float(duration[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    return layers
