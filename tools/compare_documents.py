"""Check that the CLI writes byte-identical documents to those of a git revision.

Usage, from the root of a checkout:

    python3 tools/compare_documents.py REV

Runs a fixed grid of `dqwalk` invocations twice: on revision REV, checked
out into a temporary `git worktree`, and on the working tree.  Each
invocation leaves three files: its standard output, its standard error
and its exit code.  The script exits 1, naming every file whose bytes
differ, unless all of them are identical.

The grid:

* the benchmark workloads' arguments (`bench/run.py`) at seeds 0, 7 and
  2^64 - 1;
* `average` for every catalog ensemble x caseI/caseII x 1/2 workers, at
  trial counts one above and one below a multiple of the 1024-trial
  block that cross Monte Carlo run boundaries at n = 10;
* `variance --walker averaged` at 1 and 2 workers;
* `run` and `coeffs` for every catalog ensemble x caseI/caseII/0.6,0.8j,
  and `moments` for every catalog ensemble;
* `run` of mackay_uniform x caseII at n = 0 and `coeffs` of shapira x
  caseII at n = 1, at seed 2^64 - 1: a single realization's draws at
  their edges, no coin with a random state and one per-trial coin;
* `coeffs` at n = 200 and seed 7 of mackay_uniform x caseII, shapira x
  0.6,0.8j and ribeiro_two_point x caseI: the path-sum recursion's bits
  over a long walk of complex, Gaussian-phase and two-point coins;
* `average`, `run` and `coeffs` of ribeiro_two_point at xi = 0.2 and at
  xi = pi/2, whose second support angle is pi: the draws of a finite
  ensemble are derived from its support, and these pin them at two more
  support pairs (fixed_hadamard's, one coin, are in the `average` grid
  above at 1 and 2 workers);
* `moments` of shapira at 20000 draws, past the 16384 coins from which
  numpy elides temporaries, and of ribeiro_uniform at 1100000 draws,
  past 2^20;
* `moments` of mackay_uniform at 4095, 4097 and 12289 draws with seed
  2^32, a two-word master seed, and `average` of ribeiro_uniform with
  `--audit-draws 4097`: a `UniformDraw` audit computes its stream 4096
  draws at a time (`dqwalk.streams.MasterStream`), and these end one
  draw before, one after and a whole round past those boundaries;
* `average` of mackay_uniform x caseII at n = 320 with 1100 trials on 2
  workers (diagonal kernel sub-blocks, two runs, and the default audit
  running in the parent while the pool works) and of ribeiro_two_point x
  caseII at n = 63 with 2100 trials on 2 workers (a finite support's coin
  planes across three runs in a pool);
* the kernel's diagonal loop, which every Monte Carlo block takes,
  reached three more ways: `average` of shapira x caseII at n = 150,
  whose coins are per-trial rows and not `UniformDraw` planes; of
  ribeiro_uniform x 0.6,0.8j at n = 95 and 96 with 1030 trials on 2
  workers, partial diagonal sub-blocks; and `variance --walker averaged`
  at n = 10, 95, 96 and 200;
* `average` of mackay_uniform x caseII at n = 0 and n = 1 with 70000
  trials on 1 and 2 workers: zero- and one-step diagonal blocks, each
  over at least two runs;
* `exact` for fixed_hadamard in JSON and CSV at n = 12 and in JSON at
  n = 2000 (the one-coin walk at large n), and for ribeiro_two_point
  x caseI/0.6,0.8j at n = 14 and 15, caseI at n = 1 and 2 (0 and 1
  channel steps), 40 and 100, 0.6,0.8j at n = 60 and the default initial
  state at n = 24;
* `run` in CSV, and `variance --walker classical|hadamard`, the classical
  walker also at n = 0, 1, 1000 and 4096, whose variances are n exactly,
  and the hadamard walker also in JSON at n = 1, 64, 200 and 500, whose
  rows are the exact average of the one-coin ensemble;
* runs that take inputs from a `--config` file and from `DQW_SEED`,
  among them `run` and `exact` from configs whose `init` is written as a
  pair of `[re, im]` lists and as a pair of complex literals;
* the documented error exits: unknown ensemble, missing `n` or `trials`,
  `--workers 0`, `exact` of a continuous ensemble (exit 4) and
  `coeffs --n 0`, some of them with several errors at once;
* the initial-state error exits: `--init caseIII`, `--init 1,x` and a
  config whose `init` is a number.

A case's leading NAME=VALUE arguments are set in its environment, as in a
shell, and `--config NAME` reads `CONFIGS[NAME]`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOADS  # noqa: E402

SEEDS = (0, 7, 2**64 - 1)

INITS = ("caseI", "caseII", "0.6,0.8j")

#: The config files of the `--config` cases, by file name.
CONFIGS = {
    "config.json": {
        "ensemble": "shapira", "params": {"sigma": 0.3}, "init": "caseII", "n": 12, "seed": 5,
    },
    "init-pairs.json": {
        "ensemble": "ribeiro_two_point", "params": {"xi": 0.7854},
        "init": [[0.6, 0], [0, 0.8]], "n": 14,
    },
    "init-literals.json": {
        "ensemble": "ribeiro_two_point", "params": {"xi": 0.7854},
        "init": ["0.6", "0.8j"], "n": 14,
    },
    "init-number.json": {"init": 5, "n": 4},
}

ENSEMBLES = {
    "ribeiro_uniform": (),
    "ribeiro_two_point": ("--xi", "0.7854"),
    "mackay_uniform": (),
    "shapira": ("--sigma", "0.3"),
    "fixed_hadamard": (),
}


def grid() -> dict[str, tuple[str, ...]]:
    """{case name: dqwalk arguments} of every invocation compared."""
    cases = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            cases[f"{name}-seed{seed}"] = (*workload.argv, "--seed", str(seed))
    for ensemble, params in ENSEMBLES.items():
        for init in ("caseI", "caseII"):
            for workers in (1, 2):
                for trials in (5 * 1024 + 1, 11 * 1024 - 1):
                    cases[f"average-{ensemble}-{init}-w{workers}-t{trials}"] = (
                        "average", "--ensemble", ensemble, *params, "--init", init,
                        "--n", "10", "--trials", str(trials), "--workers", str(workers),
                        "--seed", str(2**64 - 1), "--audit-draws", "4096",
                    )
    for workers in (1, 2):
        cases[f"variance-averaged-w{workers}"] = (
            "variance", "--walker", "averaged", "--ensemble", "mackay_uniform",
            "--init", "caseII", "--n", "1,10,40", "--trials", "5121",
            "--workers", str(workers), "--seed", "7",
        )
    for ensemble, params in ENSEMBLES.items():
        for init in INITS:
            for command, n in (("run", "40"), ("coeffs", "12")):
                cases[f"{command}-{ensemble}-{init}"] = (
                    command, "--ensemble", ensemble, *params, "--init", init, "--n", n,
                    "--seed", str(2**64 - 1),
                )
        cases[f"moments-{ensemble}"] = (
            "moments", "--ensemble", ensemble, *params, "--draws", "5000", "--seed", "7",
        )
    cases["run-mackay_uniform-caseII-n0"] = (
        "run", "--ensemble", "mackay_uniform", "--init", "caseII", "--n", "0",
        "--seed", str(2**64 - 1),
    )
    cases["coeffs-shapira-caseII-n1"] = (
        "coeffs", "--ensemble", "shapira", *ENSEMBLES["shapira"], "--init", "caseII", "--n", "1",
        "--seed", str(2**64 - 1),
    )
    for ensemble, init in (
        ("mackay_uniform", "caseII"), ("shapira", "0.6,0.8j"), ("ribeiro_two_point", "caseI"),
    ):
        cases[f"coeffs-{ensemble}-{init}-n200"] = (
            "coeffs", "--ensemble", ensemble, *ENSEMBLES[ensemble], "--init", init,
            "--n", "200", "--seed", "7",
        )
    for xi in ("0.2", "1.5707963267948966"):
        two_point = ("--ensemble", "ribeiro_two_point", "--xi", xi, "--seed", "7")
        cases[f"average-ribeiro_two_point-xi{xi}"] = (
            "average", *two_point, "--init", "caseII", "--n", "10", "--trials", "5121",
            "--audit-draws", "4096",
        )
        cases[f"run-ribeiro_two_point-xi{xi}"] = (
            "run", *two_point, "--init", "caseII", "--n", "40",
        )
        cases[f"coeffs-ribeiro_two_point-xi{xi}"] = (
            "coeffs", *two_point, "--init", "caseII", "--n", "12",
        )
    cases["moments-shapira-d20000"] = (
        "moments", "--ensemble", "shapira", *ENSEMBLES["shapira"], "--draws", "20000",
        "--seed", "7",
    )
    cases["moments-ribeiro_uniform-d1100000"] = (
        "moments", "--ensemble", "ribeiro_uniform", "--draws", "1100000", "--seed", "7",
    )
    for draws in ("4095", "4097", "12289"):
        cases[f"moments-mackay_uniform-d{draws}"] = (
            "moments", "--ensemble", "mackay_uniform", "--draws", draws, "--seed", str(2**32),
        )
    # 51-trial kernel sub-blocks, two runs and the audit overlapping the pool;
    # and a finite support's coin planes across three runs in a pool.
    cases["average-mackay_uniform-n320-w2"] = (
        "average", "--ensemble", "mackay_uniform", "--init", "caseII", "--n", "320",
        "--trials", "1100", "--workers", "2",
    )
    cases["average-ribeiro_two_point-n63-w2"] = (
        "average", "--ensemble", "ribeiro_two_point", *ENSEMBLES["ribeiro_two_point"],
        "--init", "caseII", "--n", "63", "--trials", "2100", "--workers", "2",
    )
    cases["average-shapira-caseII-n150"] = (
        "average", "--ensemble", "shapira", *ENSEMBLES["shapira"], "--init", "caseII",
        "--n", "150", "--trials", "300", "--seed", "7",
    )
    for n in ("95", "96"):
        cases[f"average-ribeiro_uniform-0.6,0.8j-n{n}-w2"] = (
            "average", "--ensemble", "ribeiro_uniform", "--init", "0.6,0.8j", "--n", n,
            "--trials", "1030", "--workers", "2", "--seed", "7",
        )
    cases["variance-averaged-n10-200"] = (
        "variance", "--walker", "averaged", "--ensemble", "mackay_uniform", "--init", "caseII",
        "--n", "10,95,96,200", "--trials", "300", "--seed", "7",
    )
    for n in ("0", "1"):
        for workers in ("1", "2"):
            cases[f"average-mackay_uniform-caseII-n{n}-w{workers}"] = (
                "average", "--ensemble", "mackay_uniform", "--init", "caseII", "--n", n,
                "--trials", "70000", "--workers", workers, "--seed", "7",
            )
    cases["average-ribeiro_uniform-audit4097"] = (
        "average", "--ensemble", "ribeiro_uniform", "--n", "10", "--trials", "2000",
        "--audit-draws", "4097", "--seed", "7",
    )
    for init in ("caseI", "0.6,0.8j"):
        for n in ("14", "15"):
            cases[f"exact-ribeiro_two_point-{init}-n{n}"] = (
                "exact", "--ensemble", "ribeiro_two_point", *ENSEMBLES["ribeiro_two_point"],
                "--init", init, "--n", n,
            )
    for init, n in (
        ("caseI", "1"), ("caseI", "2"), ("caseI", "40"), ("caseI", "100"), ("0.6,0.8j", "60"),
    ):
        cases[f"exact-ribeiro_two_point-{init}-n{n}"] = (
            "exact", "--ensemble", "ribeiro_two_point", *ENSEMBLES["ribeiro_two_point"],
            "--init", init, "--n", n,
        )
    exact = ("exact", "--ensemble", "fixed_hadamard", "--init", "1,0", "--n", "12")
    cases.update({
        "exact-fixed_hadamard": exact,
        "exact-fixed_hadamard-csv": (*exact, "--format", "csv"),
        "exact-fixed_hadamard-n2000": (*exact[:-1], "2000"),
        "run-csv": ("run", "--ensemble", "mackay_uniform", "--init", "caseII", "--n", "9",
                    "--format", "csv"),
        "variance-classical": ("variance", "--walker", "classical", "--n", "10..100:10"),
        "variance-classical-large-n": ("variance", "--walker", "classical",
                                       "--n", "0,1,1000,4096"),
        "variance-hadamard": ("variance", "--walker", "hadamard", "--init", "1,0",
                              "--n", "1,5,20", "--format", "csv"),
        "variance-hadamard-large-n": ("variance", "--walker", "hadamard",
                                      "--n", "1,64,200,500"),
        "config-run": ("run", "--config", "config.json"),
        "config-average": ("average", "--config", "config.json", "--init", "caseI",
                           "--trials", "3000", "--audit-draws", "1000"),
        "config-run-init-pairs": ("run", "--config", "init-pairs.json"),
        "config-exact-init-pairs": ("exact", "--config", "init-pairs.json"),
        "config-run-init-literals": ("run", "--config", "init-literals.json"),
        "config-exact-init-literals": ("exact", "--config", "init-literals.json"),
        "env-seed-run": ("DQW_SEED=11", "run", "--ensemble", "mackay_uniform",
                         "--init", "caseII", "--n", "30"),
        "env-seed-coeffs": ("DQW_SEED=11", "coeffs", "--n", "6"),
        "env-seed-overridden": ("DQW_SEED=11", "run", "--n", "6", "--seed", "3"),
        "error-unknown-ensemble": ("run", "--ensemble", "bogus", "--n", "2"),
        "error-unknown-ensemble-no-n": ("run", "--ensemble", "bogus", "--init", "nonsense"),
        "error-missing-n": ("run", "--ensemble", "fixed_hadamard"),
        "error-missing-trials": ("average", "--n", "4"),
        "error-missing-trials-workers-0": ("average", "--n", "4", "--workers", "0"),
        "error-workers-0": ("average", "--n", "4", "--trials", "10", "--workers", "0"),
        "error-variance-workers-0": ("variance", "--walker", "averaged", "--n", "4",
                                     "--trials", "10", "--workers", "0"),
        "error-exact-continuous": ("exact", "--ensemble", "mackay_uniform", "--n", "4"),
        "exact-ribeiro_two_point-n24": ("exact", "--ensemble", "ribeiro_two_point",
                                        "--xi", "0.7854", "--n", "24"),
        "error-coeffs-n-0": ("coeffs", "--n", "0"),
        "error-init-caseIII": ("run", "--init", "caseIII", "--n", "2"),
        "error-init-unparsable": ("run", "--init", "1,x", "--n", "2"),
        "error-init-number": ("run", "--config", "init-number.json"),
    })
    return cases


def write_documents(src: Path, out: Path) -> None:
    """Run every case on the package in `src`; write its three files to `out`.

    Cases run in `out`'s parent directory, next to the config files.
    """
    out.mkdir()
    for name, config in CONFIGS.items():
        (out.parent / name).write_text(json.dumps(config))
    base_env = {key: value for key, value in os.environ.items() if key != "DQW_SEED"}
    base_env["PYTHONPATH"] = str(src)
    for name, argv in grid().items():
        env = dict(base_env)
        while "=" in argv[0]:
            key, _, value = argv[0].partition("=")
            env[key] = value
            argv = argv[1:]
        done = subprocess.run(
            [sys.executable, "-m", "dqwalk.cli", *argv],
            env=env, capture_output=True, cwd=out.parent,
        )
        (out / f"{name}.out").write_bytes(done.stdout)
        (out / f"{name}.err").write_bytes(done.stderr)
        (out / f"{name}.code").write_text(f"{done.returncode}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(base), args.rev],
            check=True,
        )
        try:
            write_documents(base / "src", tmp / "before")
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=True
            )
        write_documents(ROOT / "src", tmp / "after")
        names = sorted(path.name for path in (tmp / "before").iterdir())
        differ = [
            name for name in names
            if (tmp / "before" / name).read_bytes() != (tmp / "after" / name).read_bytes()
        ]
    for name in differ:
        print(f"differs from {args.rev}: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} files identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
