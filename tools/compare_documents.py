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
* `variance --walker averaged` at 1 and 2 workers.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOADS  # noqa: E402

SEEDS = (0, 7, 2**64 - 1)

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
    return cases


def write_documents(src: Path, out: Path) -> None:
    """Run every case on the package in `src`; write its three files to `out`."""
    out.mkdir()
    env = {key: value for key, value in os.environ.items() if key != "DQW_SEED"}
    env["PYTHONPATH"] = str(src)
    for name, argv in grid().items():
        done = subprocess.run(
            [sys.executable, "-m", "dqwalk.cli", *argv], env=env, capture_output=True
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
