"""Check that this checkout gives the same outputs, byte for byte, as a
git revision.

    python3 tools/same_outputs.py <rev>

``<rev>`` is checked out into a temporary directory with ``git worktree``
and removed at the end.  On that tree and on this one (its working files,
uncommitted changes included) the script runs, one process at a time:

- demos 01-04, demo 04 at 2 000 cascades, each from an empty directory:
  what each prints, and the ``hub30_scatter.csv`` that demo 04 writes;
- ``pytest -s tests/test_acceptance.py``: its ``ACCEPTANCE`` lines;
- one short ``bench/run.py --trace 0`` run of each workload that this
  checkout's ``BENCHMARK.json`` names, at seed ``BENCH_SEED`` for
  ``BENCH_SECONDS`` seconds: the ``observed_sha256`` of every setup and
  the ``couplings_sha256`` of every fit in the run's record.  A record
  that ``bench/out/`` already held at that name is moved aside for the
  run and put back after it, so the tree's ``bench/out/`` is left as it
  was.

It prints each output that differs, with a diff of its text, and exits 1
if any output differs, 2 if a run fails and 0 if all outputs agree.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = re.compile(r"ACCEPTANCE \d+:.*")
DEMO_CASCADES = {"04": "2000"}   # demo 04's cascade count, its first argument
BENCH_SEED = 1                   # seed of each bench run
BENCH_SECONDS = 5                # length of each bench run
DIFF_LINES = 40                  # of each output that differs, printed


class RunFailed(Exception):
    pass


def _run(argv: list[str], cwd: Path, root: Path) -> str:
    """The standard output of ``argv`` run in ``cwd`` on the package of
    ``root``; a nonzero exit is a :class:`RunFailed`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RunFailed(f"{' '.join(argv)} in {cwd} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def _bench_hashes(root: Path, name: str) -> tuple[str, str]:
    """The sorted ``observed_sha256`` and ``couplings_sha256`` lines of one
    short bench run of workload ``name`` on ``root``, whose ``bench/out/``
    is left as it was."""
    record = root / "bench" / "out" / f"{name}-seed{BENCH_SEED}-trace0.json"
    kept = record.with_name(record.name + ".same-outputs")
    if record.exists():
        record.replace(kept)
    try:
        printed = _run([sys.executable, "bench/run.py", "--workload", name, "--seed", str(BENCH_SEED),
                        "--seconds", str(BENCH_SECONDS), "--trace", "0"], root, root)
        *_, head, result = printed.splitlines()
        if json.loads(result)["failed"]:
            raise RunFailed(f"bench/run.py --workload {name} in {root}: {result}")
        reps = json.loads((root / json.loads(head)["record"]).read_text(encoding="utf-8"))["repetitions"]
    finally:
        record.unlink(missing_ok=True)
        if kept.exists():
            kept.replace(record)
    observed = {rep["setup"]["observed_sha256"] for rep in reps if rep["setup"] is not None}
    couplings = {rep["fit"]["eval"]["couplings_sha256"] for rep in reps}
    return "".join(f"{h}\n" for h in sorted(observed)), "".join(f"{h}\n" for h in sorted(couplings))


def outputs(root: Path, work: Path, workloads: list[str]) -> dict[str, str]:
    """Every output of one tree, by name, as text."""
    out = {}
    for demo in sorted((root / "demos").glob("0[1-4]_*.py")):
        cwd = work / demo.stem
        cwd.mkdir(parents=True)
        args = [DEMO_CASCADES[demo.name[:2]]] if demo.name[:2] in DEMO_CASCADES else []
        out[f"{demo.name} printout"] = _run([sys.executable, str(demo), *args], cwd, root)
        for written in sorted(cwd.iterdir()):
            out[f"{demo.name} {written.name}"] = written.read_text(encoding="utf-8")
    printed = _run([sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
                   root, root)
    lines = [match.group(0) for match in map(ACCEPTANCE.search, printed.splitlines()) if match]
    out["ACCEPTANCE lines"] = "".join(f"{line}\n" for line in lines)
    for name in workloads:
        out[f"bench {name} observed_sha256"], out[f"bench {name} couplings_sha256"] = _bench_hashes(root, name)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare with")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    tmp = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    base = tmp / "base"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(base), args.rev], check=True)
    try:
        sides = {}
        for label, root, work in ((args.rev, base, "base-work"), ("this checkout", ROOT, "work")):
            print(f"running {label} ...", flush=True)
            sides[label] = outputs(root, tmp / work, workloads)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    before, after = sides.values()
    differ = 0
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a == b:
            print(f"same: {name} ({len(a.splitlines())} lines)")
            continue
        differ += 1
        print(f"DIFFERS: {name}")
        if a is None or b is None:
            print(f"  only in {args.rev if b is None else 'this checkout'}")
            continue
        diff = list(difflib.unified_diff(a.splitlines(True), b.splitlines(True), args.rev, "this checkout", n=1))
        sys.stdout.writelines(diff[:DIFF_LINES])
        if len(diff) > DIFF_LINES:
            print(f"  ... and {len(diff) - DIFF_LINES} more lines of diff")
    count = len(before.get("ACCEPTANCE lines", "").splitlines())
    print(f"{differ} of {len(before.keys() | after.keys())} outputs differ; {count} ACCEPTANCE lines at {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
