"""Run the steps of the CI workflow on this machine, without a network.

    python tools/ci_offline.py [--rev REV] [--keep DIR]

The steps run in a `git archive` of REV (default HEAD), so uncommitted
edits take no part. The workflow, `.github/workflows/tests.yml`, is read
from that archive with PyYAML. Its `uses:` steps and its `pip install`
step are skipped; every other `run:` block runs in bash, in order, in the
archive's root, with `python`, `python3` and `simulate` bound to this
interpreter and `python -m comp_noma`, and with the package imported from
the archive's `src/`. Each step prints PASS or FAIL and its seconds; a
failing step also prints the end of its output. Unlike a runner, it goes
on after a failing step, so a step that reads an earlier one's files may
fail with it. The exit status is 1 when any step fails. With --keep the archive, and every file the steps write
into it, stays in DIR, which must not exist yet.
"""

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = Path(".github", "workflows", "tests.yml")


def prelude():
    """Bash functions that stand in for the installed console script and
    the runner's interpreter."""
    python = shlex.quote(sys.executable)
    return (f"python() {{ {python} \"$@\"; }}\n"
            f"python3() {{ {python} \"$@\"; }}\n"
            f"simulate() {{ {python} -m comp_noma \"$@\"; }}\n")


def run_steps(checkout):
    """Run the workflow's steps in checkout; True when every one passed."""
    workflow = yaml.safe_load((checkout / WORKFLOW).read_text())
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    passed = True
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            name = step.get("name", step.get("uses", step.get("run")))
            if "uses" in step or "pip install" in step["run"]:
                print(f"SKIP          {name}", flush=True)
                continue
            # the runner's bash flags: `shell: bash` adds pipefail
            flags = ["-eo", "pipefail"] if step.get("shell") == "bash" \
                else ["-e"]
            start = time.perf_counter()
            result = subprocess.run(
                ["bash", "--noprofile", "--norc", *flags, "-c",
                 prelude() + step["run"]],
                cwd=checkout, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            seconds = time.perf_counter() - start
            ok = result.returncode == 0
            passed &= ok
            print(f"{'PASS' if ok else 'FAIL'} {seconds:7.1f} s  {name}",
                  flush=True)
            if not ok:
                print("".join(result.stdout.splitlines(True)[-40:]),
                      flush=True)
    return passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD",
                        help="the revision to archive (default HEAD)")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="archive into DIR, a new directory, and keep it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ci-offline-") as scratch:
        checkout = Path(scratch)
        if args.keep is not None:
            checkout = args.keep
            checkout.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive,
                       check=True)
        print(f"{args.rev} archived into {checkout}", flush=True)
        return 0 if run_steps(checkout.resolve()) else 1


if __name__ == "__main__":
    sys.exit(main())
