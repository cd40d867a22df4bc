"""sha256 of every file the benchmark scenarios write.

Usage:
    python tests/scenario_digests.py [--record] [--only WORKLOAD:SEED ...]

Runs ``actiontubes pipeline`` from this checkout's ``src`` on each
benchmark scenario, one at a time, in a fresh temporary directory,
hashes every file it wrote and removes the directory.  The scenarios
are the synth seeds one benchmark seed (0) stands for on each workload
of ``perfbench/workloads.json``, with that workload's overrides:
clean-12 seeds 0-3, noisy-6 0-4 and crowd-12 0-3.

Without ``--record`` the digests are compared with
``scenario_digests.json`` beside this file; every file that differs,
is missing or is new is printed, and the exit code is 1 if any did.
With ``--record`` the digests are written there instead.  ``--only``
limits the run to the named scenarios.  A noisy-6 scenario needs about
400 MB of temporary space.  Not a pytest module: the 13 scenarios take
about a minute.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.json"
DIGESTS = Path(__file__).resolve().parent / "scenario_digests.json"


def scenarios() -> dict[str, list[str]]:
    """``workload:seed`` -> the CLI arguments of that scenario."""
    spec = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"]
    out = {}
    for name, workload in spec.items():
        overrides = [arg for key, value in workload["overrides"].items()
                     for arg in ("--stage-override", f"{key}={value}")]
        for seed in range(workload["scenarios"]):
            out[f"{name}:{seed}"] = ["--seed", str(seed), *overrides]
    return out


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_scenario(args: list[str]) -> dict[str, str]:
    """File name -> sha256 of everything one pipeline run writes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, "-m", "actiontubes.cli", "pipeline",
             "--out", out, *args],
            check=True, stdout=subprocess.DEVNULL, env=env)
        return {path.name: sha256(path)
                for path in sorted(Path(out).iterdir())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--only", nargs="+", metavar="WORKLOAD:SEED")
    options = parser.parse_args(argv)
    every = scenarios()
    names = options.only or list(every)
    found = {name: digest_scenario(every[name]) for name in names}
    if options.record:
        DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
        print(f"recorded {sum(map(len, found.values()))} files of "
              f"{len(found)} scenarios")
        return 0
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    differ = 0
    for name in names:
        want, got = expected.get(name, {}), found[name]
        for file in sorted(set(want) | set(got)):
            if want.get(file) != got.get(file):
                state = ("missing" if file not in got
                         else "new" if file not in want else "differs")
                print(f"{name} {file}: {state}")
                differ += 1
    checked = sum(map(len, found.values()))
    print(f"{checked} files of {len(found)} scenarios checked, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
