"""Each CLI stage loads only the package modules it runs.

Every stage is its own process, so a module-level import in a driver or
in a module it needs is paid by every stage that loads it.  Each case
runs one stage in a fresh interpreter on a tiny scenario and compares
the ``actiontubes`` modules in ``sys.modules`` with the stage's set.
"""

import json
import subprocess
import sys

import pytest

from actiontubes.cli import main
from actiontubes.pipeline import PIPELINE_ORDER

TINY = ("--stage-override", "synth.video_count=2",
        "--stage-override", "synth.frames_per_video=12",
        "--stage-override", "synth.with_footprint=false")

# What ``import actiontubes.cli`` loads: argument parsing, the key
# registry, the stage table and the file formats.
CLI = {"cli", "config", "errors", "formats", "model", "pipeline"}
# synth builds the matches, features, scorer weights and footprint
# inputs; track and score query its synthetic scorers.
SYNTH = CLI | {"footprint", "geometry", "scoring", "synth", "tracker"}
LOADED = {
    "synth": SYNTH,
    "fuse": CLI | {"fusion", "geometry"},
    "track": SYNTH,
    "score": SYNTH,
    "prune": CLI | {"footprint", "geometry", "scoring"},
    "localize": CLI | {"temporal"},
    "evaluate": CLI | {"evaluation", "geometry", "scoring"},
}

CHILD = """
import json, sys
from actiontubes.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(name.split(".", 1)[1] for name in sys.modules
                               if name.startswith("actiontubes."))]))
"""


def loaded_modules(env, *argv):
    """Exit code and ``actiontubes`` submodules of one fresh child."""
    result = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    code, names = json.loads(result.stdout.splitlines()[-1])
    return code, set(names)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    for stage in PIPELINE_ORDER:
        assert main([stage, "--out", str(out), *TINY]) == 0
    return out


def test_cli_import_loads_only_the_front_end(child_env):
    assert loaded_modules(child_env) == (0, CLI)


@pytest.mark.parametrize("stage", PIPELINE_ORDER)
def test_stage_loads_only_what_it_runs(stage, scenario, child_env):
    assert loaded_modules(child_env, stage, "--out", scenario, *TINY) == \
        (0, LOADED[stage])
