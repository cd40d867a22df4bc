"""Each CLI stage loads only the package modules it runs.

Every stage is its own process, so a module-level import in a driver or
in a module it needs is paid by every stage that loads it.  Each case
runs one stage in a fresh interpreter on a tiny scenario and compares
the ``actiontubes`` modules in ``sys.modules`` with the stage's set,
and whether numpy was loaded with whether the stage computes arrays.
"""

import json
import subprocess
import sys

import pytest

from actiontubes.cli import main
from actiontubes.pipeline import (FILE_ALPHAS, FILE_DRIFT, FILE_FLOW,
                                  FILE_SALIENT, PIPELINE_ORDER)

TINY = ("--stage-override", "synth.video_count=2",
        "--stage-override", "synth.frames_per_video=12",
        "--stage-override", "synth.with_footprint=false")

# What ``import actiontubes.cli`` loads: argument parsing, the key
# registry, the stage table and the file formats.
CLI = {"cli", "config", "errors", "formats", "model", "pipeline"}
# Every stage from synth to score checks the scenario's configuration,
# which lives with the simulated models in scenario; track and score
# query those models, which need neither the generator nor numpy.
SCENARIO = CLI | {"geometry", "scenario"}
LOADED = {
    "synth": SCENARIO | {"footprint", "scoring", "synth", "tracker"},
    "fuse": CLI | {"fusion", "geometry"},
    "track": SCENARIO | {"tracker"},
    "score": SCENARIO | {"scoring"},
    "prune": CLI | {"geometry"},
    "localize": CLI | {"temporal"},
    "evaluate": CLI | {"evaluation", "geometry"},
}
# Only synth, the generator, computes with arrays and loads numpy.  fuse
# reads its flow grids into ``array``s, track its point matches, score
# its weights and clip noise, and prune its footprint map as plain
# floats.
NUMPY = {"synth"}

CHILD = """
import json, sys
from actiontubes.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(name.split(".", 1)[1] for name in sys.modules
                               if name.startswith("actiontubes.")),
                  "numpy" in sys.modules]))
"""


def loaded_modules(env, *argv):
    """Exit code, ``actiontubes`` submodules and numpy flag of one child."""
    result = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    code, names, numpy = json.loads(result.stdout.splitlines()[-1])
    return code, set(names), numpy


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    for stage in PIPELINE_ORDER:
        assert main([stage, "--out", str(out), *TINY]) == 0
    return out


def test_cli_import_loads_only_the_front_end(child_env):
    assert loaded_modules(child_env) == (0, CLI, False)


@pytest.mark.parametrize("stage", PIPELINE_ORDER)
def test_stage_loads_only_what_it_runs(stage, scenario, child_env):
    assert loaded_modules(child_env, stage, "--out", scenario, *TINY) == \
        (0, LOADED[stage], stage in NUMPY)


def test_fuse_with_flow_runs_without_numpy(tmp_path, child_env):
    flow = ("--stage-override", "synth.with_flow=true")
    assert main(["synth", "--out", str(tmp_path), *TINY, *flow]) == 0
    assert (tmp_path / FILE_FLOW).exists()
    assert loaded_modules(child_env, "fuse", "--out", tmp_path, *TINY,
                          *flow) == (0, LOADED["fuse"], False)
    assert (tmp_path / FILE_SALIENT).exists()


def test_center_search_track_runs_without_numpy(tmp_path, child_env):
    baseline = ("--stage-override", "track.baseline=true")
    for stage in ("synth", "fuse"):
        assert main([stage, "--out", str(tmp_path), *TINY, *baseline]) == 0
    assert loaded_modules(child_env, "track", "--out", tmp_path, *TINY,
                          *baseline) == (0, LOADED["track"], False)


# four videos of two classes give the footprint statistics both classes
# in both halves
FOOTPRINT = ("--stage-override", "synth.video_count=4",
             "--stage-override", "synth.num_classes=2",
             "--stage-override", "synth.with_footprint=true")


def test_footprint_prune_runs_without_numpy(tmp_path, child_env):
    for stage in PIPELINE_ORDER[:PIPELINE_ORDER.index("prune")]:
        assert main([stage, "--out", str(tmp_path), *TINY, *FOOTPRINT]) == 0
    assert (tmp_path / FILE_ALPHAS).exists()
    assert loaded_modules(child_env, "prune", "--out", tmp_path, *TINY,
                          *FOOTPRINT) == (0, SCENARIO | {"footprint"}, False)


def test_score_of_drift_tubes_runs_without_numpy(tmp_path, child_env):
    drift = (*FOOTPRINT, "--stage-override", "synth.drift_rate=0.5")
    for stage in PIPELINE_ORDER[:PIPELINE_ORDER.index("score")]:
        assert main([stage, "--out", str(tmp_path), *TINY, *drift]) == 0
    assert (tmp_path / FILE_ALPHAS).exists()
    assert (tmp_path / FILE_DRIFT).exists()
    assert loaded_modules(child_env, "score", "--out", tmp_path, *TINY,
                          *drift) == (0, LOADED["score"], False)
