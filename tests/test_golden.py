"""Golden digests of every record file the pipeline writes.

Performance work on the readers, writers and tracker must not move a
single output byte.  Each scenario runs all seven stages in-process on
a tiny input and compares the sha256 of its record files (ground
truth, detections, proposals, tubes, clip scores and metrics) against
digests recorded before that work began (see CHANGES.md).  A change that means
to alter these bytes must update the digests and justify it there.
The metrics are pinned under non-default evaluation keys too.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from actiontubes.cli import main
from actiontubes.pipeline import PIPELINE_ORDER
import scenario_digests

SCENARIOS = {
    "clean": {"synth.video_count": 2, "synth.frames_per_video": 16},
    # flow-pruned proposals, drift tubes and the footprint prune
    "noisy": {"synth.video_count": 3, "synth.frames_per_video": 24,
              "synth.actors_per_video": 3, "synth.jitter_sigma": 3,
              "synth.miss_rate": 0.1, "synth.false_positive_rate": 0.3,
              "synth.label_confusion": 0.1,
              "synth.duplicate_label_rate": 0.1, "synth.drift_rate": 0.5,
              "synth.with_flow": "true", "synth.match_noise": 1.0,
              "synth.span_fraction": 0.7},
    # the center-search baseline tracker on duplicated detections
    "crowd": {"track.baseline": "true", "synth.video_count": 2,
              "synth.frames_per_video": 16, "synth.actors_per_video": 4,
              "synth.num_classes": 4, "synth.jitter_sigma": 2,
              "synth.false_positive_rate": 0.5,
              "synth.duplicate_label_rate": 0.3,
              "synth.label_confusion": 0.1, "synth.miss_rate": 0.05,
              "synth.span_fraction": 0.8},
}

GOLDEN = {
    "clean": {
        "tubes_tracked.tsv": "561e0faffca99a26108fa78f0320fbb6"
                             "b94508b4ea1bc71465d0f1e5c3f1b671",
        "tubes_scored.tsv": "7ce122f8462d710405204115417a4f86"
                            "f97ef7bfb09312ea357c7d68834ef261",
        "tubes_pruned.tsv": "7ce122f8462d710405204115417a4f86"
                            "f97ef7bfb09312ea357c7d68834ef261",
        "tubes_final.tsv": "7ce122f8462d710405204115417a4f86"
                           "f97ef7bfb09312ea357c7d68834ef261",
        "clip_scores.tsv": "ca0a2fd1d55502fafa2e7675161b0be6"
                           "e379fd4c76a463e3feeadef10d05e3e6",
        "metrics.tsv": "672fe1372fb52140f4e7d96f45d94cf8"
                       "dca7b37c4ef36aa512b10613c17c9be6",
        "gt_tubes.tsv": "ef20bb9e7946944c0a91c490fbc77cd6"
                        "144a7a74c08f9f78aa7d0693d8834a71",
        "detections_static.tsv": "7d8c194ec5d318471a761d145af2f4d4"
                                 "73e222b05649cc037cc41659ae5ee6b5",
        "detections_flow.tsv": "07ad72d29dc17a14e0f0a46b940bf19f"
                               "a74c4645d6f87b88a8b6a5d062776a92",
        "detections_early.tsv": "e8cbe5c1f618d8997d3afc51e00474bc"
                                "3f7530636e3377b449265480335938b0",
        "detections_fused.tsv": "91f6c1dfee06cb10eadad81120e7652b"
                                "f16dcbbcb55901fb974bb986aabd6563",
        "proposals.tsv": "70f1746b083497aee8c02abfb2f24b58"
                         "01441e3b182c40b0c3b4a652a992bbf2",
    },
    "noisy": {
        "tubes_tracked.tsv": "9a616af9f3b149844321497f7a9c6037"
                             "8962de9a253247ca52f6ccc1d6ee1025",
        "tubes_scored.tsv": "ef204c52d3fba8edf06a795961c0d585"
                            "327da94e54684ff5755023b0a71b7a5d",
        "tubes_pruned.tsv": "c1af8b29eafb9c437fd017994e4bf899"
                            "b5a5555d2cdbee98cf49e533610dac9d",
        "tubes_final.tsv": "ff625a3c14112b5927376c7383f5d7c7"
                           "53c98931c721ad4f8e7df9e9558ae561",
        "clip_scores.tsv": "2e52ed341afeb9f5b614d785d69ea9da"
                           "01e02b8813625f0301dad7cb33a221ff",
        "metrics.tsv": "863b7e69b8bb301b6d67e240cf1eeb43"
                       "f7719a932778b42f7a86cf7a159cbc21",
        "gt_tubes.tsv": "3ae077e1201172c7f5fa035c1410e088"
                        "c3598a8e0e9df0dc0c4b3d2f4b8cb5e9",
        "detections_static.tsv": "79a6a2e83f55b4173338761168d6c50d"
                                 "ca27848a34ba9502afc8644200004c77",
        "detections_flow.tsv": "faba99a2a4964eceda20975f6c563616"
                               "36b1cec9e60c6127c750eff5da534fb6",
        "detections_early.tsv": "52679c1e2dfbfd03d8eceec4896f5563"
                                "282469dbdbd47f1c508d67794683c1a4",
        "detections_fused.tsv": "53cf60ff1c589ca9ff955bd57244fc60"
                                "3463c83ddd3ec48bf488ef812eae2f9c",
        "proposals.tsv": "faf46404eb23f74b0a3d9c27e637f534"
                         "3eac5ac9bc747ada3a9beccc6a9ce03d",
        "proposals_salient.tsv": "d844f3c4efaeed69990597d2dfd4a7be"
                                 "569db0a408c972e0e95e0bf57a1e23b6",
        "drift_tubes.tsv": "d80f7cf20037588cb8268653008ea201"
                           "b5a7149bea1504b761ea36ddc38545bf",
    },
    "crowd": {
        "tubes_tracked.tsv": "1b302bb0d36b21885e67f3a7f4ada9dd"
                             "89831f3ae06dcd8b3c0fa870bca5d849",
        "tubes_scored.tsv": "487be602de6bd15a24b04bd6e06a9273"
                            "e4ef730bf0d0c5736e4ad82376ef70de",
        "tubes_pruned.tsv": "35f64d9b6f4cbe714622587c1826ab8f"
                            "c80d0887c909cd53abee1c74e9062fe6",
        "tubes_final.tsv": "2a8bb58d17a39c07aaec4c5b90bf2128"
                           "bd438eafec3e5532250e73cb7d00b3a9",
        "clip_scores.tsv": "ead88b792c322784105218d3b21ee0b6"
                           "74d0c9e0cf0a92d0e692d710933478f5",
        "metrics.tsv": "54435815e69f5e1b4d8a3b5f81b88b17"
                       "90d11ee8237e14033b60c12789f18c03",
        "gt_tubes.tsv": "794f4ddf44884774035a9e77d4a49e88"
                        "cc7954e0f743defabfcebaddf0595042",
        "detections_static.tsv": "6c7b09bd648afe2fe429db7c81f3de1e"
                                 "90e0e7833e8beb4d6ec912199300e26e",
        "detections_flow.tsv": "8f56bf02da3b37f4c8d26b45e6450618"
                               "bb8ffd3005c3e223c56b347c32c771a8",
        "detections_early.tsv": "f61451f668a1c274c7482725e4ac4e6b"
                                "0bead360d7e62b34b5fa97e2b69a896a",
        "detections_fused.tsv": "c4ef6cfde4c1b05c078b83ca669ec945"
                                "646c73d2abbaf7897b03609dc689bbde",
        "proposals.tsv": "c5b68e960e3ba6dd647993c8be937af1"
                         "a5104525698ce06652c585a0e53c3fe6",
    },
}

# Keys the evaluate stage is re-run under; the taxonomy sigma is none of
# the sigmas, so the false-detection split matches at a threshold of
# its own.
EVAL_OVERRIDES = {"eval.sigmas": "0.1,0.3,0.7", "eval.taxonomy_sigma": 0.4,
                  "eval.recall_sigma": 0.25, "eval.taxonomy_floor": 0.05}

EVAL_GOLDEN = {
    "noisy": "236fc00d1f1579616d8a16768eedc994"
             "5a7fbbf50d42dc4d20b5a2b9951a61db",
    "crowd": "eecd2dc1781161800d561849db72a4c8"
             "513d89bc8113c11ed7410b8145412d6e",
}


def _run_stages(stages, out, settings) -> None:
    overrides = [arg for key, value in settings.items()
                 for arg in ("--stage-override", f"{key}={value}")]
    for stage in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([stage, "--out", str(out), *overrides]) == 0


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stage_outputs_match_golden_digests(name, tmp_path):
    _run_stages(PIPELINE_ORDER, tmp_path, SCENARIOS[name])
    digests = {file: _digest(tmp_path / file) for file in GOLDEN[name]}
    assert digests == GOLDEN[name]


# What numpy on a CPU without AVX-512 runs: every AVX-512 dispatch off.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

DISPATCH_CHILD = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from actiontubes.cli import main
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
print(json.dumps(__cpu_features__["X86_V4"]))
"""


def test_golden_digests_hold_with_the_avx512_dispatch_off(tmp_path,
                                                          child_env):
    """The same digests in a process whose numpy takes no AVX-512 path,
    as on a CPU without it: no pinned byte may follow the host's SIMD."""
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy runs no X86_V4 (AVX-512) dispatch here to "
                    "turn off: the other golden tests already run without it")
    runs = []
    for name, settings in sorted(SCENARIOS.items()):
        overrides = [arg for key, value in settings.items()
                     for arg in ("--stage-override", f"{key}={value}")]
        runs += [[stage, "--out", str(tmp_path / name), *overrides]
                 for stage in PIPELINE_ORDER]
    result = subprocess.run(
        [sys.executable, "-c", DISPATCH_CHILD, json.dumps(runs)],
        capture_output=True, text=True,
        env=dict(child_env, NPY_DISABLE_CPU_FEATURES=NO_AVX512))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) is False
    for name in SCENARIOS:
        digests = {file: _digest(tmp_path / name / file)
                   for file in GOLDEN[name]}
        assert digests == GOLDEN[name], name


@pytest.mark.parametrize("name", sorted(EVAL_GOLDEN))
def test_metrics_under_other_eval_keys_match_golden_digest(name, tmp_path):
    _run_stages(PIPELINE_ORDER, tmp_path, SCENARIOS[name])
    _run_stages(["evaluate"], tmp_path, {**SCENARIOS[name], **EVAL_OVERRIDES})
    assert _digest(tmp_path / "metrics.tsv") == EVAL_GOLDEN[name]


def test_recording_some_scenarios_keeps_the_other_digests(
        tmp_path, monkeypatch, capsys):
    """``scenario_digests.py --record --only`` replaces the named
    scenarios' digests and keeps the rest; an unknown name exits 2 with
    the known ones and records nothing."""
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"a:0": {"f": "old"}, "b:0": {"f": "old"}}))
    monkeypatch.setattr(scenario_digests, "DIGESTS", digests)
    monkeypatch.setattr(scenario_digests, "scenarios",
                        lambda: {"a:0": ["a"], "b:0": ["b"]})
    monkeypatch.setattr(scenario_digests, "digest_scenario",
                        lambda args: {"f": f"new {args[0]}"})
    assert scenario_digests.main(["--record", "--only", "b:0"]) == 0
    assert json.loads(digests.read_text()) == \
        {"a:0": {"f": "old"}, "b:0": {"f": "new b"}}
    with pytest.raises(SystemExit) as info:
        scenario_digests.main(["--record", "--only", "b:0", "c:9"])
    assert info.value.code == 2
    assert "unknown scenario c:9; known: a:0 b:0" in capsys.readouterr().err
    assert json.loads(digests.read_text())["b:0"] == {"f": "new b"}
