"""Detector-agnostic construction, scoring and evaluation of action tubes.

The package turns per-frame action-region detections into scored,
pruned, temporally trimmed spatio-temporal tubes.  Import names from
the topic modules (model, geometry, fusion, tracker, scoring,
footprint, temporal, evaluation, synth, formats, config, pipeline,
cli), e.g. ``from actiontubes.evaluation import evaluate``.  The
package root re-exports nothing, so importing one module loads only
the modules it depends on; each CLI stage runs in its own process and
pays only for the modules it uses.
"""

__version__ = "0.1.0"
