"""The CLI's per-clip analysis against recorded values (tests/golden/).

C9 compares two runs of the same code; this compares the analysis with a
reference recorded once, so a change to an attribute's definition or to
the spectral features fails here.  rtol=1e-9 sits far above the FFT's
last-bit drift between numpy builds and far below the smallest definition
change it must catch (spectral stds with ddof=1 move by about 1.7%).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")


def load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_analysis", GOLDEN_DIR / "record_analysis.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def analysed(tmp_path_factory):
    return load_recorder().analyse(tmp_path_factory.mktemp("golden"))


def test_golden_clips_cover_each_condition_cause_and_length():
    recorder = load_recorder()
    conditions, causes = recorder.default_benchmark_specs()
    plan = recorder.clip_plan()
    for seconds in recorder.DURATIONS:
        at = [(cond.condition_id, cause and cause.cause_id) for _, cond, cause, s in plan
              if s == seconds]
        assert {c for c, _ in at} == {c.condition_id for c in conditions}
        assert {q for _, q in at} == {None} | {q.cause_id for q in causes}


@pytest.mark.parametrize("kind", ["timbre", "spectral"])
def test_analysis_matches_the_recorded_values(analysed, kind):
    recorded = json.loads((GOLDEN_DIR / "analysis.json").read_text())
    assert list(analysed) == list(recorded)
    for clip_id, values in recorded.items():
        np.testing.assert_allclose(analysed[clip_id][kind], values[kind], rtol=1e-9, atol=0,
                                   err_msg=f"{clip_id} {kind}")
