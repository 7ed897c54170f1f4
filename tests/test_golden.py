"""Golden artifacts of the criterion-10 pipeline.

Criterion 10 compares two runs of one tree, so it cannot see an artifact
that changes from one version of the code to the next. This test runs the
same CLI pipeline once and compares each artifact's sha256 with hashes
recorded on x86-64 Linux with numpy 2.4.6; float results can differ in the
last bit under another numpy or BLAS build, so the test runs only there.

A change that alters these artifacts on purpose updates the hashes below
and gives the reason in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from test_acceptance import PIPELINE_ARTIFACTS, PIPELINE_CONFIG, run_pipeline

GOLDEN = {
    "data.jsonl": "15611f61ecf86c7c30a6a7a454bf7b2e3ba66a79cca810cdcc21b70907475f3c",
    "model.json": "8b850dae0194985394fcf92a9948e17ae146aeeae8d94d5f571c9daa8a036921",
    "model.json.svm.json": "1606dc3163ae95e2e3d8ca18f99d95bfb1b30252b3744baeeb445907d6ad6977",
    "parts.jsonl": "790f2e5ab8d5eb3953558b47944b5828f69fb38dd73eb579056d5a8424e76dbd",
    "report.json": "d94c4339e453cea4bab29ca03223775c60763bcba50ff04eed276d5fca850fb7",
}


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="hashes recorded with numpy 2.4.6")
def test_pipeline_artifacts_match_golden_hashes(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))
    artifacts = run_pipeline(cfg_path, tmp_path / "run")
    assert set(artifacts) == set(PIPELINE_ARTIFACTS) == set(GOLDEN)
    found = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    changed = sorted(name for name in GOLDEN if found[name] != GOLDEN[name])
    assert not changed, f"artifacts differ from the golden hashes: {changed}"
