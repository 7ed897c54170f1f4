import json

import pytest

from facegroup.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "sim": {
            "n_albums": 3,
            "identities": [3, 4],
            "items_per_identity": [4, 6],
            "profile_fraction": 0.0,
            "noise_fraction": 0.0,
            "frontal_spread": 0.2,
            "seed": 5,
        },
        "policy": {"epsilon_decay_episodes": 6},
        "svm": {"c_reg": 10.0, "gamma": 3.0},
        "forest": {"n_trees": 10, "max_depth": 8},
        "train": {"refit_every": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_full_pipeline(tmp_path, small_config, capsys):
    data = str(tmp_path / "data.jsonl")
    model = str(tmp_path / "model.json")
    parts = str(tmp_path / "parts.jsonl")
    report = str(tmp_path / "report.json")

    assert run(["simulate", "--config", small_config, "--out", data]) == 0
    assert (tmp_path / "data.jsonl.meta.json").exists()

    assert run(
        ["train", "--data", data, "--out-model", model, "--stage", "both",
         "--config", small_config, "--seed", "3"]
    ) == 0
    assert (tmp_path / "model.json.svm.json").exists()

    assert run(["group", "--data", data, "--model", model, "--out-partitions", parts]) == 0
    assert run(["eval", "--data", data, "--partitions", parts, "--report", report,
                "--config", small_config]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["macro"]["f1"] > 0.8
    out = capsys.readouterr().out
    assert "macro" in out


def test_eval_on_ground_truth_partitions_is_perfect(tmp_path, small_config):
    from facegroup.bench import load_dataset, save_partitions
    from facegroup.core import ground_truth_partition

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    albums = load_dataset(data)
    parts = str(tmp_path / "gt.jsonl")
    save_partitions([(a, ground_truth_partition(a)) for a in albums], parts)
    report = str(tmp_path / "report.json")
    assert run(["eval", "--data", data, "--partitions", parts, "--report", report]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["macro"]["f1"] == 1.0
    assert doc["macro"]["op_norm"] == 0.0


def test_stage_q_requires_svm_model(tmp_path, small_config, capsys):
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    code = run(["train", "--data", data, "--out-model", str(tmp_path / "m.json"),
                "--stage", "q", "--config", small_config])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:invalid-argument:")
    assert "stage q requires --svm-model" in err


def test_missing_dataset_is_machine_parsable(tmp_path, capsys):
    code = run(["group", "--data", str(tmp_path / "nope.jsonl"),
                "--model", str(tmp_path / "m.json"),
                "--out-partitions", str(tmp_path / "p.jsonl")])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:missing-file:")


def test_dimension_mismatch_reported(tmp_path, small_config, capsys):
    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    bad_model = str(tmp_path / "bad.json")
    save_model(constant_svm(10, 0.5), PolicyConfig(), bad_model)
    code = run(["group", "--data", data, "--model", bad_model,
                "--out-partitions", str(tmp_path / "p.jsonl")])
    assert code != 0
    assert capsys.readouterr().err.startswith("error:dimension-mismatch:")


def test_eval_requires_exactly_one_source(tmp_path, small_config, capsys):
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    code = run(["eval", "--data", data, "--report", str(tmp_path / "r.json")])
    assert code != 0
    assert capsys.readouterr().err.startswith("error:invalid-argument:")


@pytest.mark.parametrize("policy_config", [{"bogus": 1}, {"costs": [1, 6]}])
def test_bad_policy_config_in_model_is_schema_mismatch(tmp_path, small_config, capsys,
                                                       policy_config):
    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    model = tmp_path / "m.json"
    save_model(constant_svm(22, 0.5), PolicyConfig(), str(model))
    doc = json.loads(model.read_text())
    doc["policy_config"].update(policy_config)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["group", "--data", data, "--model", str(model),
                "--out-partitions", str(tmp_path / "p.jsonl")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:schema-mismatch:")
