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


@pytest.mark.parametrize("command", ["eval", "train"])
def test_dimension_mismatch_of_sweep_model_and_stage_q_svm(tmp_path, small_config, capsys,
                                                           command):
    """A cost-sweep model and the stage-q SVM are checked against the
    configuration as the grouped model is."""
    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm

    data, good, bad = (str(tmp_path / name) for name in ("data.jsonl", "good.json", "bad.json"))
    run(["simulate", "--config", small_config, "--out", data])
    save_model(constant_svm(22, 1.0), PolicyConfig(), good)
    save_model(constant_svm(10, 0.5), PolicyConfig(), bad)
    argv = {
        "eval": ["eval", "--data", data, "--model", good, "--report", str(tmp_path / "r.json"),
                 "--cost-sweep", f"bad={bad}"],
        "train": ["train", "--data", data, "--out-model", str(tmp_path / "m.json"),
                  "--stage", "q", "--svm-model", bad, "--config", small_config],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:dimension-mismatch:"), err


def test_cost_sweep_scores_each_model_in_argument_order(tmp_path, small_config, capsys):
    """Each ``--cost-sweep`` model gets one report row, its ``evaluate``
    macro scores under the grouped model's configuration, in argument
    order; the table prints a sweep header and one row per model."""
    from facegroup.bench import evaluate, load_dataset, save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm, random_svm

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    config = PolicyConfig()
    models = {"merge": constant_svm(22, 1.0), "random": random_svm(22, seed=1),
              "apart": constant_svm(22, -1.0)}
    sweep = []
    for name, model in models.items():
        save_model(model, config, str(tmp_path / f"{name}.json"))
        sweep += ["--cost-sweep", f"{name}={tmp_path / name}.json"]
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", "--data", data, "--model", str(tmp_path / "random.json"),
                "--report", str(report)] + sweep) == 0
    albums = load_dataset(data)
    assert json.loads(report.read_text())["sweep"] == [
        {"name": name, **evaluate(albums, model, config)["macro"]}
        for name, model in models.items()
    ]
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(f"{'sweep':<14} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7} {'Op':>7}")
    assert [line.split()[0] for line in lines[header + 1:]] == list(models)


def test_eval_requires_exactly_one_source(tmp_path, small_config, capsys):
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    code = run(["eval", "--data", data, "--report", str(tmp_path / "r.json")])
    assert code != 0
    assert capsys.readouterr().err.startswith("error:invalid-argument:")


@pytest.mark.parametrize(
    "policy_config",
    [
        {"bogus": 1},
        {"costs": [1, 6]},
        pytest.param({"eta": 2.5}, id="eta-float"),
        pytest.param({"eta": True}, id="eta-bool"),
        pytest.param({"use_quality": "no"}, id="use_quality-string"),
        pytest.param({"k_steps": 1.0}, id="k_steps-float"),
        pytest.param({"epsilon_decay_episodes": -3}, id="epsilon_decay_episodes--3"),
    ],
)
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


@pytest.mark.parametrize(
    "key, value",
    [("n_trees", "40"), ("n_trees", 2.5), ("seed", True), ("always_include", [22.0]),
     ("dim", 23.9), ("dim", "23")],
)
def test_bad_forest_hyper_in_model_is_schema_mismatch(tmp_path, small_config, capsys,
                                                      key, value):
    import numpy as np

    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import ForestHyper, forest_fit

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    rng = np.random.Generator(np.random.PCG64(0))
    forest = forest_fit(rng.random((40, 23)), rng.random(40), ForestHyper(n_trees=2))
    model = tmp_path / "m.json"
    save_model(forest, PolicyConfig(), str(model))
    doc = json.loads(model.read_text())
    doc[key] = value
    model.write_text(json.dumps(doc))
    expect_schema_mismatch(
        ["group", "--data", data, "--model", str(model),
         "--out-partitions", str(tmp_path / "p.jsonl")],
        capsys,
    )


@pytest.mark.parametrize(
    "key, value", [("gamma", "3"), ("gamma", True), ("bias", "0.5"), ("c_reg", True)]
)
def test_svm_scalar_of_another_json_type_is_schema_mismatch(tmp_path, small_config, capsys,
                                                            key, value):
    # a string or a boolean is not a number, as in a config file
    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    model = tmp_path / "m.json"
    save_model(constant_svm(22, 0.5), PolicyConfig(), str(model))
    doc = json.loads(model.read_text())
    doc[key] = value
    model.write_text(json.dumps(doc))
    expect_schema_mismatch(
        ["group", "--data", data, "--model", str(model),
         "--out-partitions", str(tmp_path / "p.jsonl")],
        capsys,
    )


def expect_schema_mismatch(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:schema-mismatch:"), err


def test_non_finite_embedding_in_dataset_is_schema_mismatch(tmp_path, small_config, capsys):
    data = tmp_path / "data.jsonl"
    run(["simulate", "--config", small_config, "--out", str(data)])
    records = [json.loads(line) for line in data.read_text().splitlines()]
    records[3]["embedding"][0] = float("nan")
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    expect_schema_mismatch(
        ["eval", "--data", str(data), "--partitions", str(tmp_path / "p.jsonl"),
         "--report", str(tmp_path / "r.json")],
        capsys,
    )


@pytest.mark.parametrize("drop", ["policy_config", "support_vectors"])
def test_model_missing_key_is_schema_mismatch(tmp_path, small_config, capsys, drop):
    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    model = tmp_path / "m.json"
    save_model(constant_svm(22, 0.5), PolicyConfig(), str(model))
    doc = json.loads(model.read_text())
    del doc[drop]
    model.write_text(json.dumps(doc))
    expect_schema_mismatch(
        ["group", "--data", data, "--model", str(model),
         "--out-partitions", str(tmp_path / "p.jsonl")],
        capsys,
    )


@pytest.mark.parametrize("kind", ["tree", None, ["svm"]])
def test_unknown_model_kind_is_schema_mismatch(tmp_path, small_config, capsys, kind):
    # a kind that is not a string must not reach the kind table's lookup
    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import constant_svm

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    model = tmp_path / "m.json"
    save_model(constant_svm(22, 0.5), PolicyConfig(), str(model))
    model.write_text(json.dumps({**json.loads(model.read_text()), "kind": kind}))
    expect_schema_mismatch(
        ["group", "--data", data, "--model", str(model),
         "--out-partitions", str(tmp_path / "p.jsonl")],
        capsys,
    )


@pytest.mark.parametrize(
    "corrupt",
    [
        {"left": 0},  # the root's left child is the root: a descent never ends
        {"right": 10**6},  # child outside the tree
        {"feature": 23},  # no such column in a 23-wide Q row
        {"value": float("nan")},
        {"right": None},  # tree 0's own length: a valid node of the packed forest
        {"feature": 1.9},  # would be truncated to column 1
        {"left": True},  # would be read as node 1
        {"left": 10**30},  # no 64-bit integer
    ],
    ids=["cycle", "child-out-of-range", "feature-out-of-range", "nan-value",
         "child-in-next-tree", "feature-float", "left-bool", "left-huge"],
)
def test_malformed_forest_tree_is_schema_mismatch(tmp_path, small_config, capsys, corrupt):
    import numpy as np

    from facegroup.bench import save_model
    from facegroup.engine import PolicyConfig
    from facegroup.learn import ForestHyper, forest_fit

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    rng = np.random.Generator(np.random.PCG64(0))
    forest = forest_fit(
        rng.random((40, 23)), rng.random(40), ForestHyper(n_trees=2, max_depth=3, min_leaf=2)
    )
    model = tmp_path / "m.json"
    save_model(forest, PolicyConfig(), str(model))
    doc = json.loads(model.read_text())
    assert doc["trees"][0]["feature"][0] >= 0  # the root splits
    for key, value in corrupt.items():
        doc["trees"][0][key][0] = len(doc["trees"][0][key]) if value is None else value
    model.write_text(json.dumps(doc))
    expect_schema_mismatch(
        ["group", "--data", data, "--model", str(model),
         "--out-partitions", str(tmp_path / "p.jsonl")],
        capsys,
    )



@pytest.mark.parametrize(
    "target, key, value",
    [
        ("data", None, None),  # the record is a JSON list, not an object
        ("partitions", None, None),
        ("partitions", "groups", 5),
        ("partitions", "groups", [[["x"]]]),  # a group holds a list, not an id
        ("data", "quality", None),
        ("data", "quality", "0.5"),
        ("data", "quality", True),
        ("data", "item_id", ["x"]),
    ],
    ids=["dataset-record-is-a-list", "partitions-record-is-a-list", "groups-not-a-list",
         "group-holds-a-list", "quality-null", "quality-string", "quality-bool",
         "item-id-is-a-list"],
)
def test_malformed_record_is_schema_mismatch(tmp_path, small_config, capsys, target, key, value):
    from facegroup.bench import load_dataset, save_partitions
    from facegroup.core import ground_truth_partition

    files = {"data": tmp_path / "data.jsonl", "partitions": tmp_path / "parts.jsonl"}
    run(["simulate", "--config", small_config, "--out", str(files["data"])])
    albums = load_dataset(str(files["data"]))
    save_partitions([(a, ground_truth_partition(a)) for a in albums], str(files["partitions"]))
    path = files[target]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[1] = [records[1]] if key is None else {**records[1], key: value}
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    expect_schema_mismatch(
        ["eval", "--data", str(files["data"]), "--partitions", str(files["partitions"]),
         "--report", str(tmp_path / "r.json")],
        capsys,
    )


def test_svm_seed_in_config_is_schema_mismatch(tmp_path, small_config, capsys):
    # SMO is deterministic, so SvmHyper has no seed to set
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    with open(small_config) as fh:
        cfg = json.load(fh)
    cfg["svm"]["seed"] = 1
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps(cfg))
    expect_schema_mismatch(
        ["train", "--data", data, "--out-model", str(tmp_path / "m.json"),
         "--config", str(config)],
        capsys,
    )


def train_argv(tmp_path, small_config, section, key, value):
    """A train command on simulated data, with one config value set."""
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    with open(small_config) as fh:
        cfg = json.load(fh)
    cfg.setdefault(section, {})[key] = value
    config = tmp_path / "edited.json"
    config.write_text(json.dumps(cfg))
    return ["train", "--data", data, "--out-model", str(tmp_path / "m.json"),
            "--config", str(config)]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("policy", "bogus", 1),
        ("train", "retrain_per_album", False),
        ("train", "buffer_capacity", 10),
        ("svm", "balanced", False),
        ("forest", "twin", True),
    ],
)
def test_bad_config_value_is_schema_mismatch(tmp_path, small_config, capsys, monkeypatch,
                                             section, key, value):
    # rejected while the config is read, before any training starts
    from facegroup import train

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(train, "irl_train", no_training)
    expect_schema_mismatch(train_argv(tmp_path, small_config, section, key, value), capsys)


@pytest.mark.parametrize("section", ["policy", "svm", "forest", "train", "sim"])
def test_config_section_not_an_object_is_schema_mismatch(tmp_path, small_config, capsys,
                                                         section):
    # sections are read before the data file, which does not exist here
    with open(small_config) as fh:
        cfg = json.load(fh)
    cfg[section] = 5
    config = str(tmp_path / "edited.json")
    with open(config, "w") as fh:
        json.dump(cfg, fh)
    argv = (["simulate", "--out", str(tmp_path / "d.jsonl")] if section == "sim" else
            ["train", "--data", str(tmp_path / "absent.jsonl"),
             "--out-model", str(tmp_path / "m.json")])
    expect_schema_mismatch(argv + ["--config", config], capsys)


def test_train_without_svm_section_uses_documented_gamma(tmp_path, small_config):
    with open(small_config) as fh:
        cfg = json.load(fh)
    del cfg["svm"]
    # profiles and noise, so the mistakes hold both classes and SMO runs
    cfg["sim"] = {"n_albums": 2, "seed": 31}
    config = tmp_path / "no-svm.json"
    config.write_text(json.dumps(cfg))
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", str(config), "--out", data])
    model = tmp_path / "m.json"
    assert run(["train", "--data", data, "--out-model", str(model), "--stage", "irl",
                "--config", str(config)]) == 0
    assert json.loads(model.read_text())["gamma"] == 3.0


def test_train_sidecar_records_how_training_ended(tmp_path, small_config):
    """The train sidecar holds the IRL outcome and the experience count, and
    no timings; one epoch is too few to converge on this data. Stage q on
    the stage-irl model writes the forest that stage both writes."""
    with open(small_config) as fh:
        cfg = json.load(fh)
    cfg["sim"] = {"n_albums": 2, "seed": 31}
    cfg["train"]["max_epochs"] = 1
    config = tmp_path / "one-epoch.json"
    config.write_text(json.dumps(cfg))
    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", str(config), "--out", data])
    metas = {}
    for stage in ("irl", "both"):
        model = tmp_path / f"{stage}.json"
        assert run(["train", "--data", data, "--out-model", str(model), "--stage", stage,
                    "--config", str(config)]) == 0
        metas[stage] = json.loads((tmp_path / f"{stage}.json.meta.json").read_text())
    irl_keys = {"converged", "epochs_run", "mistakes_per_epoch", "mistake_set_size"}
    assert set(metas["irl"]) == {"command", "stage"} | irl_keys
    assert set(metas["both"]) == {"command", "stage", "n_experiences"} | irl_keys
    for meta in metas.values():
        assert meta["converged"] is False
        assert meta["epochs_run"] == 1 and len(meta["mistakes_per_epoch"]) == 1
        assert meta["mistake_set_size"] == meta["mistakes_per_epoch"][0] > 0
    assert metas["both"]["n_experiences"] > 0
    q_model = tmp_path / "q.json"
    assert run(["train", "--data", data, "--out-model", str(q_model), "--stage", "q",
                "--svm-model", str(tmp_path / "irl.json"), "--config", str(config)]) == 0
    assert json.loads((tmp_path / "q.json.meta.json").read_text()) == {
        "command": "train", "stage": "q", "n_experiences": metas["both"]["n_experiences"]
    }
    # the stages compose: stage q on stage irl's model is stage both
    assert q_model.read_bytes() == (tmp_path / "both.json").read_bytes()
    assert (tmp_path / "irl.json").read_bytes() == (tmp_path / "both.json.svm.json").read_bytes()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("svm", "gamma", None),  # null no longer stands for 1 / dim
        ("svm", "gamma", 0.0),
        ("svm", "c_reg", 0),
        ("svm", "tol", 0),
        ("svm", "max_passes", 0),
        ("train", "reward_mode", "pm-1"),
        ("train", "max_epochs", 0),
        ("train", "refit_every", 0),
        ("forest", "n_trees", 0),
        ("forest", "max_depth", 0),
        ("forest", "min_leaf", -2),
        ("forest", "feature_frac", 1.5),
        ("policy", "tau", 0),
        # json writes and reads these as NaN and Infinity
        ("policy", "beta", float("nan")),
        ("policy", "beta", float("inf")),
        ("policy", "epsilon0", -3.0),
        ("policy", "epsilon0", 2.0),
        ("policy", "epsilon_decay_episodes", 0),
        ("policy", "epsilon_decay_episodes", -3),
        pytest.param("policy", "costs", [float("nan"), 6, 1], id="policy-costs-nan"),
        pytest.param("policy", "costs", [1, 6, float("inf")], id="policy-costs-inf"),
        # a value of the wrong JSON type
        ("policy", "eta", 2.5),
        ("policy", "eta", True),
        ("policy", "k_steps", 1.5),
        ("policy", "epsilon_decay_episodes", 2.5),
        ("policy", "use_quality", "no"),
        pytest.param("policy", "costs", [1, True, 1], id="policy-costs-bool"),
        ("forest", "n_trees", 2.5),
        pytest.param("forest", "always_include", [22.5], id="forest-always_include-float"),
        pytest.param("forest", "always_include", [23], id="forest-always_include-23"),
        pytest.param("forest", "always_include", [-1], id="forest-always_include--1"),
        ("svm", "max_passes", 2.5),
        ("train", "max_epochs", 1.5),
    ],
)
def test_config_value_out_of_range(tmp_path, small_config, capsys, section, key, value):
    argv = train_argv(tmp_path, small_config, section, key, value)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:invalid-argument:"), err


@pytest.mark.parametrize(
    "flag, value", [("--costs", "nan,6,1"), ("--costs", "1,inf,1"), ("--jobs", "0")]
)
def test_eval_flag_out_of_range(tmp_path, small_config, capsys, flag, value):
    # a non-finite cost would score every album as nan or inf; no jobs is not serial
    from facegroup.bench import load_dataset, save_partitions
    from facegroup.core import ground_truth_partition

    data = str(tmp_path / "data.jsonl")
    run(["simulate", "--config", small_config, "--out", data])
    parts = str(tmp_path / "gt.jsonl")
    save_partitions([(a, ground_truth_partition(a)) for a in load_dataset(data)], parts)
    capsys.readouterr()
    assert run(["eval", "--data", data, "--partitions", parts,
                "--report", str(tmp_path / "r.json"), flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:invalid-argument:"), err


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_albums", 1.5),
        ("n_albums", -1),
        ("dim", 16.0),
        ("seed", 2.5),
        pytest.param("identities", [2.5, 3], id="identities-float"),
        pytest.param("identities", [2, 3, 4], id="identities-three"),
        pytest.param("items_per_identity", [4], id="items_per_identity-one"),
        pytest.param("identities", [0, 0], id="identities-0-0"),
        pytest.param("identities", [5, 3], id="identities-5-3"),
        pytest.param("items_per_identity", [0, 2], id="items_per_identity-0-2"),
        pytest.param("items_per_identity", [5, 3], id="items_per_identity-5-3"),
    ],
)
def test_sim_config_value_out_of_range(tmp_path, capsys, key, value):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"sim": {"n_albums": 1, key: value}}))
    out = tmp_path / "d.jsonl"
    capsys.readouterr()
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:invalid-argument:"), err
    assert key in err[0]  # not numpy's bare "low >= high"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{absent}/c.json", "--out", "{tmp}/d.jsonl"],
        ["simulate", "--out", "{absent}/d.jsonl"],
        ["train", "--data", "{absent}/d.jsonl", "--out-model", "{tmp}/m.json"],
        ["train", "--data", "{data}", "--out-model", "{absent}/m.json", "--stage", "irl"],
        ["group", "--data", "{data}", "--model", "{absent}/m.json",
         "--out-partitions", "{tmp}/p.jsonl"],
        ["eval", "--data", "{data}", "--partitions", "{absent}/p.jsonl",
         "--report", "{tmp}/r.json"],
        ["eval", "--data", "{data}", "--partitions", "{parts}", "--report", "{absent}/r.json"],
    ],
    ids=["config-in", "dataset-out", "dataset-in", "model-out", "model-in", "partitions-in",
         "report-out"],
)
def test_missing_path_is_missing_file(tmp_path, small_config, capsys, argv):
    # a path that does not exist, read or written, is one category
    from facegroup.bench import load_dataset, save_partitions
    from facegroup.core import ground_truth_partition

    data, parts = tmp_path / "data.jsonl", tmp_path / "parts.jsonl"
    run(["simulate", "--config", small_config, "--out", str(data)])
    save_partitions([(a, ground_truth_partition(a)) for a in load_dataset(str(data))],
                    str(parts))
    paths = {"absent": tmp_path / "absent", "tmp": tmp_path, "data": data, "parts": parts}
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:missing-file:"), err


def test_model_does_not_depend_on_album_order_in_the_dataset(tmp_path, small_config):
    data = tmp_path / "data.jsonl"
    run(["simulate", "--config", small_config, "--out", str(data)])
    blocks: dict[str, list[str]] = {}
    for line in data.read_text().splitlines(keepends=True):
        blocks.setdefault(json.loads(line)["album_id"], []).append(line)
    reversed_data = tmp_path / "reversed.jsonl"
    reversed_data.write_text("".join(line for block in reversed(blocks.values())
                                     for line in block))
    models = []
    for name, path in (("forward", data), ("reversed", reversed_data)):
        model = tmp_path / f"{name}.json"
        assert run(["train", "--data", str(path), "--out-model", str(model),
                    "--config", small_config, "--seed", "3"]) == 0
        models.append((model.read_bytes(), (tmp_path / f"{name}.json.svm.json").read_bytes()))
    assert models[0] == models[1]
