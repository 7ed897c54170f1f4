import json

import numpy as np
import pytest

from facegroup.bench import (
    SchemaError,
    SimConfig,
    evaluate,
    export_trace,
    group_album,
    hc_baseline,
    load_dataset,
    load_model,
    load_partitions,
    render_table,
    save_dataset,
    save_model,
    save_partitions,
    score_album,
    simulate,
)
from facegroup.core import NOISE, Album, ground_truth_partition
from facegroup.engine import PolicyConfig
from facegroup.learn import ForestHyper, constant_svm, forest_fit

from conftest import make_item


class TestSimulate:
    def test_same_seed_identical_datasets(self, tmp_path):
        cfg = SimConfig(n_albums=3, seed=42)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(simulate(cfg), str(p1))
        save_dataset(simulate(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_fractions_roughly_respected(self):
        cfg = SimConfig(n_albums=4, noise_fraction=0.3, seed=1)
        albums = simulate(cfg)
        n_total = sum(len(a) for a in albums)
        n_noise = sum(1 for a in albums for it in a.items if it.label == NOISE)
        assert n_noise / n_total == pytest.approx(0.3, abs=0.05)

    def test_embeddings_are_unit_norm(self):
        for album in simulate(SimConfig(n_albums=2, seed=3)):
            for item in album.items:
                assert np.linalg.norm(item.embedding) == pytest.approx(1.0, abs=1e-9)

    def test_easy_regime_baseline_excels(self):
        cfg = SimConfig(
            n_albums=4, profile_fraction=0.0, noise_fraction=0.0,
            frontal_spread=0.15, seed=7,
        )
        config = PolicyConfig()
        rows = [score_album(a, hc_baseline(a, config), config.costs) for a in simulate(cfg)]
        assert np.mean([r["f1"] for r in rows]) > 0.95

    def test_mixed_regime_degrades_baseline(self):
        config = PolicyConfig()
        easy = SimConfig(
            n_albums=4, profile_fraction=0.0, noise_fraction=0.0,
            frontal_spread=0.15, seed=7,
        )
        mixed = SimConfig(n_albums=4, seed=7)
        f1_easy = np.mean(
            [score_album(a, hc_baseline(a, config), config.costs)["f1"] for a in simulate(easy)]
        )
        f1_mixed = np.mean(
            [score_album(a, hc_baseline(a, config), config.costs)["f1"] for a in simulate(mixed)]
        )
        assert f1_easy - f1_mixed >= 0.15

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(profile_fraction=0.7, noise_fraction=0.5)


class TestEvaluate:
    def test_ground_truth_prediction_is_perfect(self):
        albums = simulate(SimConfig(n_albums=2, seed=5))
        partitions = {a.album_id: ground_truth_partition(a) for a in albums}
        report = evaluate(albums, None, PolicyConfig(), partitions=partitions)
        assert report["macro"]["precision"] == 1.0
        assert report["macro"]["recall"] == 1.0
        assert report["macro"]["f1"] == 1.0
        assert report["macro"]["op_norm"] == 0.0

    def test_all_singletons_prediction_has_perfect_precision(self):
        albums = simulate(SimConfig(n_albums=2, seed=5))
        from facegroup.core import Partition

        partitions = {a.album_id: Partition.from_singletons(len(a)) for a in albums}
        report = evaluate(albums, None, PolicyConfig(), partitions=partitions)
        assert report["macro"]["precision"] == 1.0
        assert report["macro"]["recall"] < 1.0

    def test_unknown_labeled_items_are_ignored(self):
        base = simulate(SimConfig(n_albums=1, seed=6))[0]
        items = list(base.items)
        rng = np.random.Generator(np.random.PCG64(0))
        dim = base.items[0].embedding.shape[0]
        extra = make_item("mystery", rng.normal(size=dim), quality=0.5, label=None)
        album = Album(album_id=base.album_id, items=tuple(items) + (extra,))
        labeled_only = Album(album_id=base.album_id, items=tuple(items))
        config = PolicyConfig()
        pred = hc_baseline(album, config)
        row = score_album(album, pred, config.costs)
        assert row["n_items"] == len(items)

    def test_requires_policy_xor_partitions(self):
        albums = simulate(SimConfig(n_albums=1, seed=6))
        with pytest.raises(ValueError):
            evaluate(albums, None, PolicyConfig())

    def test_jobs_parallelism_matches_serial(self):
        albums = simulate(SimConfig(n_albums=3, seed=8))
        model = constant_svm(22, bias=1.0)
        serial = evaluate(albums, model, PolicyConfig())
        parallel = evaluate(albums, model, PolicyConfig(), jobs=2)
        assert serial == parallel

    def test_render_table_shape(self):
        albums = simulate(SimConfig(n_albums=2, seed=9))
        partitions = {a.album_id: ground_truth_partition(a) for a in albums}
        report = evaluate(albums, None, PolicyConfig(), partitions=partitions)
        table = render_table(report)
        assert "macro" in table
        assert len(table.splitlines()) == 4

    def test_inference_never_reads_labels(self):
        album = simulate(SimConfig(n_albums=1, seed=10))[0]
        model = constant_svm(22, bias=1.0)
        trace = group_album(album, model, PolicyConfig())
        assert trace.final_partition.n_items == len(album)


class TestDatasetIO:
    def test_round_trip_bytes(self, tmp_path):
        albums = simulate(SimConfig(n_albums=2, seed=11))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(albums, str(p1))
        save_dataset(load_dataset(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_fields_exactly(self, tmp_path):
        albums = simulate(SimConfig(n_albums=1, seed=12))
        path = tmp_path / "d.jsonl"
        save_dataset(albums, str(path))
        loaded = load_dataset(str(path))[0]
        original = albums[0]
        for a, b in zip(original.items, loaded.items):
            assert a.item_id == b.item_id
            assert a.label == b.label
            assert a.quality == b.quality
            assert np.array_equal(a.embedding, b.embedding)

    def test_truncated_record_names_index(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        albums = simulate(SimConfig(n_albums=1, seed=13))
        save_dataset(albums, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="record 3"):
            load_dataset(str(path))

    def test_off_norm_embedding_rejected_or_normalized(self, tmp_path):
        path = tmp_path / "n.jsonl"
        rec = {
            "album_id": "a",
            "item_id": "x",
            "embedding": [0.5, 0.0],
            "quality": 0.5,
            "label": "p",
        }
        rec2 = dict(rec, item_id="y", embedding=[0.0, 0.7])
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec2) + "\n")
        with pytest.raises(SchemaError, match="norm"):
            load_dataset(str(path))
        albums = load_dataset(str(path), normalize=True)
        assert np.linalg.norm(albums[0].items[0].embedding) == pytest.approx(1.0)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"album_id": "a", "item_id": "x"}) + "\n")
        with pytest.raises(SchemaError, match="record 1"):
            load_dataset(str(path))


class TestModelIO:
    def test_svm_round_trip(self, tmp_path):
        model = constant_svm(22, bias=0.7)
        config = PolicyConfig()
        path = tmp_path / "m.json"
        save_model(model, config, str(path))
        loaded, cfg = load_model(str(path))
        assert cfg == config
        assert loaded.to_dict() == model.to_dict()

    def test_forest_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.normal(size=(50, 23))
        model = forest_fit(X, rng.normal(size=50), ForestHyper(n_trees=4))
        path = tmp_path / "f.json"
        save_model(model, PolicyConfig(), str(path))
        loaded, _ = load_model(str(path))
        probe = rng.normal(size=(20, 23))
        assert np.allclose(model.predict_many(probe), loaded.predict_many(probe))

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = constant_svm(22, bias=0.7)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, PolicyConfig(), str(p1))
        loaded, cfg = load_model(str(p1))
        save_model(loaded, cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(constant_svm(4, 0.0), PolicyConfig(), str(path))
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="schema"):
            load_model(str(path))


class TestPartitionAndTraceIO:
    def test_partition_round_trip(self, tmp_path):
        albums = simulate(SimConfig(n_albums=2, seed=14))
        entries = [(a, ground_truth_partition(a)) for a in albums]
        path = tmp_path / "p.jsonl"
        save_partitions(entries, str(path))
        loaded = load_partitions(albums, str(path))
        for album, part in entries:
            assert loaded[album.album_id].as_sets() == part.as_sets()

    def test_unknown_item_id_rejected(self, tmp_path):
        albums = simulate(SimConfig(n_albums=1, seed=15))
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps({"album_id": albums[0].album_id, "groups": [["nope"]]}) + "\n"
        )
        with pytest.raises(SchemaError, match="unknown item"):
            load_partitions(albums, str(path))

    def test_trace_export(self, tmp_path):
        album = simulate(SimConfig(n_albums=1, seed=16))[0]
        trace = group_album(album, constant_svm(22, 1.0), PolicyConfig())
        path = tmp_path / "t.jsonl"
        export_trace([trace], str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(trace.steps)
        if records:
            assert set(records[0]) >= {
                "album_id", "step", "candidate", "action", "phi",
                "r_short", "r_long", "r_total",
            }
