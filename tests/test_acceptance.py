"""Acceptance suite: one test per release criterion, printing a PASS/FAIL
line each (run with ``-s`` to see them).

Training-based criteria share session fixtures; every data set, seed, and
tolerance is pinned here. The whole suite trains several policies from
scratch and takes some minutes.
"""

import json
import time

import numpy as np
import pytest

from facegroup.bench import (
    SimConfig,
    evaluate,
    hc_baseline,
    score_album,
    simulate,
)
from facegroup.cli import main as cli_main
from facegroup.core import CostModel, Partition, ground_truth_partition
from facegroup.engine import PolicyConfig
from facegroup.learn import SvmHyper
from facegroup.metrics import bcubed, op_cost
from facegroup.recommend import Strategy
from facegroup.train import TrainConfig, expert_trajectory, irl_train, q_train

from oracle import op_cost_oracle

COSTS = CostModel()  # (1, 6, 1)
SVM_HYPER = SvmHyper(c_reg=10.0, gamma=3.0)
SEED = 7

# criterion 3 regime: 20 albums, 30-80 items, 3-8 identities, 10% profile,
# 15% noise (sizes verified to land inside 30-80 for these seeds)
REGIME = dict(
    identities=(3, 7),
    items_per_identity=(8, 10),
    profile_fraction=0.10,
    noise_fraction=0.15,
)
TRAIN_SIM = SimConfig(n_albums=20, seed=501, **REGIME)
HELD_SIM = SimConfig(n_albums=20, seed=601, **REGIME)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status} - {name}{suffix}")


def random_partition_pair(rng, max_items=8, max_gt_groups=4):
    n = int(rng.integers(2, max_items + 1))
    gt_assign = rng.integers(0, int(rng.integers(1, max_gt_groups + 1)), size=n)
    h_assign = rng.integers(0, int(rng.integers(1, n + 1)), size=n)

    def to_partition(assign):
        sets = {}
        for i, g in enumerate(assign):
            sets.setdefault(int(g), set()).add(i)
        return Partition.from_groups(sorted(sets.values(), key=min))

    return to_partition(h_assign), to_partition(gt_assign)


@pytest.fixture(scope="session")
def train_albums():
    return simulate(TRAIN_SIM)


@pytest.fixture(scope="session")
def held_albums():
    return simulate(HELD_SIM)


@pytest.fixture(scope="session")
def irl_result(train_albums):
    t0 = time.time()
    result = irl_train(train_albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=SEED))
    return result, time.time() - t0


@pytest.fixture(scope="session")
def full_policy(train_albums, irl_result):
    result, t_irl = irl_result
    t0 = time.time()
    q = q_train(train_albums, result.model, PolicyConfig(), train_cfg=TrainConfig(seed=SEED))
    return q.model, t_irl + (time.time() - t0)


@pytest.fixture(scope="session")
def full_report(held_albums, full_policy):
    model, t_train = full_policy
    t0 = time.time()
    rep = evaluate(held_albums, model, PolicyConfig())
    return rep, t_train + (time.time() - t0)


def test_criterion_01_op_cost_soundness():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(20231))
    n_instances = 200
    n_equal = 0
    sound = True
    for _ in range(n_instances):
        h, g = random_partition_pair(rng)
        est = op_cost(h, g, COSTS).total_cost
        exact = op_cost_oracle(h, g, COSTS)
        if est < exact - 1e-9:
            sound = False
        if abs(est - exact) < 1e-9:
            n_equal += 1

    ident = Partition.from_groups([{0, 1}, {2, 3, 4}])
    case_identity = op_cost(ident, ident, COSTS).total_cost == 0

    singles = Partition.from_singletons(6)
    merged_all = Partition.from_groups([set(range(6))])
    res = op_cost(singles, merged_all, COSTS)
    case_merges = res.counts() == (0, 0, 5) and res.total_cost == 5 == op_cost_oracle(
        singles, merged_all, COSTS
    )

    h_mis = Partition.from_groups([{0, 1, 2}, {3}])
    g_mis = Partition.from_groups([{0, 1}, {2, 3}])
    case_misplaced = (
        op_cost(h_mis, g_mis, COSTS).total_cost == 7 == op_cost_oracle(h_mis, g_mis, COSTS)
    )

    elapsed = time.time() - t0
    equal_rate = n_equal / n_instances
    ok = sound and equal_rate >= 0.95 and case_identity and case_merges and case_misplaced
    ok = ok and elapsed < 60
    report(
        1,
        "op-cost estimator sound vs oracle",
        ok,
        f"estimator>=oracle on 100%, equal on {equal_rate:.1%}, {elapsed:.1f}s",
    )
    assert sound, "estimator fell below the oracle"
    assert equal_rate >= 0.95
    assert case_identity and case_merges and case_misplaced
    assert elapsed < 60


def test_criterion_02_bcubed_correctness():
    def brute(pred, gt):
        items = sorted(pred.item_indices())
        pred_of = {i: gid for gid, m in pred.groups for i in m}
        gt_of = {i: gid for gid, m in gt.groups for i in m}
        ps, rs = [], []
        for i in items:
            same_pred = [j for j in items if pred_of[j] == pred_of[i]]
            same_gt = [j for j in items if gt_of[j] == gt_of[i]]
            both = sum(1 for j in same_pred if gt_of[j] == gt_of[i])
            ps.append(both / len(same_pred))
            rs.append(both / len(same_gt))
        p, r = float(np.mean(ps)), float(np.mean(rs))
        return p, r, (0.0 if p + r == 0 else 2 * p * r / (p + r))

    rng = np.random.Generator(np.random.PCG64(20232))
    max_err = 0.0
    for _ in range(100):
        pred, gt = random_partition_pair(rng, max_items=12, max_gt_groups=5)
        scores = bcubed(pred, gt)
        p, r, f1 = brute(pred, gt)
        max_err = max(
            max_err,
            abs(scores.precision - p),
            abs(scores.recall - r),
            abs(scores.f1 - f1),
        )

    gt = Partition.from_groups([{0, 1}, {2, 3}])
    pred = Partition.from_groups([{0, 1, 2}, {3}])
    worked = bcubed(pred, gt)
    exact = (
        abs(worked.precision - 2 / 3) < 1e-15
        and abs(worked.recall - 3 / 4) < 1e-15
        and abs(worked.f1 - 12 / 17) < 1e-15
    )
    ok = max_err < 1e-12 and exact
    report(2, "B-cubed matches brute force", ok, f"max |err| {max_err:.2e}")
    assert max_err < 1e-12
    assert exact


def test_criterion_03_irl_convergence(train_albums, irl_result):
    result, t_irl = irl_result
    sizes = [len(a) for a in train_albums]
    ok = (
        result.converged
        and result.epochs_run <= 50
        and result.training_accuracy >= 0.95
        and min(sizes) >= 30
        and max(sizes) <= 80
    )
    report(
        3,
        "imitation stage reaches zero mistakes",
        ok,
        f"epochs {result.epochs_run}, |L| {result.mistake_set_size}, "
        f"acc {result.training_accuracy:.3f}, {t_irl:.0f}s",
    )
    assert result.converged
    assert result.epochs_run <= 50
    assert result.training_accuracy >= 0.95


def test_criterion_04_beats_threshold_baseline(held_albums, full_report):
    rep, t_total = full_report
    t0 = time.time()
    rows = [score_album(a, hc_baseline(a, PolicyConfig()), COSTS) for a in held_albums]
    t_total += time.time() - t0
    base_f1 = float(np.mean([r["f1"] for r in rows]))
    base_op = float(np.mean([r["op_norm"] for r in rows]))
    f1, op = rep["macro"]["f1"], rep["macro"]["op_norm"]
    ok = f1 >= base_f1 + 0.10 and op <= 0.7 * base_op and t_total < 600
    report(
        4,
        "learned policy beats threshold clustering",
        ok,
        f"F1 {f1:.3f} vs {base_f1:.3f} (+{100 * (f1 - base_f1):.1f}pts), "
        f"Op {op:.3f} vs {base_op:.3f}, {t_total:.0f}s",
    )
    assert f1 >= base_f1 + 0.10
    assert op <= 0.7 * base_op
    assert t_total < 600


def test_criterion_05_myopic_equivalence(train_albums, held_albums, irl_result):
    result, _ = irl_result
    config = PolicyConfig(gamma=0.0, beta=0.0, epsilon_decay_episodes=20)
    q = q_train(train_albums, result.model, config, train_cfg=TrainConfig(seed=SEED))
    phis = []
    for album in held_albums:
        p, labels = expert_trajectory(album, ground_truth_partition(album), config)
        if len(labels):
            phis.append(p)
    phis = np.vstack(phis)
    assert phis.shape[0] >= 1000, "need at least 1000 sampled decision states"
    phis = phis[:1000]
    svm_action = np.where(result.model.decision_many(phis) > 0, 1, -1)
    q_merge = q.model.predict_many(np.hstack([phis, np.ones((len(phis), 1))]))
    q_not = q.model.predict_many(np.hstack([phis, -np.ones((len(phis), 1))]))
    q_action = np.where(q_merge > q_not, 1, -1)
    agreement = float(np.mean(q_action == svm_action))
    ok = agreement >= 0.99
    report(5, "gamma=0 policy equals SVM sign", ok, f"agreement {agreement:.2%} on 1000 states")
    assert agreement >= 0.99


def test_criterion_06_reward_ablation(train_albums, held_albums, irl_result, full_report):
    result, _ = irl_result
    rep_full, _ = full_report
    q_pm1 = q_train(
        train_albums,
        result.model,
        PolicyConfig(),
        train_cfg=TrainConfig(seed=SEED, reward_mode="pm1"),
    )
    rep_pm1 = evaluate(held_albums, q_pm1.model, PolicyConfig())
    f1_full, f1_pm1 = rep_full["macro"]["f1"], rep_pm1["macro"]["f1"]
    ok = f1_pm1 < f1_full
    report(
        6,
        "+/-1 reward scores below learned reward",
        ok,
        f"F1 {f1_pm1:.4f} < {f1_full:.4f}",
    )
    assert f1_pm1 < f1_full


def test_criterion_07_cost_sweep_shifts_pr():
    # a regime with enough ambiguous pairs that the cost distribution
    # visibly moves the operating point along the PR frontier
    regime = dict(
        identities=(4, 7),
        items_per_identity=(6, 9),
        profile_fraction=0.15,
        noise_fraction=0.25,
    )
    train = simulate(SimConfig(n_albums=8, seed=301, **regime))
    held = simulate(SimConfig(n_albums=12, seed=302, **regime))
    macros = {}
    for costs in (CostModel(1.0, 6.0, 1.0), CostModel(1.0, 1.0, 1.0)):
        config = PolicyConfig(epsilon_decay_episodes=24, costs=costs)
        irl = irl_train(train, config, SVM_HYPER, TrainConfig(seed=SEED))
        q = q_train(train, irl.model, config, train_cfg=TrainConfig(seed=SEED))
        macros[costs.c_remove] = evaluate(held, q.model, config)["macro"]
    p161, r161 = macros[6.0]["precision"], macros[6.0]["recall"]
    pf, rf = macros[1.0]["precision"], macros[1.0]["recall"]
    ok = rf >= r161 and pf <= p161 and (rf > r161 or pf < p161)
    report(
        7,
        "flat costs trade precision for recall",
        ok,
        f"(1,1,1) P {pf:.4f} R {rf:.4f} vs (1,6,1) P {p161:.4f} R {r161:.4f}",
    )
    assert rf >= r161
    assert pf <= p161
    assert rf > r161 or pf < p161


def test_criterion_08_recommender_ablation():
    # regime in which the nearest pair is also the safest decision, so the
    # proposal order forms a curriculum (confident cores first)
    regime = dict(
        identities=(4, 7),
        items_per_identity=(6, 9),
        profile_fraction=0.15,
        profile_pull=0.45,
        noise_fraction=0.20,
    )
    train = simulate(SimConfig(n_albums=8, seed=701, **regime))
    held = simulate(SimConfig(n_albums=12, seed=702, **regime))
    scores = {}
    for strategy in (Strategy.HIERARCHICAL_NEAREST, Strategy.RANDOM):
        config = PolicyConfig(epsilon_decay_episodes=24, strategy=strategy)
        irl = irl_train(train, config, SVM_HYPER, TrainConfig(seed=SEED))
        q = q_train(train, irl.model, config, train_cfg=TrainConfig(seed=SEED))
        scores[strategy] = evaluate(held, q.model, config)["macro"]["f1"]
    f1_hc = scores[Strategy.HIERARCHICAL_NEAREST]
    f1_random = scores[Strategy.RANDOM]
    ok = f1_random <= f1_hc
    report(8, "random recommender <= nearest-pair", ok, f"{f1_random:.4f} <= {f1_hc:.4f}")
    assert f1_random <= f1_hc


def test_criterion_09_quality_feature_ablation():
    regime = dict(
        identities=(4, 7),
        items_per_identity=(6, 9),
        profile_fraction=0.10,
        noise_fraction=0.30,
    )
    train = simulate(SimConfig(n_albums=8, seed=401, **regime))
    held = simulate(SimConfig(n_albums=12, seed=402, **regime))
    scores = {}
    for use_quality in (True, False):
        config = PolicyConfig(epsilon_decay_episodes=24, use_quality=use_quality)
        irl = irl_train(
            train, config, SVM_HYPER, TrainConfig(seed=SEED, max_epochs=12)
        )
        q = q_train(train, irl.model, config, train_cfg=TrainConfig(seed=SEED))
        scores[use_quality] = evaluate(held, q.model, config)["macro"]["f1"]
    ok = scores[False] < scores[True]
    report(
        9,
        "dropping quality features hurts on noisy albums",
        ok,
        f"F1 {scores[False]:.4f} < {scores[True]:.4f}",
    )
    assert scores[False] < scores[True]


# The criterion-10 pipeline; tests/test_golden.py also pins its artifacts.
PIPELINE_CONFIG = {
    "sim": {
        "n_albums": 4,
        "identities": [3, 5],
        "items_per_identity": [5, 7],
        "profile_fraction": 0.1,
        "noise_fraction": 0.15,
        "seed": 11,
    },
    "policy": {"epsilon_decay_episodes": 8},
    "svm": {"c_reg": 10.0, "gamma": 3.0},
    "forest": {"n_trees": 12, "max_depth": 10},
    "train": {"refit_every": 4},
}
PIPELINE_ARTIFACTS = ("data.jsonl", "model.json", "model.json.svm.json", "parts.jsonl",
                      "report.json")


def run_pipeline(cfg_path, out_dir):
    """simulate -> train -> group -> eval through the CLI; artifact bytes by name."""
    out_dir.mkdir()
    data = str(out_dir / "data.jsonl")
    model = str(out_dir / "model.json")
    parts = str(out_dir / "parts.jsonl")
    rep = str(out_dir / "report.json")
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", data]) == 0
    assert cli_main(
        ["train", "--data", data, "--out-model", model,
         "--stage", "both", "--config", str(cfg_path), "--seed", "3"]
    ) == 0
    assert cli_main(
        ["group", "--data", data, "--model", model, "--out-partitions", parts]
    ) == 0
    assert cli_main(["eval", "--data", data, "--partitions", parts,
                     "--report", rep, "--config", str(cfg_path)]) == 0
    return {name: (out_dir / name).read_bytes() for name in PIPELINE_ARTIFACTS}


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))

    first = run_pipeline(cfg_path, tmp_path / "run1")
    second = run_pipeline(cfg_path, tmp_path / "run2")
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    report(10, "pipeline is byte-identical across runs", ok, ", ".join(
        f"{n}:{'=' if v else '!'}" for n, v in same.items()))
    assert ok, f"artifacts differ: {[n for n, v in same.items() if not v]}"
