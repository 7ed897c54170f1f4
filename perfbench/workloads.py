"""The three benchmark workloads, their correctness gate and their metrics.

Every workload is closed-loop with one caller in one process: albums are
grouped back to back (``jobs=1``, no pool). The seed moves the embeddings
of every album; album sizes follow a fixed schedule of simulator shapes
(identities x items per identity) that spans each workload's regime, so
runs with different seeds do comparable amounts of work.

Training albums are the same for every seed (simulator base seed 501): a
trained model, and the time to train one, depend so much on the training
set that runs with different training sets are not comparable. The seed
picks the albums that are grouped or scored.

A run has a set-up, repeated ``SETUP_REPS`` times (its median is
``setup_s``), and a timed section that repeats whole units of work (one
album grouped, or one training round) until ``--seconds`` have passed,
after at least one full pass. Per-unit times are reduced per slot by the
median before they are combined, so one slow pass does not move a metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from facegroup import bench, core, train
from facegroup.engine import PolicyConfig
from facegroup.learn import SvmHyper
from facegroup.train import TrainConfig

# The acceptance regime's simulator settings and stage-one hyperparameters.
REGIME = {"profile_fraction": 0.10, "noise_fraction": 0.15}
SVM_HYPER = SvmHyper(c_reg=10.0, gamma=3.0)
# Set-ups per untimed run; ``setup_s`` is their median.
SETUP_REPS = 3


def _seed(base: int, seed: int, slot: int) -> int:
    return int(np.random.SeedSequence([base, seed, slot]).generate_state(1)[0])


def simulate_shapes(base: int, seed: int, shapes, prefix: str) -> list[core.Album]:
    """One album per (identities, items per identity) shape."""
    albums = []
    for slot, (identities, per_identity) in enumerate(shapes):
        cfg = bench.SimConfig(
            n_albums=1,
            identities=(identities, identities),
            items_per_identity=(per_identity, per_identity),
            seed=_seed(base, seed, slot),
            **REGIME,
        )
        (album,) = bench.simulate(cfg)
        albums.append(core.Album(album_id=f"{prefix}{slot:03d}", items=album.items))
    return albums


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``policy`` is "forest" or "svm"."""

    name: str
    policy: str
    train_shapes: tuple  # albums of the stage-one (and set-up) training set
    q_albums: int  # first albums of the training set that stage two plays
    q_episodes: int  # stage-two episodes (PolicyConfig.epsilon_decay_episodes)
    held_shapes: tuple  # albums grouped in the timed section or the evaluation


# Shapes of the acceptance regime, identities (3, 7) x items (8, 10), from
# the smallest album (28 items with noise) to the largest (82 items).
ACCEPTANCE = ((3, 8), (4, 9), (5, 9), (6, 10), (7, 10))
# Its middle shape, 53 items with noise. Grouped albums all have this shape:
# with mixed sizes the largest albums decide every time metric, and the
# spread of times across seeds doubles.
MIDDLE = (5, 9)

SPECS = {
    "group-forest": Spec(
        name="group-forest",
        policy="forest",
        train_shapes=ACCEPTANCE[:4],
        q_albums=3,
        q_episodes=6,
        held_shapes=(MIDDLE,) * 10,
    ),
    "group-large": Spec(
        name="group-large",
        policy="svm",
        train_shapes=ACCEPTANCE[:3],
        q_albums=0,
        q_episodes=0,
        held_shapes=((10, 12),) * 6,
    ),
    "train": Spec(
        name="train",
        policy="forest",
        train_shapes=ACCEPTANCE * 2,
        q_albums=3,
        q_episodes=8,
        held_shapes=(MIDDLE,) * 10,
    ),
}

WHY = {
    "group-forest": "default product path: 53-item held-out albums of the acceptance regime "
    "grouped by the Q forest read back from its model file; forest prediction dominates",
    "group-large": "141-item albums grouped by the stage-one SVM: the recommender's pair scan "
    "takes about 90 % and no forest runs, so a forest change must show no change",
    "train": "both training stages on a fixed labelled set: SMO fit, forest fit, expert and "
    "op-cost; the only workload that reads labels",
}


@dataclass
class Outcome:
    """What one run measured. Times in seconds."""

    setup_s: list[float] = field(default_factory=list)
    slot_times: dict = field(default_factory=dict)  # slot -> [seconds]
    slot_items: dict = field(default_factory=dict)  # slot -> items
    irl_s: list[float] = field(default_factory=list)
    q_s: list[float] = field(default_factory=list)
    round_items: int = 0
    eval_times: list[float] = field(default_factory=list)
    f1: float = math.nan
    op_norm: float = math.nan
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    model_sha256: str = ""
    partitions_sha256: str = ""

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _policy_config(spec: Spec) -> PolicyConfig:
    if spec.q_episodes:
        return PolicyConfig(epsilon_decay_episodes=spec.q_episodes)
    return PolicyConfig()


def _check_partition(album: core.Album, partition, out: Outcome) -> bool:
    """A grouped partition must be a valid Partition over exactly the album's items."""
    try:
        core.Partition(groups=partition.groups, next_group_id=partition.next_group_id)
    except ValueError as exc:
        out.fail(f"{album.album_id}: invalid partition ({exc})")
        return False
    if partition.item_indices() != frozenset(range(len(album))):
        out.fail(f"{album.album_id}: partition does not cover exactly the album's items")
        return False
    return True


def _train_policy(spec: Spec, albums, cfg: PolicyConfig):
    """Stage one, then stage two when the workload's policy is the forest."""
    t0 = time.perf_counter()
    irl = train.irl_train(albums, cfg, SVM_HYPER, TrainConfig())
    t1 = time.perf_counter()
    if spec.policy == "svm":
        return irl.model, t1 - t0, 0.0
    q = train.q_train(albums[: spec.q_albums], irl.model, cfg, train_cfg=TrainConfig())
    return q.model, t1 - t0, time.perf_counter() - t1


def _round_trip(model, cfg: PolicyConfig, path: Path):
    """Write the model and group with the copy read back, as ``facegroup group`` does."""
    bench.save_model(model, cfg, str(path))
    loaded, loaded_cfg = bench.load_model(str(path))
    return loaded, loaded_cfg, sha256_file(path)


def _score(albums, partitions, cfg: PolicyConfig, out: Outcome, tracer) -> None:
    with _span(tracer, "perfbench.score"):
        rows = [
            bench.score_album(album, partitions[album.album_id], cfg.costs)
            for album in albums
        ]
    out.f1 = float(np.mean([r["f1"] for r in rows]))
    out.op_norm = float(np.mean([r["op_norm"] for r in rows]))
    for name in ("f1", "op_norm"):
        if not math.isfinite(getattr(out, name)):
            out.fail(f"{name} is not finite")


def _save_partitions(albums, partitions, path: Path) -> str:
    bench.save_partitions([(a, partitions[a.album_id]) for a in albums], str(path))
    return sha256_file(path)


def _span(tracer, name: str, album=None):
    return tracer.span(name, album) if tracer is not None else contextlib.nullcontext()


def _closed_loop(units: int, seconds: float, fixed: bool, run_unit, out: Outcome) -> None:
    """Run units in slot order, cycling, until ``seconds`` have passed and
    every slot ran at least once; ``fixed`` runs exactly one pass.

    A unit that raises is a failed operation: it is counted and the loop
    goes on with the next one.
    """
    start = time.perf_counter()
    done = 0
    while done < units or (not fixed and time.perf_counter() - start < seconds):
        try:
            run_unit(done % units)
        except Exception as exc:  # noqa: BLE001 - the loop must keep measuring
            out.fail(f"unit {done % units}: {type(exc).__name__}: {exc}")
        done += 1


def run_group(spec: Spec, seed: int, seconds: float, fixed: bool, tracer, work: Path) -> Outcome:
    """group-forest and group-large: train in set-up, then group held-out albums."""
    out = Outcome()
    cfg = _policy_config(spec)
    policy = None
    for rep in range(1 if fixed else SETUP_REPS):
        out.attempted += 1
        with _span(tracer, "perfbench.setup"):
            t0 = time.perf_counter()
            train_albums = simulate_shapes(501, 0, spec.train_shapes, "train")
            held = simulate_shapes(601 if spec.policy == "forest" else 801, seed,
                                   spec.held_shapes, "held")
            model, _, _ = _train_policy(spec, train_albums, cfg)
            policy, policy_cfg, sha = _round_trip(model, cfg, work / "model.json")
            out.setup_s.append(time.perf_counter() - t0)
        if rep == 0:
            out.model_sha256 = sha
        elif sha != out.model_sha256:
            out.fail(f"set-up {rep}: model differs from the first set-up")

    partitions: dict = {}

    def group_one(slot: int) -> None:
        album = held[slot]
        out.attempted += 1
        with _span(tracer, "perfbench.album", album):
            t0 = time.perf_counter()
            trace = bench.group_album(album, policy, policy_cfg)
            dt = time.perf_counter() - t0
        out.slot_times.setdefault(slot, []).append(dt)
        out.slot_items[slot] = len(album)
        part = trace.final_partition
        if not _check_partition(album, part, out):
            return
        first = partitions.setdefault(album.album_id, part)
        if first.as_sets() != part.as_sets():
            out.fail(f"{album.album_id}: repeat grouping differs")

    _closed_loop(len(held), seconds, fixed, group_one, out)
    if len(partitions) == len(held):
        out.partitions_sha256 = _save_partitions(held, partitions, work / "partitions.jsonl")
        _score(held, partitions, policy_cfg, out, tracer)
    return out


def run_train(spec: Spec, seed: int, seconds: float, fixed: bool, tracer, work: Path) -> Outcome:
    """train: both stages repeated on the same labelled albums, then the
    trained forest groups held-out albums once for quality and speed."""
    out = Outcome()
    cfg = _policy_config(spec)
    for _ in range(1 if fixed else SETUP_REPS):
        out.attempted += 1
        with _span(tracer, "perfbench.setup"):
            t0 = time.perf_counter()
            albums = simulate_shapes(501, 0, spec.train_shapes, "train")
            held = simulate_shapes(601, seed, spec.held_shapes, "held")
            out.setup_s.append(time.perf_counter() - t0)
    out.round_items = sum(len(a) for a in albums) + sum(len(a) for a in albums[: spec.q_albums])
    model = None

    def one_round(_slot: int) -> None:
        nonlocal model
        out.attempted += 1
        with _span(tracer, "perfbench.round"):
            model, irl_s, q_s = _train_policy(spec, albums, cfg)
        out.irl_s.append(irl_s)
        out.q_s.append(q_s)
        bench.save_model(model, cfg, str(work / "model.json"))
        sha = sha256_file(work / "model.json")
        if not out.model_sha256:
            out.model_sha256 = sha
        elif sha != out.model_sha256:
            out.fail("training round produced a different model")

    _closed_loop(1, seconds, fixed, one_round, out)

    partitions = {}
    for album in held:
        out.attempted += 1
        with _span(tracer, "perfbench.eval", album):
            t0 = time.perf_counter()
            trace = bench.group_album(album, model, cfg)
            out.eval_times.append(time.perf_counter() - t0)
        if _check_partition(album, trace.final_partition, out):
            partitions[album.album_id] = trace.final_partition
    if len(partitions) == len(held):
        out.partitions_sha256 = _save_partitions(held, partitions, work / "partitions.jsonl")
        _score(held, partitions, cfg, out, tracer)
    return out


def run(spec: Spec, seed: int, seconds: float, fixed: bool, tracer, work: Path) -> Outcome:
    runner = run_train if spec.name == "train" else run_group
    return runner(spec, seed, seconds, fixed, tracer, work)


def tail(samples: list[float], beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it."""
    n = len(samples)
    if n <= beyond:
        return None
    pct = math.floor(100 * (n - beyond) / n)
    value = float(np.percentile(samples, pct))
    return {"percentile": pct, "value": value, "samples": n}


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(out: Outcome, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of BENCHMARK.json, with its unit; NaN where
    a failure left nothing to measure."""
    if out.irl_s:
        rounds = [i + q for i, q in zip(out.irl_s, out.q_s)]
        items_per_s = out.round_items / _median(rounds)
        album_ms = 1000 * _median(out.eval_times)
    else:
        medians = [_median(t) for t in out.slot_times.values()]
        items = sum(out.slot_items.values())
        items_per_s = items / sum(medians) if medians else math.nan
        album_ms = 1000 * _median(medians)
    return {
        "setup_s": {"value": _median(out.setup_s), "unit": "s"},
        "items_per_s": {"value": items_per_s, "unit": "items/s"},
        "album_ms_p50": {"value": album_ms, "unit": "ms"},
        "f1": {"value": out.f1, "unit": "bcubed_f1"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def details(out: Outcome) -> dict:
    """Figures recorded next to the gated metrics, not gated themselves."""
    times = [t for ts in out.slot_times.values() for t in ts] or out.eval_times
    return {
        "irl_s_p50": _median(out.irl_s) if out.irl_s else None,
        "q_s_p50": _median(out.q_s) if out.q_s else None,
        "rounds": len(out.irl_s),
        "op_norm": out.op_norm if math.isfinite(out.op_norm) else None,
        "album_ms_tail": tail([1000 * t for t in times]),
        "albums_timed": len(times),
        "setup_s_all": out.setup_s,
        "failed_frac": len(out.failures) / max(1, out.attempted),
        "failures": out.failures[:20],
        "model_sha256": out.model_sha256,
        "partitions_sha256": out.partitions_sha256,
    }
