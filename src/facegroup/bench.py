"""Synthetic album simulator, dataset / model / trace files, and evaluation.

The simulator stands in for a deep face embedding: identity centers live on
the unit sphere, frontal items stay close to their center, profile items
are pulled toward a shared per-album pose direction (so profiles of
different identities can be closer to each other than to their own
frontals), and noise items are uniform on the sphere with low quality.

All randomness flows from numpy's PCG64 generator seeded via SeedSequence,
so a fixed seed reproduces a dataset bit for bit. Files are JSON Lines for
datasets, partitions, and traces, and a single JSON document for models.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# recommend and transition are not called here (the episode kernel calls
# them); perfbench's tracer looks them up on this module, so the imports stay.
from .core import (  # noqa: F401
    NOISE,
    Action,
    Album,
    CostModel,
    FaceItem,
    Partition,
    ground_truth_partition,
    transition,
)
from .engine import EpisodeTrace, Policy, PolicyConfig, album_rng, episode, run_episode
from .features import AlbumContext
from .learn import ForestModel, SvmModel
from .metrics import bcubed, normalized_op
from .recommend import Strategy, recommend  # noqa: F401

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed or incompatible file content."""


@dataclass(frozen=True)
class SimConfig:
    """Synthetic album recipe.

    Identity centers are mutually orthogonal directions (angular distance
    0.5 apart, the typical separation of distinct identities in a deep
    embedding). Frontal items concentrate around their center; profile
    items are pulled toward one shared per-album pose direction, which
    makes profiles of different identities mutually close; noise items
    scatter around the same pose region with low quality.
    """

    n_albums: int = 20
    identities: tuple[int, int] = (4, 8)  # inclusive range per album
    items_per_identity: tuple[int, int] = (7, 10)
    dim: int = 16
    frontal_spread: float = 0.25
    profile_fraction: float = 0.10
    profile_pull: float = 0.6  # weight of the shared pose direction
    profile_spread: float = 0.30
    noise_fraction: float = 0.15  # of the final album
    noise_pull: float = 0.45
    noise_spread: float = 0.55
    q_frontal: float = 0.85
    q_profile: float = 0.45
    q_noise: float = 0.15
    q_jitter: float = 0.08
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.identities[1] > self.dim:
            raise ValueError("at most dim identities fit per album")
        for name in ("profile_fraction", "noise_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.profile_fraction + self.noise_fraction > 1.0:
            raise ValueError("profile and noise fractions must sum to at most 1")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in ("identities", "items_per_identity"):
            d[key] = list(d[key])
        return d


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _quality(rng, mean: float, jitter: float) -> float:
    return float(np.clip(rng.normal(mean, jitter), 0.0, 1.0))


def simulate(config: SimConfig) -> list[Album]:
    """Generate labeled synthetic albums; same config -> identical albums."""
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_albums)
    albums = []
    for a_idx, seq in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seq))
        album_id = f"album{a_idx:03d}"
        pose = _unit(rng.normal(size=config.dim))
        # orthonormal identity centers: pairwise angular distance exactly 0.5
        basis, _ = np.linalg.qr(rng.normal(size=(config.dim, config.dim)))
        items: list[FaceItem] = []
        n_identities = int(rng.integers(config.identities[0], config.identities[1] + 1))
        for ident in range(n_identities):
            label = f"{album_id}_id{ident:02d}"
            center = basis[:, ident]
            count = int(
                rng.integers(config.items_per_identity[0], config.items_per_identity[1] + 1)
            )
            denom = max(1e-9, 1.0 - config.noise_fraction)
            n_profile = int(round(count * config.profile_fraction / denom))
            for k in range(count):
                if k < n_profile:
                    raw = (
                        (1.0 - config.profile_pull) * center
                        + config.profile_pull * pose
                        + config.profile_spread * rng.normal(size=config.dim) / np.sqrt(config.dim)
                    )
                    quality = _quality(rng, config.q_profile, config.q_jitter)
                else:
                    raw = center + config.frontal_spread * rng.normal(size=config.dim) / np.sqrt(
                        config.dim
                    )
                    quality = _quality(rng, config.q_frontal, config.q_jitter)
                items.append(
                    FaceItem(
                        item_id=f"{album_id}_i{len(items):04d}",
                        embedding=_unit(raw),
                        quality=quality,
                        label=label,
                    )
                )
        n_identity_items = len(items)
        n_noise = int(round(
            n_identity_items * config.noise_fraction / max(1e-9, 1.0 - config.noise_fraction)
        ))
        for _ in range(n_noise):
            raw = config.noise_pull * pose + config.noise_spread * rng.normal(
                size=config.dim
            ) / np.sqrt(config.dim)
            items.append(
                FaceItem(
                    item_id=f"{album_id}_i{len(items):04d}",
                    embedding=_unit(raw),
                    quality=_quality(rng, config.q_noise, config.q_jitter),
                    label=NOISE,
                )
            )
        albums.append(Album(album_id=album_id, items=tuple(items)))
    return albums


def hc_baseline(album: Album, config: PolicyConfig, ctx: AlbumContext | None = None) -> Partition:
    """Threshold hierarchical clustering: merge every recommended pair."""
    config = dataclasses.replace(config, strategy=Strategy.HIERARCHICAL_NEAREST)
    partition = Partition.from_singletons(len(album))
    for step in episode(ctx or AlbumContext(album), config, lambda *_: Action.MERGE):
        partition = step.next_state.partition
    return partition


def _restrict(partition: Partition, keep: frozenset[int]) -> Partition:
    member_sets = []
    for _, members in partition.groups:
        kept = members & keep
        if kept:
            member_sets.append(kept)
    member_sets.sort(key=min)
    return Partition.from_groups(member_sets)


def score_album(album: Album, predicted: Partition, costs: CostModel) -> dict:
    """B-cubed scores and normalized operation cost against the album's labels.

    Unlabeled items are dropped from both sides before scoring.
    """
    labeled = frozenset(i for i, it in enumerate(album.items) if it.label is not None)
    if not labeled:
        raise ValueError(f"album {album.album_id} has no labeled items")
    keep_album = Album(
        album_id=album.album_id,
        items=tuple(album.items[i] for i in sorted(labeled)),
    )
    remap = {old: new for new, old in enumerate(sorted(labeled))}
    pred = _restrict(predicted, labeled)
    pred = Partition.from_groups(
        sorted(({remap[i] for i in members} for _, members in pred.groups), key=min)
    )
    gt = ground_truth_partition(keep_album)
    scores = bcubed(pred, gt)
    return {
        "album_id": album.album_id,
        "n_items": len(labeled),
        "precision": scores.precision,
        "recall": scores.recall,
        "f1": scores.f1,
        "op_norm": normalized_op(pred, gt, costs, len(labeled)),
    }


def group_album(
    album: Album, policy: Policy, config: PolicyConfig, rng_seed: int = 0
) -> EpisodeTrace:
    """Run the policy on one album in inference mode (labels untouched)."""
    stripped = Album(
        album_id=album.album_id,
        items=tuple(
            FaceItem(item_id=it.item_id, embedding=it.embedding, quality=it.quality, label=None)
            for it in album.items
        ),
    )
    return run_episode(
        stripped,
        policy,
        config,
        ctx=AlbumContext(stripped),
        rng=album_rng(rng_seed, album.album_id),
    )


def _eval_one(args) -> tuple[dict, EpisodeTrace]:
    album, policy, config = args
    trace = group_album(album, policy, config)
    return score_album(album, trace.final_partition, config.costs), trace


def evaluate(
    albums: list[Album],
    policy: Policy | None,
    config: PolicyConfig,
    partitions: dict[str, Partition] | None = None,
    jobs: int = 1,
) -> dict:
    """Per-album and macro-averaged grouping quality.

    Either a policy (albums are grouped here) or precomputed partitions
    keyed by album id must be supplied.
    """
    if (policy is None) == (partitions is None):
        raise ValueError("exactly one of policy or partitions is required")
    rows = []
    if partitions is not None:
        for album in albums:
            if album.album_id not in partitions:
                raise ValueError(f"no partition supplied for album {album.album_id}")
            rows.append(score_album(album, partitions[album.album_id], config.costs))
    elif jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for row, _ in pool.map(_eval_one, [(a, policy, config) for a in albums]):
                rows.append(row)
    else:
        for album in albums:
            row, _ = _eval_one((album, policy, config))
            rows.append(row)
    macro = {
        key: float(np.mean([r[key] for r in rows]))
        for key in ("precision", "recall", "f1", "op_norm")
    }
    return {
        "schema": SCHEMA_VERSION,
        "config": config.to_dict(),
        "n_albums": len(rows),
        "per_album": rows,
        "macro": macro,
    }


def pr_sweep(
    albums: list[Album],
    policies: dict[str, Policy],
    config: PolicyConfig,
    jobs: int = 1,
) -> list[dict]:
    """Precision/recall operating points of several policies on one dataset
    (e.g. the same learner trained under different cost distributions)."""
    rows = []
    for name, policy in policies.items():
        report = evaluate(albums, policy, config, jobs=jobs)
        rows.append({"name": name, **report["macro"]})
    return rows


def render_table(report: dict) -> str:
    """Human-readable metric table, one album per row plus the macro average."""
    lines = [f"{'album':<14} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7} {'Op':>7}"]
    for row in report["per_album"]:
        lines.append(
            f"{row['album_id']:<14} {100 * row['precision']:>7.1f} "
            f"{100 * row['recall']:>7.1f} {100 * row['f1']:>7.1f} {row['op_norm']:>7.2f}"
        )
    m = report["macro"]
    lines.append(
        f"{'macro':<14} {100 * m['precision']:>7.1f} {100 * m['recall']:>7.1f} "
        f"{100 * m['f1']:>7.1f} {m['op_norm']:>7.2f}"
    )
    if "sweep" in report:
        lines.append("")
        lines.append(f"{'sweep':<14} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7} {'Op':>7}")
        for row in report["sweep"]:
            lines.append(
                f"{row['name']:<14} {100 * row['precision']:>7.1f} "
                f"{100 * row['recall']:>7.1f} {100 * row['f1']:>7.1f} {row['op_norm']:>7.2f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# File formats


def save_dataset(albums: list[Album], path: str) -> None:
    """One JSON record per item, albums in order, full float precision."""
    with open(path, "w") as fh:
        for album in albums:
            for item in album.items:
                fh.write(
                    json.dumps(
                        {
                            "album_id": album.album_id,
                            "item_id": item.item_id,
                            "embedding": item.embedding.tolist(),
                            "quality": item.quality,
                            "label": item.label,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def load_dataset(path: str, normalize: bool = False) -> list[Album]:
    """Parse a dataset file, validating invariants record by record.

    ``normalize`` renormalizes embeddings instead of rejecting off-norm ones.
    """
    order: list[str] = []
    by_album: dict[str, list[FaceItem]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"record {lineno}: invalid JSON ({exc})") from None
            try:
                emb = np.asarray(rec["embedding"], dtype=np.float64)
                if normalize:
                    norm = np.linalg.norm(emb)
                    if norm == 0:
                        raise SchemaError(f"record {lineno}: zero embedding")
                    emb = emb / norm
                item = FaceItem(
                    item_id=rec["item_id"],
                    embedding=emb,
                    quality=float(rec["quality"]),
                    label=rec.get("label"),
                )
            except KeyError as exc:
                raise SchemaError(f"record {lineno}: missing field {exc}") from None
            except ValueError as exc:
                raise SchemaError(f"record {lineno}: {exc}") from None
            album_id = rec.get("album_id")
            if album_id is None:
                raise SchemaError(f"record {lineno}: missing field 'album_id'")
            if album_id not in by_album:
                order.append(album_id)
                by_album[album_id] = []
            by_album[album_id].append(item)
    try:
        return [Album(album_id=aid, items=tuple(by_album[aid])) for aid in order]
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def save_model(model: Policy, config: PolicyConfig, path: str) -> None:
    if isinstance(model, SvmModel):
        doc = {"schema": SCHEMA_VERSION, "kind": "svm", **model.to_dict()}
    elif isinstance(model, ForestModel):
        doc = {"schema": SCHEMA_VERSION, "kind": "forest", **model.to_dict()}
    else:
        raise ValueError(f"cannot serialize model of type {type(model)!r}")
    doc["policy_config"] = config.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> tuple[Policy, PolicyConfig]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"model file is not valid JSON ({exc})") from None
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported model schema {doc.get('schema')!r}")
    try:
        config = PolicyConfig.from_dict(doc["policy_config"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"model policy_config: {exc}") from None
    kind = doc.get("kind")
    if kind == "svm":
        return SvmModel.from_dict(doc), config
    if kind == "forest":
        return ForestModel.from_dict(doc), config
    raise SchemaError(f"unknown model kind {kind!r}")


def save_partitions(entries: list[tuple[Album, Partition]], path: str) -> None:
    """One record per album: its groups as lists of item ids."""
    with open(path, "w") as fh:
        for album, partition in entries:
            groups = [
                sorted(album.items[i].item_id for i in members)
                for _, members in partition.groups
            ]
            groups.sort()
            fh.write(
                json.dumps({"album_id": album.album_id, "groups": groups}, sort_keys=True) + "\n"
            )


def load_partitions(albums: list[Album], path: str) -> dict[str, Partition]:
    by_id = {a.album_id: a for a in albums}
    out: dict[str, Partition] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"record {lineno}: invalid JSON ({exc})") from None
            album = by_id.get(rec.get("album_id"))
            if album is None:
                raise SchemaError(f"record {lineno}: unknown album {rec.get('album_id')!r}")
            index = {it.item_id: i for i, it in enumerate(album.items)}
            try:
                member_sets = [
                    {index[item_id] for item_id in group} for group in rec["groups"]
                ]
            except KeyError as exc:
                raise SchemaError(f"record {lineno}: unknown item id {exc}") from None
            try:
                out[album.album_id] = Partition.from_groups(member_sets)
            except ValueError as exc:
                raise SchemaError(f"record {lineno}: {exc}") from None
    return out


def export_trace(traces: list[EpisodeTrace], path: str) -> None:
    """One JSON record per decision step across all episodes. Inference has
    no long-term reward and executes its own prediction; the keys stay."""
    with open(path, "w") as fh:
        for trace in traces:
            for step in trace.steps:
                fh.write(
                    json.dumps(
                        {
                            "album_id": trace.album_id,
                            "step": step.step,
                            "candidate": list(step.candidate),
                            "action": step.action.value,
                            "predicted": step.action.value,
                            "phi": [float(v) for v in step.phi],
                            "r_short": step.r_short,
                            "r_long": 0.0,
                            "r_total": step.r_short,
                            "elapsed": step.elapsed,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
