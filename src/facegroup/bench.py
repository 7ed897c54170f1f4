"""Synthetic album simulator, dataset / model / trace files, and evaluation.

The simulator stands in for a deep face embedding: identity centers live on
the unit sphere, frontal items stay close to their center, profile items
are pulled toward a shared per-album pose direction (so profiles of
different identities can be closer to each other than to their own
frontals), and noise items are uniform on the sphere with low quality.

All randomness flows from numpy's PCG64 generator seeded via SeedSequence,
so a fixed seed reproduces a dataset bit for bit. Files are JSON Lines for
datasets, partitions, and traces (``write_records``), and one JSON document
for models, reports and sidecars (``write_json``).
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    SchemaError,
    config_dict,
    config_from_dict,
    ground_truth_partition,
    transition,
)
from .engine import EpisodeTrace, Policy, PolicyConfig, album_rng, episode, run_episode
from .features import AlbumContext
from .learn import ForestModel, SvmModel
from .metrics import bcubed, normalized_op
from .recommend import Strategy, recommend  # noqa: F401

SCHEMA_VERSION = 1


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
        if self.n_albums < 0:
            raise ValueError(f"n_albums must be >= 0, got {self.n_albums}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        for name in ("identities", "items_per_identity"):
            low, high = getattr(self, name)
            if not 1 <= low <= high:
                raise ValueError(f"{name} must have 1 <= low <= high, got {[low, high]}")
        if self.identities[1] > self.dim:
            raise ValueError("at most dim identities fit per album")
        for name in ("profile_fraction", "noise_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.profile_fraction + self.noise_fraction > 1.0:
            raise ValueError("profile and noise fractions must sum to at most 1")


def simulate(config: SimConfig) -> list[Album]:
    """Generate labeled synthetic albums; same config -> identical albums."""
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_albums)
    identity_share = max(1e-9, 1.0 - config.noise_fraction)
    albums = []
    for a_idx, seq in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seq))
        album_id = f"album{a_idx:03d}"
        pose = rng.normal(size=config.dim)
        pose /= np.linalg.norm(pose)
        # orthonormal identity centers: pairwise angular distance exactly 0.5
        basis, _ = np.linalg.qr(rng.normal(size=(config.dim, config.dim)))
        items: list[FaceItem] = []

        def add(base: np.ndarray, spread: float, q_mean: float, n: int, label: str) -> None:
            # one row per item: its dim jitters, then its quality draw
            z = rng.normal(size=(n, config.dim + 1))
            raw = base + spread * z[:, :config.dim] / np.sqrt(config.dim)
            raw /= np.sqrt(np.vecdot(raw, raw))[:, None]
            qualities = np.clip(q_mean + config.q_jitter * z[:, config.dim], 0.0, 1.0).tolist()
            for emb, quality in zip(raw, qualities):
                items.append(FaceItem(f"{album_id}_i{len(items):04d}", emb, quality, label))

        n_identities = int(rng.integers(config.identities[0], config.identities[1] + 1))
        for ident in range(n_identities):
            label = f"{album_id}_id{ident:02d}"
            center = basis[:, ident]
            count = int(
                rng.integers(config.items_per_identity[0], config.items_per_identity[1] + 1)
            )
            n_profile = int(round(count * config.profile_fraction / identity_share))
            profile = (1.0 - config.profile_pull) * center + config.profile_pull * pose
            add(profile, config.profile_spread, config.q_profile, n_profile, label)
            add(center, config.frontal_spread, config.q_frontal, count - n_profile, label)
        n_noise = int(round(len(items) * config.noise_fraction / identity_share))
        add(config.noise_pull * pose, config.noise_spread, config.q_noise, n_noise, NOISE)
        albums.append(Album(album_id=album_id, items=tuple(items)))
    return albums


def hc_baseline(album: Album, config: PolicyConfig) -> Partition:
    """Threshold hierarchical clustering: merge every recommended pair."""
    config = dataclasses.replace(config, strategy=Strategy.HIERARCHICAL_NEAREST)
    partition = Partition.from_singletons(len(album))
    for step in episode(AlbumContext(album), config, lambda *_: Action.MERGE):
        partition = step.next_state.partition
    return partition


def score_album(album: Album, predicted: Partition, costs: CostModel) -> dict:
    """B-cubed scores and normalized operation cost against the album's labels.

    Unlabeled items are dropped from both sides before scoring.
    """
    labeled = [i for i, it in enumerate(album.items) if it.label is not None]
    if not labeled:
        raise ValueError(f"album {album.album_id} has no labeled items")
    remap = {old: new for new, old in enumerate(labeled)}
    # the renumbering is monotone, so one sort by smallest member suffices
    kept = ({remap[i] for i in members if i in remap} for _, members in predicted.groups)
    pred = Partition.from_groups(sorted(filter(None, kept), key=min))
    keep_album = Album(album_id=album.album_id, items=tuple(album.items[i] for i in labeled))
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


def group_album(album: Album, policy: Policy, config: PolicyConfig) -> EpisodeTrace:
    """Run the policy on one album in inference mode: no label is read."""
    return run_episode(album, policy, config, rng=album_rng(0, album.album_id))


def _eval_one(args) -> dict:
    album, policy, config = args
    return score_album(album, group_album(album, policy, config).final_partition, config.costs)


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
            rows = list(pool.map(_eval_one, [(a, policy, config) for a in albums]))
    else:
        rows = [_eval_one((album, policy, config)) for album in albums]
    macro = {
        key: float(np.mean([r[key] for r in rows]))
        for key in ("precision", "recall", "f1", "op_norm")
    }
    return {
        "schema": SCHEMA_VERSION,
        "config": config_dict(config),
        "n_albums": len(rows),
        "per_album": rows,
        "macro": macro,
    }


def render_table(report: dict) -> str:
    """Human-readable metric table, one album per row plus the macro average,
    then a row per sweep model when the report holds a sweep."""

    def header(name: str) -> str:
        return f"{name:<14} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7} {'Op':>7}"

    def row(name: str, m: dict) -> str:
        return (f"{name:<14} {100 * m['precision']:>7.1f} {100 * m['recall']:>7.1f} "
                f"{100 * m['f1']:>7.1f} {m['op_norm']:>7.2f}")

    lines = [header("album"), *(row(r["album_id"], r) for r in report["per_album"])]
    lines.append(row("macro", report["macro"]))
    if "sweep" in report:
        lines += ["", header("sweep"), *(row(r["name"], r) for r in report["sweep"])]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# File formats


def write_records(path: str, records: Iterable[dict]) -> None:
    """A JSON Lines file: each record with sorted keys on its own line."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_json(path: str, doc: dict, indent: int | None = None) -> None:
    """A one-document JSON file with sorted keys and a final newline; the
    document streams to the file, so no copy of it is built as text."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def save_dataset(albums: list[Album], path: str) -> None:
    """One JSON record per item, albums in order, full float precision."""
    write_records(path, (
        {
            "album_id": album.album_id,
            "item_id": item.item_id,
            "embedding": item.embedding.tolist(),
            "quality": item.quality,
            "label": item.label,
        }
        for album in albums
        for item in album.items
    ))


def json_object(text: str, where: str) -> dict:
    """``text`` read as JSON, which must be an object: invalid JSON or
    another value is a SchemaError that starts with ``where``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: not a JSON object")
    return doc


def _records(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, record) of every non-blank line of a JSON Lines file."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, json_object(line, f"record {lineno}")


def load_dataset(path: str, normalize: bool = False) -> list[Album]:
    """Parse a dataset file, validating invariants record by record.

    ``normalize`` renormalizes embeddings instead of rejecting off-norm ones.
    """
    by_album: dict[str, list[FaceItem]] = {}
    for lineno, rec in _records(path):
        try:
            album_id, item_id, label = rec["album_id"], rec["item_id"], rec.get("label")
            if not (isinstance(album_id, str) and isinstance(item_id, str)):
                raise ValueError("album_id and item_id must be strings")
            if not (label is None or isinstance(label, str)):
                raise ValueError("label must be a string or null")
            quality = rec["quality"]
            if isinstance(quality, bool) or not isinstance(quality, (int, float)):
                raise ValueError("quality must be a number")
            emb = np.asarray(rec["embedding"], dtype=np.float64)
            if normalize:
                norm = np.linalg.norm(emb)
                if norm == 0:
                    raise ValueError("zero embedding")
                emb = emb / norm
            item = FaceItem(item_id, emb, float(quality), label)
        except KeyError as exc:
            raise SchemaError(f"record {lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"record {lineno}: {exc}") from None
        by_album.setdefault(album_id, []).append(item)
    try:
        return [Album(album_id=aid, items=tuple(items)) for aid, items in by_album.items()]
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# a model file's "kind" and the class it holds
_MODEL_KINDS = {"svm": SvmModel, "forest": ForestModel}


def save_model(model: Policy, config: PolicyConfig, path: str) -> None:
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ValueError(f"cannot serialize model of type {type(model)!r}")
    doc = {"schema": SCHEMA_VERSION, "kind": kind, **model.to_dict()}
    doc["policy_config"] = config_dict(config)
    write_json(path, doc)


def load_model(path: str) -> tuple[Policy, PolicyConfig]:
    """Read a model file; any missing or malformed content is a SchemaError."""
    with open(path) as fh:
        doc = json_object(fh.read(), "model file")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported model schema {doc.get('schema')!r}")
    kind = doc.get("kind")
    cls = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"unknown model kind {kind!r}")
    try:
        return cls.from_dict(doc), config_from_dict(PolicyConfig, doc["policy_config"])
    except KeyError as exc:
        raise SchemaError(f"{kind} model: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{kind} model: {exc}") from None


def save_partitions(entries: list[tuple[Album, Partition]], path: str) -> None:
    """One record per album: its groups as sorted lists of item ids, in order."""
    write_records(path, (
        {
            "album_id": album.album_id,
            "groups": sorted(
                sorted(album.items[i].item_id for i in members)
                for _, members in partition.groups
            ),
        }
        for album, partition in entries
    ))


def load_partitions(albums: list[Album], path: str) -> dict[str, Partition]:
    by_id = {a.album_id: a for a in albums}
    out: dict[str, Partition] = {}
    for lineno, rec in _records(path):
        album_id, groups = rec.get("album_id"), rec.get("groups")
        album = by_id.get(album_id) if isinstance(album_id, str) else None
        if album is None:
            raise SchemaError(f"record {lineno}: unknown album {album_id!r}")
        if not isinstance(groups, list) or not all(
            isinstance(g, list) and all(isinstance(i, str) for i in g) for g in groups
        ):
            raise SchemaError(f"record {lineno}: groups must be lists of item ids")
        index = {it.item_id: i for i, it in enumerate(album.items)}
        try:
            member_sets = [{index[item_id] for item_id in group} for group in groups]
        except KeyError as exc:
            raise SchemaError(f"record {lineno}: unknown item id {exc}") from None
        try:
            out[album.album_id] = Partition.from_groups(member_sets)
        except ValueError as exc:
            raise SchemaError(f"record {lineno}: {exc}") from None
    return out


def export_trace(traces: list[EpisodeTrace], path: str) -> None:
    """One JSON record per decision step across all episodes."""
    write_records(path, (
        {
            "album_id": trace.album_id,
            "step": step.step,
            "candidate": list(step.candidate),
            "action": step.action.value,
            "phi": [float(v) for v in step.phi],
            "r_short": step.r_short,
            "elapsed": step.elapsed,
        }
        for trace in traces
        for step in trace.steps
    ))
