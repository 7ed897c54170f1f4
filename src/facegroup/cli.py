"""Command-line entry point: simulate, train, group, eval.

Configuration comes from an optional JSON file (sections "policy", "sim",
"svm", "forest", "train") with individual flags overriding file values.
The effective configuration is embedded in model and report files and
written as a ``<output>.meta.json`` sidecar next to JSONL outputs, so every
artifact records how it was produced.

Errors exit nonzero with a single machine-parsable line on stderr:
``error:<category>: <detail>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from . import bench, train as train_mod
from .core import CostModel
from .engine import PolicyConfig
from .learn import ForestHyper, ForestModel, SvmHyper, SvmModel
from .recommend import Strategy

logger = logging.getLogger("facegroup")


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError("missing-file", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError("schema-mismatch", f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError("schema-mismatch", "config file must hold a JSON object")
    return doc


def _parse_costs(text: str) -> CostModel:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError("invalid-argument", f"--costs expects add,remove,merge, got {text!r}")
    try:
        add, remove, merge = (float(p) for p in parts)
        return CostModel(c_add=add, c_remove=remove, c_merge=merge)
    except ValueError as exc:
        raise CliError("invalid-argument", f"bad --costs value: {exc}") from None


def _build(cls, section: dict, **overrides):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise CliError("schema-mismatch", f"unknown {cls.__name__} keys: {sorted(unknown)}")
    merged = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise CliError("invalid-argument", f"bad {cls.__name__}: {exc}") from None


def _policy_config(doc: dict, args) -> PolicyConfig:
    try:
        config = PolicyConfig.from_dict(doc.get("policy", {}))
    except (TypeError, ValueError) as exc:
        raise CliError("schema-mismatch", f"bad policy section: {exc}") from None
    overrides = {}
    if getattr(args, "costs", None):
        overrides["costs"] = _parse_costs(args.costs)
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "strategy", None):
        overrides["strategy"] = Strategy(args.strategy)
    return dataclasses.replace(config, **overrides)


def _write_sidecar(path: str, payload: dict) -> None:
    with open(path + ".meta.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(path: str, normalize: bool):
    try:
        return bench.load_dataset(path, normalize=normalize)
    except FileNotFoundError:
        raise CliError("missing-file", f"dataset not found: {path}") from None
    except bench.SchemaError as exc:
        raise CliError("schema-mismatch", str(exc)) from None


def _load_model(path: str):
    try:
        return bench.load_model(path)
    except FileNotFoundError:
        raise CliError("missing-file", f"model not found: {path}") from None
    except bench.SchemaError as exc:
        raise CliError("schema-mismatch", str(exc)) from None


def cmd_simulate(args) -> int:
    doc = _load_config_file(args.config)
    sim_section = dict(doc.get("sim", {}))
    if args.seed is not None:
        sim_section["seed"] = args.seed
    sim_cfg = _build(bench.SimConfig, sim_section)
    albums = bench.simulate(sim_cfg)
    bench.save_dataset(albums, args.out)
    _write_sidecar(args.out, {"command": "simulate", "sim": sim_cfg.to_dict()})
    logger.info("wrote %d albums (%d items) to %s",
                len(albums), sum(len(a) for a in albums), args.out)
    return 0


def cmd_train(args) -> int:
    doc = _load_config_file(args.config)
    policy_cfg = _policy_config(doc, args)
    svm_hyper = _build(SvmHyper, doc.get("svm", {}), seed=args.seed)
    forest_section = dict(doc.get("forest", {}))
    if "always_include" in forest_section:
        forest_section["always_include"] = tuple(forest_section["always_include"])
    forest_hyper = _build(ForestHyper, forest_section, seed=args.seed)
    train_cfg = _build(train_mod.TrainConfig, doc.get("train", {}), seed=args.seed,
                       reward_mode=args.reward_mode)
    albums = _load_dataset(args.data, args.normalize)

    svm = None
    if args.stage in ("irl", "both"):
        result = train_mod.irl_train(albums, policy_cfg, svm_hyper, train_cfg)
        svm = result.model
        if not result.converged:
            logger.warning("IRL stage stopped before zero mistakes")
        if args.stage == "irl":
            bench.save_model(svm, policy_cfg, args.out_model)
            return 0
    if args.stage == "q":
        if not args.svm_model:
            raise CliError("invalid-argument", "stage q requires --svm-model")
        svm, _ = _load_model(args.svm_model)
        if not isinstance(svm, SvmModel):
            raise CliError("schema-mismatch", f"{args.svm_model} is not an svm model")
    q_result = train_mod.q_train(albums, svm, policy_cfg, forest_hyper, train_cfg)
    bench.save_model(q_result.model, policy_cfg, args.out_model)
    if args.stage == "both":
        svm_path = args.svm_out or args.out_model + ".svm.json"
        bench.save_model(svm, policy_cfg, svm_path)
        logger.info("stage-one model written to %s", svm_path)
    return 0


def cmd_group(args) -> int:
    albums = _load_dataset(args.data, args.normalize)
    model, policy_cfg = _load_model(args.model)
    _check_dim(model, albums, policy_cfg)
    entries = []
    traces = []
    for album in albums:
        trace = bench.group_album(album, model, policy_cfg)
        entries.append((album, trace.final_partition))
        traces.append(trace)
    bench.save_partitions(entries, args.out_partitions)
    _write_sidecar(
        args.out_partitions,
        {"command": "group", "model": args.model, "policy": policy_cfg.to_dict()},
    )
    if args.trace:
        bench.export_trace(traces, args.trace)
    return 0


def _check_dim(model, albums, policy_cfg) -> None:
    from .features import feature_dim

    expected = feature_dim(policy_cfg.eta)
    if isinstance(model, ForestModel):
        expected += 1
    if albums and model.dim != expected:
        raise CliError(
            "dimension-mismatch",
            f"model expects {model.dim}-dim features but configuration yields {expected}",
        )


def cmd_eval(args) -> int:
    albums = _load_dataset(args.data, args.normalize)
    if (args.partitions is None) == (args.model is None):
        raise CliError("invalid-argument", "provide exactly one of --partitions or --model")
    if args.partitions:
        try:
            partitions = bench.load_partitions(albums, args.partitions)
        except FileNotFoundError:
            raise CliError("missing-file", f"partitions not found: {args.partitions}") from None
        except bench.SchemaError as exc:
            raise CliError("schema-mismatch", str(exc)) from None
        doc = _load_config_file(args.config)
        policy_cfg = _policy_config(doc, args)
        report = bench.evaluate(albums, None, policy_cfg, partitions=partitions)
    else:
        model, policy_cfg = _load_model(args.model)
        _check_dim(model, albums, policy_cfg)
        report = bench.evaluate(albums, model, policy_cfg, jobs=args.jobs)
    if args.cost_sweep:
        policies = {}
        for entry in args.cost_sweep:
            if "=" not in entry:
                raise CliError(
                    "invalid-argument", f"--cost-sweep expects NAME=MODEL, got {entry!r}"
                )
            name, path = entry.split("=", 1)
            policies[name], _ = _load_model(path)
        report["sweep"] = bench.pr_sweep(albums, policies, policy_cfg, jobs=args.jobs)
    with open(args.report, "w") as fh:
        json.dump(report, fh, sort_keys=True)
        fh.write("\n")
    print(bench.render_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facegroup",
        description="Sequential merge/not-merge grouping of embedding albums.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output dataset (JSONL)")
    p.add_argument("--seed", type=int, help="override the simulator seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="learn the reward and the action-value policy")
    p.add_argument("--data", required=True, help="labeled dataset (JSONL)")
    p.add_argument("--out-model", required=True, help="output model (JSON)")
    p.add_argument("--stage", choices=("irl", "q", "both"), default="both")
    p.add_argument("--svm-model", help="stage-one model, required for --stage q")
    p.add_argument("--svm-out", help="where to store the stage-one model with --stage both")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--costs", help="add,remove,merge operation costs (default 1,6,1)")
    p.add_argument("--tau", type=float, help="recommender distance threshold")
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--reward-mode", choices=("svm", "pm1"), default=None,
                   help="pm1 replaces the learned margin with a +/-1 agreement loss")
    p.add_argument("--normalize", action="store_true", help="renormalize input embeddings")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("group", help="partition albums with a trained model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-partitions", required=True, help="output partitions (JSONL)")
    p.add_argument("--trace", help="optional per-step trace log (JSONL)")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("eval", help="score predictions against album labels")
    p.add_argument("--data", required=True)
    p.add_argument("--partitions", help="predicted partitions (JSONL)")
    p.add_argument("--model", help="model to run instead of precomputed partitions")
    p.add_argument("--report", required=True, help="output report (JSON)")
    p.add_argument("--cost-sweep", action="append", metavar="NAME=MODEL",
                   help="extra models (e.g. trained under other cost distributions) "
                        "for a precision/recall sweep (repeatable)")
    p.add_argument("--config", help="JSON config file (used with --partitions)")
    p.add_argument("--costs", help="operation costs for scoring")
    p.add_argument("--tau", type=float)
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--jobs", type=int, default=1, help="album-level parallelism")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error:invalid-argument: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
