"""Command-line entry point: simulate, train, group, eval.

Configuration comes from an optional JSON file (sections "policy", "sim",
"svm", "forest", "train") with individual flags overriding file values;
``core.config_from_dict`` reads each section and ``core.config_dict``
writes the effective configuration into model and report files and into
a ``<output>.meta.json`` sidecar next to JSONL outputs, so every artifact
records how it was produced.

Errors exit 2 with a single machine-parsable line on stderr,
``error:<category>: <detail>``: ``schema-mismatch`` for a file or key
that does not fit its schema, ``missing-file`` for any path that does not
exist, ``invalid-argument`` for a bad value, and the command's own
categories.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import bench, train as train_mod
from .core import SchemaError, config_dict, config_from_dict
from .engine import PolicyConfig
from .features import feature_dim
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
    with open(path) as fh:
        return bench.json_object(fh.read(), "config file")


def _config(doc: dict, section: str, cls, **flags):
    """``cls`` from one section of the config file, with the flags that are set over it."""
    values = doc.get(section, {})
    if isinstance(values, dict):
        values = {**values, **{k: v for k, v in flags.items() if v is not None}}
    return config_from_dict(cls, values)


def _policy_config(doc: dict, costs: str | None, **flags) -> PolicyConfig:
    """The "policy" section with ``--costs`` (comma-separated) and ``flags`` over it."""
    costs = costs and [float(c) for c in costs.split(",")]
    return _config(doc, "policy", PolicyConfig, costs=costs, **flags)


def _write_sidecar(path: str, payload: dict) -> None:
    bench.write_json(path + ".meta.json", payload, indent=2)


def cmd_simulate(args) -> int:
    sim_cfg = _config(_load_config_file(args.config), "sim", bench.SimConfig, seed=args.seed)
    albums = bench.simulate(sim_cfg)
    bench.save_dataset(albums, args.out)
    _write_sidecar(args.out, {"command": "simulate", "sim": config_dict(sim_cfg)})
    logger.info("wrote %d albums (%d items) to %s",
                len(albums), sum(len(a) for a in albums), args.out)
    return 0


def cmd_train(args) -> int:
    doc = _load_config_file(args.config)
    policy_cfg = _policy_config(doc, args.costs, tau=args.tau, strategy=args.strategy)
    svm_hyper = _config(doc, "svm", SvmHyper)
    forest_hyper = _config(doc, "forest", ForestHyper, seed=args.seed)
    train_cfg = _config(doc, "train", train_mod.TrainConfig, seed=args.seed,
                        reward_mode=args.reward_mode)
    albums = bench.load_dataset(args.data, normalize=args.normalize)

    svm, demonstrations = None, None
    # how training ended, without timings, so the sidecar is as deterministic as the model
    meta = {"command": "train", "stage": args.stage}
    if args.stage in ("irl", "both"):
        result = train_mod.irl_train(albums, policy_cfg, svm_hyper, train_cfg)
        svm, demonstrations = result.model, result.demonstrations
        meta.update(
            converged=result.converged,
            epochs_run=result.epochs_run,
            mistakes_per_epoch=result.mistakes_per_epoch,
            mistake_set_size=result.mistake_set_size,
        )
        if args.stage == "irl":
            bench.save_model(svm, policy_cfg, args.out_model)
            _write_sidecar(args.out_model, meta)
            return 0
    if args.stage == "q":
        if not args.svm_model:
            raise CliError("invalid-argument", "stage q requires --svm-model")
        svm, _ = bench.load_model(args.svm_model)
        if not isinstance(svm, SvmModel):
            raise CliError("schema-mismatch", f"{args.svm_model} is not an svm model")
        _check_dim(svm, albums, policy_cfg)
    q_result = train_mod.q_train(albums, svm, policy_cfg, forest_hyper, train_cfg,
                                 demonstrations=demonstrations)
    bench.save_model(q_result.model, policy_cfg, args.out_model)
    meta["n_experiences"] = q_result.n_experiences
    _write_sidecar(args.out_model, meta)
    if args.stage == "both":
        svm_path = args.svm_out or args.out_model + ".svm.json"
        bench.save_model(svm, policy_cfg, svm_path)
        logger.info("stage-one model written to %s", svm_path)
    return 0


def cmd_group(args) -> int:
    albums = bench.load_dataset(args.data, normalize=args.normalize)
    model, policy_cfg = bench.load_model(args.model)
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
        {"command": "group", "model": args.model, "policy": config_dict(policy_cfg)},
    )
    if args.trace:
        bench.export_trace(traces, args.trace)
    return 0


def _check_dim(model, albums, policy_cfg) -> None:
    expected = feature_dim(policy_cfg.eta)
    if isinstance(model, ForestModel):
        expected += 1
    if albums and model.dim != expected:
        raise CliError(
            "dimension-mismatch",
            f"model expects {model.dim}-dim features but configuration yields {expected}",
        )


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise CliError("invalid-argument", f"--jobs must be >= 1, got {args.jobs}")
    albums = bench.load_dataset(args.data, normalize=args.normalize)
    if (args.partitions is None) == (args.model is None):
        raise CliError("invalid-argument", "provide exactly one of --partitions or --model")
    if args.model and (args.config is not None or args.costs is not None):
        raise CliError("invalid-argument", "--config and --costs apply to --partitions only")
    if args.partitions:
        partitions = bench.load_partitions(albums, args.partitions)
        policy_cfg = _policy_config(_load_config_file(args.config), args.costs)
        report = bench.evaluate(albums, None, policy_cfg, partitions=partitions)
    else:
        model, policy_cfg = bench.load_model(args.model)
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
            policies[name], _ = bench.load_model(path)
            _check_dim(policies[name], albums, policy_cfg)
        report["sweep"] = [
            {"name": name, **bench.evaluate(albums, policy, policy_cfg, jobs=args.jobs)["macro"]}
            for name, policy in policies.items()
        ]
    bench.write_json(args.report, report)
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
    p.add_argument("--config", help="JSON config file (--partitions only)")
    p.add_argument("--costs", help="operation costs for scoring (--partitions only)")
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
        category, detail = exc.category, exc
    except SchemaError as exc:
        category, detail = "schema-mismatch", exc
    except FileNotFoundError as exc:
        category, detail = "missing-file", f"no such file or directory: {exc.filename}"
    except (ValueError, OSError) as exc:
        category, detail = "invalid-argument", exc
    print(f"error:{category}: {detail}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
