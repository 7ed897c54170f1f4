"""One benchmark run: one workload, one seed, one result line.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped. With ``--trace 1`` it does a fixed amount of work (one set-up and
one pass) twice, first untraced and then traced, and reports the per-layer
metrics of the traced pass and the tracing overhead; its call and row
counts repeat exactly for a given seed. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it records the environment and the ungated details.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time

import checkout
import tracer as tracing
import workloads

# Per-layer metrics of a traced run: (name, unit). Counts come from call
# arguments and results, times are self times derived from the spans.
LAYER_METRICS = [
    ("recommend.calls", "count"),
    ("recommend.self_s", "s"),
    ("recommend.live_pairs", "count"),
    ("recommend.distance_evals", "count"),
    ("features.extract.calls", "count"),
    ("features.extract.self_s", "s"),
    ("features.pair_distance.self_s", "s"),
    ("features.context.self_s", "s"),
    *[
        (f"learn.{layer}.{what}", unit)
        for layer in ("forest_predict", "svm_decision", "svm_fit", "forest_fit")
        for what, unit in (("calls", "count"), ("rows", "count"), ("self_s", "s"))
    ],
    *[
        (f"{layer}.{what}", unit)
        for layer in ("core.transition", "core.expert", "metrics.op_cost", "engine.episode")
        for what, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("engine.steps", "count"),
    ("train.expert_trajectory.self_s", "s"),
    ("train.irl_epochs", "count"),
    ("train.mistake_set_size", "count"),
    ("train.q_experiences", "count"),
    ("train.irl_s", "s"),
    ("train.q_s", "s"),
    ("bench.simulate.self_s", "s"),
    ("bench.model_io.self_s", "s"),
    ("metrics.score.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

# Layers that read labels; inside the timed section of a group workload
# they must not run at all.
LABEL_READERS = ("core.expert", "metrics.op_cost")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(spec, seed, seconds, work) -> tuple[workloads.Outcome, dict]:
    out = workloads.run(spec, seed, seconds, False, None, work)
    return out, workloads.end_to_end(out, _peak_rss_mb())


def traced(spec, seed, work) -> tuple[workloads.Outcome, dict]:
    """Fixed work untraced, then the same work traced: per-layer metrics."""
    t0 = time.perf_counter()
    plain = workloads.run(spec, seed, 0, True, None, work)
    untraced_s = time.perf_counter() - t0
    with tracing.Tracer() as tr:
        t0 = time.perf_counter()
        out = workloads.run(spec, seed, 0, True, tr, work)
        traced_s = time.perf_counter() - t0
    for name in ("model_sha256", "partitions_sha256"):
        if getattr(plain, name) != getattr(out, name):
            out.fail(f"traced pass changed {name}")
    out.failures.extend(plain.failures)
    out.attempted += plain.attempted
    if spec.name != "train":
        timed = tr.calls_under("perfbench.album")
        for layer in LABEL_READERS:
            if timed[layer]:
                out.fail(f"{layer} ran {timed[layer]} times while grouping")
    tr.write(work / "spans.tsv")

    found = tr.summary()
    found["recommend.distance_evals"] = found.get("features.pair_distance.calls", 0)
    found["train.irl_s"] = tr.inclusive_s("train.irl")
    found["train.q_s"] = tr.inclusive_s("train.q")
    found["trace.untraced_s"] = untraced_s
    found["trace.overhead_s"] = traced_s - untraced_s
    found["trace.spans"] = len(tr.start)
    metrics = {
        name: {"value": found.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS
    }
    return out, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = checkout.out_dir(f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spec = workloads.SPECS[args.workload]
    if args.trace:
        out, metrics = traced(spec, args.seed, work)
    else:
        out, metrics = untraced(spec, args.seed, args.seconds, work)
    if tracing.wrapped_names():
        out.fail(f"wrappers installed after the run: {tracing.wrapped_names()}")
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            out.fail(f"{name} was not measured")
            metric["value"] = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "environment": checkout.environment(),
        "details": workloads.details(out),
    }
    (work / "result.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    print(json.dumps(record, allow_nan=False))
    print(
        json.dumps(
            {
                "correct": not out.failures,
                "attempted": out.attempted,
                "failed": len(out.failures),
                "metrics": metrics,
            }
        )
    )
    return 0
