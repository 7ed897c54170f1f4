"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks, each printed as a PASS or FAIL line (exit status 1 on any FAIL):

- two traced runs of each workload give exactly the same call and row
  counts (recommend.calls, recommend.live_pairs, engine.steps,
  metrics.op_cost.calls and every other count);
- the tracer restores every wrapped function, and an untraced run leaves
  nothing wrapped;
- op-cost calls made while scoring are not counted as ``metrics.op_cost``;
- a repeat with the same seed, in this process and in a fresh one,
  reproduces the sha256 of the trained model and of the saved partitions;
- the correctness gate rejects a partition that misses an item;
- BENCHMARK.json names exactly the metrics the harness prints;
- run.py exits non-zero, printing no result, without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checkout

SEED = 3
COUNTS = ("recommend.calls", "recommend.live_pairs", "engine.steps", "metrics.op_cost.calls")


def tiny_specs(workloads):
    small = ((3, 8), (4, 8), (3, 9))
    return [
        workloads.Spec("group-forest", "forest", small[:2], 2, 2, small[:2]),
        workloads.Spec("group-large", "svm", small[:2], 0, 0, ((5, 8),)),
        workloads.Spec("train", "forest", small, 2, 2, small[:1]),
    ]


def hashes(workloads, spec) -> tuple[str, str]:
    out = workloads.run(spec, SEED, 0, True, None, checkout.out_dir(f"selftest-{spec.name}"))
    return out.model_sha256, out.partitions_sha256


class Report:
    def __init__(self):
        self.failed = 0

    def check(self, ok: bool, what: str, detail="") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}{': ' + str(detail) if detail else ''}")
        self.failed += not ok


def _originals(tracing):
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in tracing.TARGETS
    ]


def main() -> int:
    checkout.import_facegroup()
    import harness
    import tracer as tracing
    import workloads

    if sys.argv[1:] == ["--hashes"]:
        print(json.dumps({s.name: hashes(workloads, s) for s in tiny_specs(workloads)}))
        return 0

    report = Report()
    originals = _originals(tracing)
    child = subprocess.run(
        [sys.executable, __file__, "--hashes"], capture_output=True, text=True, timeout=600
    )
    child_hashes = json.loads(child.stdout.splitlines()[-1]) if child.returncode == 0 else {}
    report.check(child.returncode == 0, "fresh process computed the hashes", child.stderr[-300:])

    for spec in tiny_specs(workloads):
        work = checkout.out_dir(f"selftest-{spec.name}")
        plain = workloads.run(spec, SEED, 0, True, None, work)
        report.check(
            not tracing.wrapped_names() and _originals(tracing) == originals,
            f"{spec.name}: untraced run leaves nothing wrapped",
        )
        runs = [harness.traced(spec, SEED, work) for _ in range(2)]
        report.check(
            _originals(tracing) == originals and not tracing.wrapped_names(),
            f"{spec.name}: tracer restored every wrapped function",
        )
        counts = [
            {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
            for _, metrics in runs
        ]
        report.check(
            counts[0] == counts[1] and all(counts[0][k] for k in COUNTS),
            f"{spec.name}: counts repeat across traced runs",
            {k: counts[0][k] for k in COUNTS},
        )
        for out, _ in runs:
            report.check(not out.failures, f"{spec.name}: traced run passes the gate",
                         out.failures)
        shas = {(out.model_sha256, out.partitions_sha256) for out, _ in runs}
        shas.add((plain.model_sha256, plain.partitions_sha256))
        shas.add(tuple(child_hashes.get(spec.name, ())))
        report.check(len(shas) == 1, f"{spec.name}: model and partitions reproduce", shas)

    album = workloads.simulate_shapes(1, SEED, ((3, 8),), "gate")[0]
    partition = workloads.core.Partition.from_singletons(len(album) - 1)
    out = workloads.Outcome()
    workloads._check_partition(album, partition, out)
    report.check(len(out.failures) == 1, "gate rejects a partition missing an item")

    with tracing.Tracer() as tr:
        workloads.bench.score_album(album, workloads.core.Partition.from_singletons(len(album)),
                                    workloads.PolicyConfig().costs)
    found = tr.summary()
    report.check(found.get("metrics.score.calls") == 1 and "metrics.op_cost.calls" not in found,
                 "op-cost calls made while scoring are not counted", found)

    doc = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    e2e = workloads.end_to_end(
        workloads.Outcome(setup_s=[1.0], eval_times=[1.0], irl_s=[1.0], q_s=[1.0]), 1.0
    )
    report.check(
        [(m["name"], m["unit"]) for m in doc["end_to_end"]]
        == [(k, v["unit"]) for k, v in e2e.items()],
        "BENCHMARK.json end_to_end matches the harness",
    )
    report.check(
        [(m["name"], m["unit"]) for m in doc["per_layer"]] == harness.LAYER_METRICS,
        "BENCHMARK.json per_layer matches the harness",
    )
    report.check(
        sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.SPECS),
        "BENCHMARK.json workloads match the harness",
    )

    bare = checkout.out_dir("selftest-bare")
    shutil.rmtree(bare)
    shutil.copytree(checkout.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    report.check(result.returncode != 0 and not result.stdout,
                 "run.py without the package exits non-zero with no result",
                 result.returncode)
    shutil.rmtree(bare)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
