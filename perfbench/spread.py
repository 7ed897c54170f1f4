"""Seed spread of one workload, as the benchmark's acceptance check takes it.

    python3 perfbench/spread.py group-forest 101 102 103 104 105 106 107 108 109 110

Runs ``run.py --trace 0`` once per seed, one after another, for
BENCHMARK.json's ``run_seconds``. Prints one line per run, then for each
end-to-end metric its median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound. Exits with status 1 when
a run fails or is not correct.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import checkout


def main() -> int:
    workload, seeds = sys.argv[1], [int(s) for s in sys.argv[2:]]
    doc = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    status = 0
    for seed in seeds:
        cmd = [*doc["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(doc["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            status = 1
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        if seed == seeds[0]:
            print(json.dumps(record["environment"]))
        status |= not result["correct"]
        figures = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in figures.items():
            values.setdefault(name, []).append(value)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"],
                          **figures, "setup_s_all": record["details"]["setup_s_all"]}),
              flush=True)
    for metric in doc["end_to_end"]:
        name = metric["name"]
        if len(values.get(name, ())) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        print(f"{name:14s} median {median:.6g}  spread {(q3 - q1) / median:.4f}"
              f"  bound {metric['bound']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
