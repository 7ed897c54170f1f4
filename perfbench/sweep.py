"""Scaling sweep: grouping time against album size (a report, not gated).

    python3 perfbench/sweep.py

For each album size N in ``SIZES`` it times ``bench.hc_baseline`` (merge
every recommended pair) and ``bench.group_album`` with a stage-one SVM
policy, each point in its own process killed after ``CAP_S`` seconds; once
a point is capped the larger sizes of that kind are skipped. Each point is
timed untraced, then run again traced for the recommender's self time.
The report gives, per kind, ``recommend.self_s`` and the wall time
against N with their fitted log-log exponents, and is written to
``.perfbench_out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import checkout

KINDS = ("hc", "svm")
# Fixed so that sweeps of different commits compare point by point.
SIZES = (50, 100, 200, 400, 800)
SEED = 0
CAP_S = 120.0


def shape_for(n: int) -> tuple[int, int]:
    """Simulator shape whose album has about ``n`` items (15 % noise added)."""
    identities = min(16, max(3, round(n / 50)))
    return identities, max(2, round(0.85 * n / identities))


def point(kind: str, n: int) -> dict:
    """Time one album of about ``n`` items; runs in a child process.

    Prints the untraced figures as soon as they are measured, and returns
    them with the traced recommender figures added.
    """
    import tracer as tracing
    import workloads
    from facegroup import bench

    (album,) = workloads.simulate_shapes(901, SEED, (shape_for(n),), "sweep")
    cfg = workloads.PolicyConfig()
    if kind == "hc":
        def job():
            return bench.hc_baseline(album, cfg)
    else:
        train_albums = workloads.simulate_shapes(501, 0, workloads.ACCEPTANCE[:3], "train")
        svm = workloads.train.irl_train(train_albums, cfg, workloads.SVM_HYPER).model

        def job():
            return bench.group_album(album, svm, cfg).final_partition

    t0 = time.perf_counter()
    partition = job()
    row = {
        "kind": kind,
        "n_items": len(album),
        "wall_s": time.perf_counter() - t0,
        "groups": partition.n_groups,
    }
    # A point capped while traced still reports its untraced time.
    print(json.dumps(row), flush=True)
    with tracing.Tracer() as tr:
        job()
    summary = tr.summary()
    return {
        **row,
        "recommend.calls": summary.get("recommend.calls", 0),
        "recommend.self_s": summary.get("recommend.self_s", 0.0),
        "recommend.total_s": tr.inclusive_s("recommend"),
        "features.pair_distance.self_s": summary.get("features.pair_distance.self_s", 0.0),
        "recommend.distance_evals": summary.get("features.pair_distance.calls", 0),
    }


def exponent(rows: list[dict], key: str) -> float | None:
    import numpy as np

    rows = [r for r in rows if r.get(key)]
    if len(rows) < 2:
        return None
    slope, _ = np.polyfit(np.log([r["n_items"] for r in rows]), np.log([r[key] for r in rows]), 1)
    return float(slope)


def main() -> int:
    parser = argparse.ArgumentParser(description="album-size scaling sweep")
    parser.add_argument("--point", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    checkout.import_facegroup()

    if args.point:
        print(json.dumps(point(args.point[0], int(args.point[1]))))
        return 0

    report = {"environment": checkout.environment(), "cap_s": CAP_S, "seed": SEED}
    for kind in KINDS:
        rows = []
        for n in SIZES:
            if rows and rows[-1].get("capped"):
                rows.append({"kind": kind, "n_target": n, "skipped": True})
                continue
            cmd = [sys.executable, __file__, "--point", kind, str(n)]
            try:
                child = subprocess.run(cmd, capture_output=True, text=True, timeout=CAP_S)
            except subprocess.TimeoutExpired as exc:
                partial = (exc.stdout or b"").decode().splitlines()
                untimed = json.loads(partial[-1]) if partial else {"kind": kind}
                rows.append({"n_target": n, **untimed, "capped": True})
                print(json.dumps(rows[-1]), file=sys.stderr)
                continue
            if child.returncode != 0:
                print(child.stderr, file=sys.stderr)
                return 1
            rows.append({"n_target": n, **json.loads(child.stdout.splitlines()[-1])})
            print(json.dumps(rows[-1]), file=sys.stderr)
        report[kind] = {
            "points": rows,
            "exponent": {
                key: exponent(rows, key)
                for key in ("wall_s", "recommend.self_s", "recommend.total_s")
            },
        }
    (checkout.out_dir("sweep") / "sweep.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
