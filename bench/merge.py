"""Fold pytest-benchmark JSON runs into one BENCH_<n>.json.

    python bench/merge.py BENCH_4.json parent=p1.json,p2.json change=c1.json,c2.json

Each ``label=files`` becomes one entry: the commit and machine facts of its
runs and, per benchmark, the median over runs of each run's median in us,
with every run's median listed.  On a shared host one run's speed drifts,
so alternate the labels' runs and give several per label.
"""

import json
import statistics
import sys


def entry(paths: list[str]) -> dict:
    runs = [json.loads(open(p).read()) for p in paths]
    machine = runs[0]["machine_info"]
    medians: dict[str, list[float]] = {}
    for run in runs:
        for b in run["benchmarks"]:
            medians.setdefault(b["name"].removeprefix("test_"), []).append(b["stats"]["median"] * 1e6)
    return {
        "commit": runs[0].get("commit_info", {}).get("id"),
        "datetimes": [run["datetime"] for run in runs],
        "machine": {k: machine.get(k) for k in ("cpu_count", "python_version", "numpy_version")},
        "us": {
            name: {"median": round(statistics.median(ms), 3), "runs": [round(m, 3) for m in ms]}
            for name, ms in medians.items()
        },
    }


def main(argv: list[str]) -> None:
    out, *labelled = argv
    merged = {label: entry(files.split(",")) for label, files in (a.split("=", 1) for a in labelled)}
    with open(out, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
