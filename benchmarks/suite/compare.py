"""``compare BASE CHANGE``: per-metric verdicts for two result files.

A result file holds one JSON line per run (``run --out F`` appends).  For
every workload, seed and metric the two sides' medians and quartiles are
set side by side, and the change gets a verdict under the metric's bound
from BENCHMARK.json:

* ``unresolved`` when either side's quartile spread exceeds the bound;
* ``worse`` / ``better`` when the medians differ by more than the bound;
* ``unchanged`` otherwise.

Per-layer metrics have no bound and are listed for reading only.  The
command exits 1 on any worse end-to-end metric or a higher failure ratio.
It exits 2 without verdicts when either file holds a ``--smoke`` run, or
when the runs differ in length, core count or Python version, within a
file or between the two: such runs do not measure the same thing.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.suite.harness import BENCHMARK, quartiles

#: Run facts that must be equal across every run being compared.
SAME = ("seconds", "nproc", "python")


def load_runs(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _samples(runs: list[dict]) -> dict[tuple[str, int, str], list[float]]:
    samples: dict[tuple[str, int, str], list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            key = (run["workload"], run["seed"], name)
            samples.setdefault(key, []).append(metric["value"])
    return samples


def _fail_frac(runs: list[dict], workload: str, seed: int) -> float:
    mine = [
        run["result"] for run in runs
        if (run["workload"], run["seed"]) == (workload, seed)
    ]
    attempted = sum(result["attempted"] for result in mine)
    return sum(result["failed"] for result in mine) / max(1, attempted)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict; ``better`` is ``"lower"`` or ``"higher"``."""
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    if (b3 - b1) > bound * abs(b2) or (c3 - c1) > bound * abs(c2):
        return "unresolved"
    worse_by = (c2 - b2) / abs(b2) if b2 else 0.0
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def refusal(paths: tuple[str, str], sides: tuple[list[dict], list[dict]]) -> str | None:
    """Why the two files cannot be compared, or ``None``."""
    smoke = [p for p, runs in zip(paths, sides) if any(r.get("smoke") for r in runs)]
    if smoke:
        return f"refusing --smoke results in {', '.join(smoke)}"
    for fact in SAME:
        seen = {run.get(fact) for runs in sides for run in runs}
        if len(seen) > 1:
            return f"refusing runs with different {fact}: {sorted(map(str, seen))}"
    return None


def compare_files(base_path: str, change_path: str) -> int:
    base, change = load_runs(base_path), load_runs(change_path)
    reason = refusal((base_path, change_path), (base, change))
    if reason:
        print(reason)
        return 2
    end_to_end = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
    base_samples, change_samples = _samples(base), _samples(change)

    regressed = False
    print(f"{'workload':15} {'seed':>4} {'metric':26} {'base median [q1, q3]':>36}"
          f" {'change median [q1, q3]':>36} {'delta':>8}  verdict")
    for key in sorted(base_samples.keys() & change_samples.keys()):
        workload, seed, name = key
        before, after = base_samples[key], change_samples[key]
        b1, b2, b3 = quartiles(before)
        c1, c2, c3 = quartiles(after)
        delta = (c2 - b2) / abs(b2) if b2 else 0.0
        metric = end_to_end.get(name)
        if metric is None:
            word = "-"
        else:
            word = verdict(before, after, metric["better"], metric["bound"])
            regressed |= word == "worse"
        print(f"{workload:15} {seed:>4} {name:26}"
              f" {_cell(b2, b1, b3, len(before)):>36}"
              f" {_cell(c2, c1, c3, len(after)):>36} {delta:+8.1%}  {word}")
    for workload, seed in sorted({(r["workload"], r["seed"]) for r in base}
                                 & {(r["workload"], r["seed"]) for r in change}):
        before = _fail_frac(base, workload, seed)
        after = _fail_frac(change, workload, seed)
        word = "worse" if after > before else "unchanged"
        regressed |= word == "worse"
        print(f"{workload:15} {seed:>4} {'fail_frac':26} {before:>36.4g}"
              f" {after:>36.4g} {'':>8}  {word}")
    return 1 if regressed else 0


def _cell(median: float, q1: float, q3: float, runs: int) -> str:
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={runs}"
