"""Replay check for the quick figure tier.

Run it right after ``repro figures --quick``, from the same directory, as
``make figures-smoke`` (a step of the CI ``smoke`` job) does.  It notes the
cache's entries and the bytes of every ``results/*/quick*.txt``, runs
``repro figures --quick`` again against the same cache, and checks that the
second run adds no cache entry and rewrites every quick file byte for byte.

Within one run, the sweep runner serves a repeated cache key from its
store's memory tier; the replay's new runner reads every entry from disk.
So the check holds both paths to the same output.

Usage::

    python -m repro.tools.figures_replay
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import main as repro_main
from repro.service.store import default_cache_dir

#: Where ``repro figures`` writes by default.
RESULTS = Path("results")


def _quick_texts(out: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in sorted(out.glob("*/quick*.txt"))}


def _entries(cache: Path) -> set[str]:
    return {path.name for path in cache.glob("*.json")}


def main() -> int:
    cache = default_cache_dir()
    first = _quick_texts(RESULTS)
    if not first:
        print(
            f"figures-replay: FAIL: no {RESULTS}/*/quick*.txt;"
            " run `repro figures --quick` first",
            file=sys.stderr,
        )
        return 1
    entries = _entries(cache)

    status = repro_main(["figures", "--quick"])
    if status != 0:
        return status

    problems = []
    added = _entries(cache) - entries
    if added:
        problems.append(
            f"{len(added)} cache entries added, e.g. {min(added)}"
        )
    second = _quick_texts(RESULTS)
    problems += [
        f"{path} differs from the first run"
        for path, text in first.items()
        if second.get(path) != text
    ]
    problems += [f"{path} is new" for path in second.keys() - first.keys()]
    for problem in problems:
        print(f"figures-replay: FAIL: {problem}", file=sys.stderr)
    if not problems:
        print(
            f"figures-replay: ok: {len(first)} quick files identical,"
            f" no new cache entries in {cache}"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
