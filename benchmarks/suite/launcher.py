"""Run ``repro serve`` with every thread under its own profiler.

Usage::

    python -m benchmarks.suite.launcher OUT_DIR [repro serve options]

``cProfile`` profiles one thread, so ``threading.setprofile`` starts a
fresh profiler in each thread the server creates (the event loop's thread
and each executor worker).  The profilers count thread CPU time, so a
thread blocked in ``select`` or on an empty work queue is not charged.
On SIGTERM the launcher writes one pstats file per thread into OUT_DIR
and exits at once.
"""

from __future__ import annotations

import cProfile
import marshal
import os
import signal
import sys
import threading
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out_dir, serve_args = Path(argv[0]), argv[1:]
    profiles: list[cProfile.Profile] = []
    lock = threading.Lock()

    def profile_this_thread(*_event) -> None:
        profile = cProfile.Profile(time.thread_time)
        with lock:
            profiles.append(profile)
        profile.enable()

    def dump(_signum, _frame) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with lock:
            snapshot = list(profiles)
        for index, profile in enumerate(snapshot):
            # snapshot_stats reads the counters without disabling the
            # profiler, which only its own thread may do.
            profile.snapshot_stats()
            with (out_dir / f"thread-{index}.pstats").open("wb") as handle:
                marshal.dump(profile.stats, handle)
        sys.stdout.flush()
        os._exit(0)

    threading.setprofile(profile_this_thread)
    signal.signal(signal.SIGTERM, dump)
    profile_this_thread()
    from repro.cli import main as repro_main

    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
