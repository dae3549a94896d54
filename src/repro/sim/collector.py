"""Pause Python's cyclic garbage collector while a simulation runs.

A simulation allocates hundreds of thousands of short-lived objects, and
every allocation counts toward the collector's generation thresholds.  Each
collection it triggers rescans the objects that survived earlier ones —
the GPU under construction, the trace, and everything the interpreter holds
after import — and finds almost nothing to free.  Reference counting frees
what a simulation allocates, because a simulation creates no reference
cycles (``tests/gpu/test_run_cycles.py`` pins that), so pausing the
collector for the run defers no memory.

The pause nests and is shared across threads: the first entrant records
whether the collector was enabled and disables it, and the last one out
re-enables it only if it was enabled on entry.  A caller that disabled the
collector itself keeps it disabled.
"""

from __future__ import annotations

import gc
import threading
from collections.abc import Iterator
from contextlib import contextmanager

_lock = threading.Lock()
#: Pauses currently entered, across every thread.
_depth = 0
#: Whether the collector was enabled when the outermost pause began.
_was_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector disabled for the ``with`` body."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
