"""The tracemalloc high-water mark of one call, for tests that bound what a call keeps alive."""

from __future__ import annotations

import tracemalloc


def traced_peak(call, *args) -> int:
    """Bytes at the tracemalloc peak while `call(*args)` runs, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
