"""The tracemalloc high-water mark of one call, for tests that bound what a call keeps alive."""

from __future__ import annotations

import functools
import tracemalloc


def traced_peak(call, *args) -> int:
    """Bytes at the tracemalloc peak while `call(*args)` runs, its result included."""
    return stage_peaks(None, (), call, *args)[0]


def stage_peaks(module, names, call, *args) -> tuple[int, dict[str, int]]:
    """The tracemalloc peak of `call(*args)`, and the peak inside each of `module`'s
    functions `names` while it runs.

    Each function is replaced in `module` for the duration of the call only.
    Every peak counts all bytes allocated since the call started, so a stage's
    peak is comparable with the call's; a stage entered more than once reports
    its highest, and a stage never entered reports 0.
    """
    peaks = dict.fromkeys(names, 0)
    active: list[str] = []
    high = 0

    def fold() -> None:
        nonlocal high
        peak = tracemalloc.get_traced_memory()[1]
        high = max(high, peak)
        for name in active:
            peaks[name] = max(peaks[name], peak)
        tracemalloc.reset_peak()

    def staged(name, function):
        @functools.wraps(function)
        def stage(*stage_args, **stage_kwargs):
            fold()
            active.append(name)
            try:
                return function(*stage_args, **stage_kwargs)
            finally:
                fold()
                active.pop()

        return stage

    originals = {name: getattr(module, name) for name in names}
    for name, function in originals.items():
        setattr(module, name, staged(name, function))
    tracemalloc.start()
    try:
        call(*args)
        fold()
        return high, peaks
    finally:
        tracemalloc.stop()
        for name, function in originals.items():
            setattr(module, name, function)
