"""Speed reference for the benchmark's timings.

The host this benchmark runs on shares its processors, and its speed
drifts by tens of percent over seconds to minutes.  A fixed piece of
pure-Python work (`kernel`) is therefore timed in the same process as the
program, interleaved with it, and every end-to-end time is reported at
reference speed: multiplied by REFERENCE_S / (mean kernel time).  A change
to the package cannot change the kernel, so it shows in full; drift of the
host cancels.

Run as a script (with the package's ``src`` on PYTHONPATH) it measures one
set-up sample: the time to import ``beatty.cli`` in a fresh interpreter.
"""

import time

REFERENCE_S = 1.5e-3  # the kernel's time on an unloaded 2.1 GHz Xeon


def kernel() -> int:
    """Fixed work: integer arithmetic, str conversion and dict updates."""
    table = {}
    total = 0
    for i in range(3000):
        key = str(i * 7919)
        table[key] = len(key) + (i * i) % 13
        total += table[key]
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    started = time.perf_counter()
    import beatty.cli  # noqa: F401

    print(time.perf_counter() - started)
