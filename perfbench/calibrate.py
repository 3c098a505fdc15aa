"""A fixed reference loop whose CPU time is the benchmark's unit of time, the "ref".

On a small VM of a shared host the same code runs at speeds that differ by
up to 1.7x, in spells that last from seconds to half a minute, and CPU time
shows it as much as wall time does. The benchmark therefore divides the
CPU time of each op by the CPU time of this loop, run on the same core just
before and just after the op, so that the spells cancel. The loop does the
kind of work sparkcert does (small SVDs through numpy, interpreter work)
but calls nothing of sparkcert, so a change to sparkcert leaves the unit as
it was.

Where each op is a sparkcert process of its own, most of its time goes to
starting the interpreter and importing numpy, work that slows by its own
factor; there the unit is one run of this file as a process: interpreter
start, numpy import and one reference loop.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 600
_BLOCK = np.random.Generator(np.random.PCG64(20121019)).standard_normal((8, 12))


def reference_loop() -> float:
    """CPU seconds of this process for one run of the reference loop."""
    start = time.process_time()
    acc = 0.0
    for k in range(ROUNDS):
        acc += float(np.linalg.svd(_BLOCK[:, k % 4:k % 4 + 8], compute_uv=False)[0])
        table = {}
        for j in range(40):
            table[j] = j * acc
    return time.process_time() - start


if __name__ == "__main__":
    reference_loop()
