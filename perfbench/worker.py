"""Runs sparkcert command lines in one long-lived process.

Protocol, one JSON object per line: the worker answers ``{"ready": ...}``
once ``sparkcert.cli`` is imported; each request ``{"argv": [...]}`` gets
``{"rc", "out", "err", "cpu", "ref"}`` from ``sparkcert.cli.main(argv)``
with stdout and stderr captured, where ``cpu`` is the CPU seconds the
whole process (all threads) spent in the call and ``ref`` the mean CPU
seconds of calibrate.reference_loop run just before and just after it;
``{"rss": true}`` gets the worker's peak resident set in MB. The worker
exits when its stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> None:
    channel = sys.stdout

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    import sparkcert
    from sparkcert.cli import main as cli_main

    from calibrate import reference_loop

    send({"ready": True, "file": sparkcert.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("rss"):
            send({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            continue
        out, err = io.StringIO(), io.StringIO()
        ref = reference_loop()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(request["argv"])
            except Exception:  # reported as a failed op, the loop goes on
                rc = None
                traceback.print_exc()
        cpu = time.process_time() - start
        ref = (ref + reference_loop()) / 2.0
        send({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "cpu": cpu, "ref": ref})


if __name__ == "__main__":
    main()
