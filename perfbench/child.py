"""One timed `fiberfields` CLI invocation in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD N OUT_PATH TRACE [JOBS]

Prints one JSON line: exit status, setup and wall seconds, the sha256 of
the report written to OUT_PATH, peak RSS, the host-speed samples, and with
TRACE=1 the per-layer metrics.  Set-up is importing the package and
building the cover or polynomial; the wall time is `cli.main` alone,
prime-cache fill included.  JOBS, if given, replaces the workload's
`--jobs` value.

Host speed.  The cores of a shared host run this process at a speed that
swings by up to 2x from one second to the next, and the mix of fast and
slow stretches shifts over minutes.  So from start to end a timer fires
every `SAMPLE_PERIOD_S` and its handler times `calibration_chunk`, a fixed
piece of pure-Python integer and dict work that no change to the library
can touch.  The chunks sample the host's speed evenly over the run, and
the timed regions are rescaled by it: see `speed_corrected`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SAMPLE_PERIOD_S = 0.025
# The calibration chunk's time on an unloaded core of the reference host
# (2-core Intel Xeon VM, Python 3.11): corrected times are in seconds at
# that speed.
REFERENCE_CHUNK_S = 0.0006
TRIM = 0.05  # share of the fastest and of the slowest chunks left out


def calibration_chunk(n: int = 2000) -> int:
    m = (1 << 89) - 1
    x = 12345
    table = {}
    for i in range(n):
        x = (x * x + i) % m
        table[i & 255] = x
    return x


class HostSpeedSampler:
    """Times one calibration chunk every `SAMPLE_PERIOD_S` of real time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        calibration_chunk()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> HostSpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent_since(self, index: int) -> float:
        """Seconds the handler took over the samples from `index` on."""
        return sum(self.samples[index:])

    def slowdown(self) -> float:
        """Trimmed mean chunk time over its reference time."""
        s = sorted(self.samples)
        k = int(len(s) * TRIM)
        return statistics.mean(s[k:len(s) - k]) / REFERENCE_CHUNK_S


def speed_corrected(elapsed_s: float, sampler_s: float, slowdown: float) -> float:
    """Seconds a region would take at the reference speed: its elapsed time
    less the sampler's own share, divided by the host's slowdown."""
    return (elapsed_s - sampler_s) / slowdown


def main(argv: list[str]) -> None:
    name, n, out_path, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    workload = WORKLOADS[name]
    cli_argv = workload.argv(n) + ["--out", out_path]
    if len(argv) > 4:
        cli_argv[cli_argv.index("--jobs") + 1] = argv[4]
    with HostSpeedSampler() as sampler:
        t0 = time.perf_counter()
        import fiberfields
        from fiberfields import cli, covers, polyring

        if workload.source_flag == "--cover":
            covers.cover_from_text(workload.source)
        else:
            polyring.parse_poly(workload.source)
        setup_s = time.perf_counter() - t0
        setup_samples = len(sampler.samples)

        tracer = None
        if trace:
            from tracer import Tracer  # after set-up, which times the library alone

            tracer = Tracer(fiberfields)
        with tracer or contextlib.nullcontext():
            wall_samples = len(sampler.samples)
            t = time.perf_counter()
            status = cli.main(cli_argv)
            wall_s = time.perf_counter() - t
            wall_sampler_s = sampler.spent_since(wall_samples)
        layers = tracer.metrics(wall_s) if tracer else None
    setup_sampler_s = sum(sampler.samples[:setup_samples])
    slowdown = sampler.slowdown()

    result = {
        "status": status,
        "setup_s": speed_corrected(setup_s, setup_sampler_s, slowdown),
        "wall_s": speed_corrected(wall_s, wall_sampler_s, slowdown),
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "slowdown": slowdown,
        "samples": len(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": None,
        "unresolved": None,
        "residuals_factored": None,
        "layers": layers,
    }
    if status == 0 and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        result["digest"] = hashlib.sha256(raw).hexdigest()
        result["unresolved"] = sum(s["reason"] == "unresolved" for s in report["skipped"])
        result["residuals_factored"] = report["summary"].get("residuals_factored")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
