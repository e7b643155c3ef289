"""Tests of the benchmark itself, at smoke sizes on the workloads' code paths.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import fiberfields  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from fiberfields import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Boundaries each workload must cross, and the ones it must bypass.
EXERCISED = {
    "cubic-smooth-weak": ["arith.factor.calls", "kummer.radical_class.calls",
                          "covers.specialize.calls", "covers.fibers.regular"],
    "quintic-rank": ["arith.factor.calls", "kummer.radical_class.calls",
                     "covers.specialize.calls", "diversity.rank_fold.rows",
                     "arith.factor.split_frac"],
    "plane-fingerprint": ["covers.specialize.calls", "kummer.fingerprint.calls",
                          "polyring.factor_over_Q.calls", "modpoly.splitting_degrees.calls",
                          "diversity.fingerprint_group.compat_checks"],
    "cubic-squarefree": ["arith.factor.calls", "sieve.residuals",
                         "kernels.squarefree_scan.primes",
                         "kernels.squarefree_scan.progression_steps"],
}
BYPASSED = {
    "cubic-smooth-weak": ["diversity.rank_fold.rows", "diversity.fingerprint_group.compat_checks",
                          "modpoly.splitting_degrees.calls", "sieve.residuals",
                          "kernels.squarefree_scan.primes"],
    "quintic-rank": ["diversity.fingerprint_group.compat_checks",
                     "modpoly.splitting_degrees.calls", "kernels.squarefree_scan.primes"],
    "plane-fingerprint": ["arith.factor.calls", "kummer.radical_class.calls",
                          "diversity.rank_fold.rows", "kernels.squarefree_scan.primes"],
    "cubic-squarefree": ["covers.specialize.calls", "kummer.radical_class.calls",
                         "diversity.rank_fold.rows", "diversity.fingerprint_group.compat_checks",
                         "polyring.factor_over_Q.calls"],
}


def _cli_report(workload, path, jobs=None) -> bytes:
    argv = workload.argv(workload.smoke_n)
    if jobs is not None:
        argv[argv.index("--jobs") + 1] = str(jobs)
    assert cli.main(argv + ["--out", str(path)]) == 0
    return path.read_bytes()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per serial workload: (untraced report, traced report, layer metrics)."""
    out = {}
    for w in map(WORKLOADS.get, EXERCISED):
        base = tmp_path_factory.mktemp(w.name)
        plain = _cli_report(w, base / "plain.json")
        with tracer.Tracer(fiberfields) as t:
            report = _cli_report(w, base / "traced.json")
        out[w.name] = (plain, report, t.metrics(1.0))
    return out


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_boundaries_intercepted(traced, name):
    layers = traced[name][2]
    assert [k for k in EXERCISED[name] if not layers[k] > 0] == []
    assert [k for k in BYPASSED[name] if layers[k] != 0] == []


def test_self_times_add_up_to_wall(traced):
    for _, _, layers in traced.values():
        named = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert math.isclose(named + layers["trace.other_s"], layers["trace.wall_s"])


def test_sieve_residuals_match_report(traced):
    import json

    plain, _, layers = traced["cubic-squarefree"]
    assert layers["sieve.residuals"] == json.loads(plain)["summary"]["residuals_factored"]


def test_traced_report_equals_untraced(traced):
    for plain, report, _ in traced.values():
        assert plain == report


def test_leaving_the_tracer_restores_originals():
    modules = tracer.Tracer(fiberfields).modules
    targets = [tracer._owner(modules, m, a) for m, a, _ in tracer.SPANS + tracer.COUNTED]
    before = [owner.__dict__[leaf] for owner, leaf in targets]
    with tracer.Tracer(fiberfields):
        assert all(owner.__dict__[leaf] is not f for (owner, leaf), f in zip(targets, before))
    assert all(owner.__dict__[leaf] is f for (owner, leaf), f in zip(targets, before))


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_smoke_reports_pass_oracle(name):
    w = WORKLOADS[name]
    assert oracle.check(w, w.smoke_n, seed=7)["mismatches"] == []


def test_jobs2_report_equals_jobs1(tmp_path):
    w = WORKLOADS["cubic-smooth-weak"]
    assert w.pool_check
    assert _cli_report(w, tmp_path / "j2.json", jobs=2) == _cli_report(w, tmp_path / "j1.json")


def test_host_speed_sampler_samples_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with child.HostSpeedSampler() as sampler:
        end = child.time.perf_counter() + 0.3
        while child.time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5 and sampler.slowdown() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_correction_removes_sampler_time_and_slowdown():
    assert math.isclose(child.speed_corrected(3.0, 0.2, 1.4), 2.0)


def test_child_protocol_and_failure_isolation(tmp_path):
    w = WORKLOADS["quintic-rank"]
    ok = run.run_child(w, w.smoke_n, str(tmp_path), trace=True, timeout=60)
    assert ok["ok"] and ok["failed"] == 0 and ok["layers"]["covers.specialize.calls"] == w.smoke_n
    assert ok["samples"] > 0 and 0 < ok["wall_s"] and ok["slowdown"] > 0
    slow = WORKLOADS["plane-fingerprint"]
    overrun = run.run_child(slow, slow.n, str(tmp_path), trace=False, timeout=1)
    assert (overrun["ok"], overrun["error"], overrun["failed"]) == (False, "timeout", slow.n)


def test_refuses_to_run_without_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "quintic-rank", "--seed", "1", "--seconds", "1"]) == 2
