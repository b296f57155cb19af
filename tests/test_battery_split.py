"""The verify battery split between the calling process and one forked
worker, and the per-process cache of Euler-product log series.

Whichever process runs a check, the battery must return the serial loop's
reports, raise the serial loop's exception, and leave no child process
behind.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import geozeta
from geozeta import fixtures, identities, zeta
from geozeta.cli import _strict
from geozeta.continuation import EtaNotSuppliedError, ManifoldInvariants
from geozeta.identities import IDENTITIES, battery_reports
from geozeta.spectrum import GeodesicEntry, LengthSpectrum, powers_up_to
from geozeta.zeta import EvalParams

SRC = Path(geozeta.__file__).resolve().parent.parent
# unoriented, with two angle-0 entries: every character of a mirror is real
ANGLE_ZERO = LengthSpectrum.build([GeodesicEntry(1.1, 0.0, 1, 1), GeodesicEntry(1.7, 0.0, -1, 2)],
                                  12.0, oriented=False)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_bytes(reports) -> str:
    return json.dumps(_strict(reports), indent=2, allow_nan=False)


def battery(monkeypatch, cpus, spec, inv):
    # force the serial (1) or the forked (2) path, whatever this machine has
    monkeypatch.setattr(identities, "_usable_cpus", lambda: cpus)
    try:
        return battery_reports(spec, inv)
    finally:
        no_child_left()


def raised(monkeypatch, cpus, spec, inv) -> BaseException:
    with pytest.raises(BaseException) as info:
        battery(monkeypatch, cpus, spec, inv)
    return info.value


@pytest.fixture
def forks(monkeypatch):
    # counts the forks of this process (a worker's own count is discarded)
    calls = []
    real = os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(identities.os, "fork", counting)
    return calls


@pytest.mark.parametrize("name", ["small", "medium"])
def test_forked_and_serial_reports_are_equal(monkeypatch, forks, name, invariants):
    spec = fixtures.load_spectrum(name)
    serial = battery(monkeypatch, 1, spec, invariants)
    assert forks == []
    forked = battery(monkeypatch, 2, spec, invariants)
    assert len(forks) == 1
    assert report_bytes(forked) == report_bytes(serial)
    assert all(r.passed for r in forked) and len(forked) == 27


def test_a_failed_fork_runs_every_check_here(monkeypatch, small_spec, invariants):
    want = report_bytes(battery(monkeypatch, 1, small_spec, invariants))

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(identities.os, "fork", no_fork)
    assert report_bytes(battery(monkeypatch, 2, small_spec, invariants)) == want


def test_a_killed_worker_still_gives_the_full_report(monkeypatch, tmp_path, small_spec,
                                                      invariants):
    want = report_bytes(battery(monkeypatch, 1, small_spec, invariants))
    parent = os.getpid()
    died = tmp_path / "worker-died"
    real = identities.run_identity

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            died.touch()
            os._exit(3)
        # hold this process's first check until the worker has claimed one and died
        deadline = time.monotonic() + 30.0
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "run_identity", dying)
    got = report_bytes(battery(monkeypatch, 2, small_spec, invariants))
    assert died.exists()
    assert got == want


def test_a_check_that_fails_only_in_the_worker_runs_again(monkeypatch, small_spec, invariants):
    want = report_bytes(battery(monkeypatch, 1, small_spec, invariants))
    parent = os.getpid()
    real = identities.run_identity

    def flaky(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("worker-only failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "run_identity", flaky)
    assert report_bytes(battery(monkeypatch, 2, small_spec, invariants)) == want


def test_the_first_failing_check_in_registry_order_raises(monkeypatch, small_spec, invariants):
    def failing(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    # four-selberg comes first in the registry, det-chain later, the exact oracle last
    for ident, exc in (("four-selberg", ValueError("four-selberg broke")),
                       ("det-chain", RuntimeError("det-chain broke")),
                       ("exact-oracle", KeyError("exact-oracle broke"))):
        monkeypatch.setitem(IDENTITIES, ident,
                            dataclasses.replace(IDENTITIES[ident], run=failing(exc)))
    serial = raised(monkeypatch, 1, small_spec, invariants)
    forked = raised(monkeypatch, 2, small_spec, invariants)
    assert type(serial) is type(forked) is ValueError
    assert str(forked) == str(serial) == "four-selberg broke"


def test_a_missing_eta_raises_as_in_the_serial_loop(monkeypatch, small_spec):
    inv = ManifoldInvariants(2.0, 0.0, {})
    serial = raised(monkeypatch, 1, small_spec, inv)
    forked = raised(monkeypatch, 2, small_spec, inv)
    assert type(serial) is type(forked) is EtaNotSuppliedError
    assert str(forked) == str(serial) == "eta not supplied for weight k=2"


def test_an_interrupt_in_the_caller_ends_the_worker(monkeypatch, small_spec, invariants):
    parent = os.getpid()
    real = identities.run_identity

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "run_identity", interrupted)
    assert isinstance(raised(monkeypatch, 2, small_spec, invariants), KeyboardInterrupt)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states")
def test_the_worker_dies_with_a_killed_caller(tmp_path):
    # the caller kills itself mid-battery while its worker is busy in a check
    pid_file = tmp_path / "worker.pid"
    script = f"""
import os, signal, time
from pathlib import Path
from geozeta import fixtures, identities
parent = os.getpid()
pid_file = Path({str(pid_file)!r})
real = identities.run_identity
def hang(*args, **kwargs):
    if os.getpid() != parent:
        written = pid_file.with_suffix(".tmp")
        written.write_text(str(os.getpid()))
        written.rename(pid_file)
        time.sleep(60)
        os._exit(0)
    while not pid_file.exists():
        time.sleep(0.005)
    os.kill(parent, signal.SIGKILL)
identities.run_identity = hang
identities._usable_cpus = lambda: 2
identities.battery_reports(fixtures.load_spectrum("small"), fixtures.load_invariants())
"""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{worker}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            break
        if state == "Z":  # dead, waiting for its new parent to reap it
            break
        time.sleep(0.01)
    else:
        os.kill(worker, signal.SIGKILL)
        pytest.fail(f"worker {worker} outlived its killed parent")


class TestLogSeriesCache:
    @pytest.mark.parametrize("selberg", [False, True])
    def test_signed_zero_imaginary_parts_sum_to_the_same_bits(self, small_spec, medium_spec,
                                                              selberg):
        # s + 0j and s - 0j share one cache entry, so their series must agree
        for spec in (small_spec, medium_spec, ANGLE_ZERO):
            table = powers_up_to(spec, spec.l_max)
            for k in range(-3, 4):
                for re in (2.5, 3.0, 4.0):
                    plus, minus = (zeta._log_series(table, [k], [complex(re, im)], selberg)[0]
                                   for im in (0.0, -0.0))
                    assert (plus.real.hex(), plus.imag.hex()) == \
                        (minus.real.hex(), minus.imag.hex())

    def test_each_series_is_summed_once(self, monkeypatch):
        spec = LengthSpectrum.build([GeodesicEntry(1.3 + 0.1 * i, 0.2 * i, 1, 1)
                                     for i in range(5)], 9.0)  # no other test uses it
        p = EvalParams.for_spectrum(spec)
        cache = zeta._SIGMA_LOGS
        before = (cache.misses, cache.hits)
        first = [zeta.selberg_sigma(spec, 2, 3.0 + 0.5j, p), zeta.ruelle_sigma(spec, 2, 3.0 + 0.5j, p)]
        again = [zeta.selberg_sigma(spec, 2, 3.0 + 0.5j, p), zeta.ruelle_sigma(spec, 2, 3.0 + 0.5j, p)]
        assert (cache.misses - before[0], cache.hits - before[1]) == (2, 2)
        assert first == again
        assert cache.maxsize == zeta.LOG_SERIES_CACHE_SIZE
        table = powers_up_to(spec, p.l_cut)
        assert [first[0].log_value] == zeta._log_series(table, [2], [3.0 + 0.5j], True)
        assert [first[1].log_value] == zeta._log_series(table, [2], [3.0 + 0.5j])
        # a symmetric-power product looks its weight rows up in the same
        # cache and sums the missing ones in one kernel call: Z_rho_2 at
        # s + 1 has the row sigma_2 at s - 1 + 1 = s
        calls = []
        kernel = zeta._log_series
        monkeypatch.setattr(zeta, "_log_series", lambda *args: calls.append(args[1]) or
                            kernel(*args))
        before = (cache.misses, cache.hits)
        zeta.selberg_rho(spec, 2, 0, 4.0 + 0.5j, p)
        assert (cache.misses - before[0], cache.hits - before[1]) == (2, 1)
        assert calls == [[0, -2]]
