"""Sweeps, exact polynomial fits, break-even."""
import os
import threading

import numpy as np
import pytest

from decoq import sim
from decoq.noise import FAMILIES
from decoq.sim import worker_count
from decoq.sweep import PolyCoeffs, break_even, fit_poly, sweep


def test_sweep_known_values():
    res = sweep("bit3", "bit_flip", (0.1, 0.3, 0.2))
    assert res.code == "bit3"
    assert res.channel == "bit_flip"
    ps = [p for p, _ in res.samples]
    assert ps == sorted(ps)
    want = {0.1: 0.028, 0.2: 0.104, 0.3: 0.216}   # 3 p^2 - 2 p^3
    for p, d in res.samples:
        assert abs(d - want[p]) < 1e-12


def test_sweep_trivial_code_returns_bare_measure():
    res = sweep("none", "depolarizing", (0.5,))
    assert abs(res.samples[0][1] - 0.5) < 1e-12
    res = sweep("shor5", "depolarizing", (0.0,))
    assert abs(res.samples[0][1]) < 1e-12


def test_sweep_range_and_name_checks():
    with pytest.raises(ValueError):
        sweep("bit3", "depolarizing", (0.7,))
    # the range check agrees with noise.native_from_calibrated at each cap
    for kind, fam in FAMILIES.items():
        cap = fam.cap
        if kind in ("amplitude_damping", "phase_damping"):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1(/2)?\)"):
                sweep("bit3", kind, (cap,))
        else:
            assert abs(sweep("none", kind, (cap,)).samples[0][1] - cap) < 1e-12
    with pytest.raises(ValueError):
        sweep("bit3", "gauss", (0.1,))
    with pytest.raises(ValueError):
        sweep("steane", "bit_flip", (0.1,))


class _RecordingPool:
    """Runs what it is given on the real block pool, noting the thread."""

    def __init__(self, pool, threads):
        self.pool, self.threads = pool, threads

    def submit(self, fn, *args):
        def run():
            self.threads.append(threading.get_ident())
            return fn(*args)
        return self.pool.submit(run)


def _record_pool(monkeypatch):
    """The thread of every chunk the simulator hands to its block pool."""
    threads = []
    executor = sim._executor
    monkeypatch.setattr(sim, "_executor",
                        lambda: _RecordingPool(executor(), threads))
    return threads


def test_small_registers_sweep_in_the_calling_thread(monkeypatch):
    # every contraction and gather of a register of up to 6 wires is a
    # single block, so a shor5 sweep neither uses the pool nor reads the
    # cap per contraction (only the sweep itself reads it, once)
    threads = _record_pool(monkeypatch)
    reads = []
    count = sim.worker_count
    monkeypatch.setattr(sim, "worker_count",
                        lambda: reads.append(1) or count())
    monkeypatch.setenv("DECOM_THREADS", "4")
    res = sweep("shor5", "depolarizing", (0.1, 0.2, 0.3))
    assert threads == [] and reads == []
    assert len(res.samples) == 3


def test_thread_cap_env(monkeypatch):
    # shor9's 10-wire contractions and gathers have 128 blocks each: with
    # the cap unset they share them with the pool (given 2+ CPUs), with a
    # cap of 1 they run in the calling thread, and the samples are equal
    assert 4 ** 10 // sim.BLOCK_ENTRIES >= sim.SPLIT_MIN_BLOCKS
    threads = _record_pool(monkeypatch)
    grid = (2e-3,)
    monkeypatch.delenv("DECOM_THREADS", raising=False)
    pooled = sweep("shor9", "depolarizing", grid)
    if (os.cpu_count() or 1) > 1:
        assert threads and threading.get_ident() not in threads
    else:
        assert threads == []
    threads.clear()
    monkeypatch.setenv("DECOM_THREADS", "1")
    single = sweep("shor9", "depolarizing", grid)
    assert threads == []
    assert single.samples == pooled.samples


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_shor9_samples_do_not_depend_on_the_thread_cap(monkeypatch, kind):
    # each block goes through its own np.dot wherever it runs
    grid = (0.01, 0.03)
    monkeypatch.delenv("DECOM_THREADS", raising=False)
    pooled = sweep("shor9", kind, grid)
    monkeypatch.setenv("DECOM_THREADS", "1")
    assert sweep("shor9", kind, grid).samples == pooled.samples


def test_worker_count_is_bounded_by_the_cpus(monkeypatch):
    # the pool starts a thread per queued chunk while none is idle, so the
    # worker count, not DECOM_THREADS, must bound it
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("DECOM_THREADS", "100000")
    assert worker_count() == 8
    monkeypatch.setenv("DECOM_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("DECOM_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("DECOM_THREADS")
    assert worker_count() == 8
    # the pool, made on first use, has a thread per CPU beyond the caller
    monkeypatch.setattr(sim, "_pool", None)
    pool = sim._executor()
    assert pool is sim._executor() and pool._max_workers == 7
    pool.shutdown()
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("DECOM_THREADS", "100000")
    assert worker_count() == 1


def test_fit_poly_recovers_cubic():
    samples = [(p, 3 * p ** 2 - 2 * p ** 3) for p in np.linspace(0.05, 0.3, 7)]
    poly = fit_poly(samples, 3)
    assert np.abs(np.array(poly.coefficients) - (0.0, 3.0, -2.0)).max() < 1e-10
    assert poly.residual < 1e-12
    assert poly.degree == 3
    assert abs(poly.evaluate(0.17) - (3 * 0.17 ** 2 - 2 * 0.17 ** 3)) < 1e-12
    vals = poly.evaluate(np.array([0.1, 0.2]))
    assert np.abs(vals - np.array([0.028, 0.104])).max() < 1e-12


def test_fit_poly_under_degree_leaves_residual():
    samples = [(p, 3 * p ** 2 - 2 * p ** 3) for p in (0.1, 0.2, 0.3)]
    poly = fit_poly(samples, 2)
    assert poly.residual > 1e-4


def test_fit_poly_validation():
    good = [(0.1, 0.01), (0.2, 0.04)]
    with pytest.raises(ValueError):
        fit_poly(good, 0)
    with pytest.raises(ValueError):
        fit_poly(good, 3)
    with pytest.raises(ValueError):
        fit_poly([(0.0, 0.0), (0.1, 0.01)], 2)
    with pytest.raises(ValueError):
        fit_poly([(0.1, 0.01), (0.2, 0.04), (0.1, 0.01)], 2)


def test_fit_is_stable_across_disjoint_sample_sets():
    a = fit_poly(sweep("bit3", "bit_flip", (0.06, 0.1, 0.14)).samples, 3)
    b = fit_poly(sweep("bit3", "bit_flip", (0.18, 0.24, 0.3)).samples, 3)
    diff = np.abs(np.array(a.coefficients) - np.array(b.coefficients)).max()
    assert diff < 1e-7


def test_fit_predicts_a_held_out_point():
    res = sweep("bit3", "bit_flip", (0.05, 0.12, 0.21, 0.3))
    poly = fit_poly(res.samples, 3)
    held = sweep("bit3", "bit_flip", (0.26,)).samples[0][1]
    assert abs(poly.evaluate(0.26) - held) < 1e-8


def test_break_even():
    poly = PolyCoeffs((0.0, 3.0, -2.0))
    be = break_even(poly)
    assert be.status == "found"
    assert abs(be.p - 0.5) < 1e-10
    assert break_even(PolyCoeffs((1.0,))).status == "all"
    assert break_even(PolyCoeffs((0.5,))).status == "none"
    with pytest.raises(ValueError):
        break_even(poly, p_max=1e-7)


def test_break_even_ignores_a_root_at_p_max():
    # D(p) - p = +-p (1 - 2p) has its only root in (0, 1/2] at p_max = 1/2;
    # rounding of either sign at the end of the range must not decide
    for sign in (1.0, -1.0):
        for nudge in (0.0, 1e-15, -1e-15):
            poly = PolyCoeffs((1.0 + sign + nudge, -2.0 * sign))
            assert break_even(poly, p_max=0.5).status == "none"
    # a crossing just inside p_max is still found
    poly = PolyCoeffs((2.0, -1.0 / 0.499))
    be = break_even(poly, p_max=0.5)
    assert be.status == "found" and abs(be.p - 0.499) < 1e-10
