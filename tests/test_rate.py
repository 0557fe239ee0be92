"""Tests for the closed-form SINR decomposition and its Monte-Carlo check."""

import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fronthaul_planner import rate
from fronthaul_planner.fronthaul import UplinkSignalParams
from fronthaul_planner.rate import (MC_AP_BYTES, MC_BLOCK, MC_CHUNK_BYTES,
                                    MC_ROW_BYTES, MC_WORKERS, achievable_rates,
                                    mc_validate_terms, per_user_sinrs,
                                    rate_from_sinr, sinr_closed_form)
from reference import combining_trial_terms


def test_rate_from_sinr_values():
    assert rate_from_sinr(0.0) == 0.0
    assert rate_from_sinr(1.0) == pytest.approx(1.0)
    assert rate_from_sinr(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rate_from_sinr(-0.5)


def test_pure_array_gain():
    # single user, no noise, no distortion, equal gains: SINR equals M
    m = 16
    sig = UplinkSignalParams(0.1, np.array([1.0]), np.zeros(m))
    beta = np.full((m, 1), 2.5e-12)
    bd = sinr_closed_form(beta, sig, np.zeros(m), 0)
    assert bd.sinr == pytest.approx(m, rel=1e-12)


def test_single_ap_reduction():
    # M = 1 collapses to rho eta_1 beta^2 / ((rho sum eta' beta' + d2 + D) beta)
    rng = np.random.default_rng(0)
    k = 4
    beta = 10.0 ** rng.uniform(-13, -12, size=(1, k))
    eta = rng.uniform(0.1, 1.0, k)
    sig = UplinkSignalParams(0.1, eta, np.array([5e-13]))
    d = np.array([2e-13])
    bd = sinr_closed_form(beta, sig, d, 0)
    expected = (0.1 * eta[0] * beta[0, 0] ** 2
                / ((0.1 * np.dot(eta, beta[0]) + 5e-13 + 2e-13) * beta[0, 0]))
    assert bd.sinr == pytest.approx(expected, rel=1e-12)


def test_breakdown_terms_formulas():
    rng = np.random.default_rng(1)
    m, k = 6, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    eta = rng.uniform(0.1, 1.0, k)
    delta = rng.uniform(1e-13, 5e-13, m)
    dist = rng.uniform(1e-14, 1e-13, m)
    sig = UplinkSignalParams(0.1, eta, delta)
    bd = sinr_closed_form(beta, sig, dist, 1)
    col = beta[:, 1]
    # abs=0: approx's default absolute band, 1e-12, would pass any value of
    # these terms, all near 1e-24
    assert bd.ds_sq == pytest.approx(0.1 * eta[1] * col.sum() ** 2, rel=1e-12, abs=0)
    assert bd.bu_var == pytest.approx(0.1 * eta[1] * (col ** 2).sum(), rel=1e-12, abs=0)
    assert bd.interference_var[1] == 0.0
    for j in (0, 2):
        assert bd.interference_var[j] == pytest.approx(
            0.1 * eta[j] * np.dot(beta[:, j], col), rel=1e-12, abs=0)
    assert bd.noise_var == pytest.approx(np.dot(delta + dist, col), rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        sinr_closed_form(beta, sig, dist, 3)


def test_vectorized_sinrs_match_per_user():
    rng = np.random.default_rng(2)
    m, k = 8, 5
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.1, 1.0, k),
                             rng.uniform(1e-13, 5e-13, m))
    dist = rng.uniform(1e-14, 1e-13, m)
    gammas = per_user_sinrs(beta, sig, dist)
    for j in range(k):
        assert gammas[j] == pytest.approx(
            sinr_closed_form(beta, sig, dist, j).sinr, rel=1e-12)
    rates = achievable_rates(beta, sig, dist)
    assert rates.sum() == pytest.approx(np.sum(np.log2(1 + gammas)), rel=1e-12)


def test_sinr_scale_invariance():
    rng = np.random.default_rng(3)
    m, k = 7, 4
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    eta = rng.uniform(0.1, 1.0, k)
    delta = rng.uniform(1e-13, 5e-13, m)
    dist = rng.uniform(1e-14, 1e-13, m)
    base = per_user_sinrs(beta, UplinkSignalParams(0.1, eta, delta), dist)
    for c in (1e-3, 1e3):
        scaled = per_user_sinrs(c * beta, UplinkSignalParams(0.1, eta, c * delta),
                                c * dist)
        assert np.allclose(scaled, base, rtol=1e-12)


def test_sinr_decreases_with_distortion():
    rng = np.random.default_rng(4)
    m, k = 6, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.1, 1.0, k), np.full(m, 3e-13))
    dist = np.full(m, 1e-13)
    base = per_user_sinrs(beta, sig, dist)
    worse = dist.copy()
    worse[2] *= 3.0
    assert np.all(per_user_sinrs(beta, sig, worse) < base)
    # ideal fronthaul bounds every distorted configuration
    ideal = per_user_sinrs(beta, sig, np.zeros(m))
    assert np.all(ideal > base)


def test_monte_carlo_matches_closed_form_terms():
    rng = np.random.default_rng(6)
    m, k = 10, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, k), np.full(m, 6.36e-13))
    dist = rng.uniform(5e-14, 5e-13, m)
    closed = sinr_closed_form(beta, sig, dist, 0)
    emp = mc_validate_terms(beta, sig, dist, 0, trials=40_000, seed=123)
    # 40k trials put the estimator sd near 1%; 5% is a 4-5 sigma band.
    # abs=0: approx's default absolute band, 1e-12, would pass any
    # estimate of terms near 1e-24
    assert emp.ds_sq == pytest.approx(closed.ds_sq, rel=0.05, abs=0)
    assert emp.bu_var == pytest.approx(closed.bu_var, rel=0.05, abs=0)
    assert emp.noise_var == pytest.approx(closed.noise_var, rel=0.05, abs=0)
    for j in (1, 2):
        assert emp.interference_var[j] == pytest.approx(
            closed.interference_var[j], rel=0.05, abs=0)
    assert emp.sinr == pytest.approx(closed.sinr, rel=0.05, abs=0)


def test_monte_carlo_zero_noise_limit():
    m, k = 5, 2
    beta = np.full((m, k), 1e-12)
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.zeros(m))
    emp = mc_validate_terms(beta, sig, np.zeros(m), 0, trials=2000, seed=1)
    assert emp.noise_var == 0.0


def test_monte_carlo_reports_a_negative_variance_estimate_as_zero():
    # two trials: the control-variate correction takes the raw bu_var,
    # interference and noise estimates below 0, and each is reported as 0
    beta = np.full((1, 2), 1e-3)
    sig = UplinkSignalParams.symmetric(0.1, 0.5, 1e-3, 1, 2)
    dist = np.full(1, 1e-4)
    _, bu_var, interference, noise_var = _plain_mc_terms(beta, sig, dist, 0, 2, 11)
    assert max(bu_var, interference[1], noise_var) < 0
    emp = mc_validate_terms(beta, sig, dist, 0, trials=2, seed=11)
    assert (emp.bu_var, emp.interference_var[1], emp.noise_var) == (0.0, 0.0, 0.0)
    assert emp.ds_sq > 0 and emp.sinr == np.inf


@pytest.mark.parametrize("keep", ["delta_sq", "D"])
def test_monte_carlo_noise_column_carries_both_variances(keep):
    # each AP's one noise column has variance delta_sq + D: with either
    # part zero, the estimate still follows the closed form's sum
    rng = np.random.default_rng(6)
    m, k = 10, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    delta_sq = np.full(m, 6.36e-13) * (keep == "delta_sq")
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, k), delta_sq)
    dist = rng.uniform(5e-14, 5e-13, m) * (keep == "D")
    closed = sinr_closed_form(beta, sig, dist, 0)
    emp = mc_validate_terms(beta, sig, dist, 0, trials=40_000, seed=123)
    assert closed.noise_var > 0
    assert emp.noise_var == pytest.approx(closed.noise_var, rel=0.05, abs=0)


def test_monte_carlo_deterministic_and_chunk_invariant():
    rng = np.random.default_rng(8)
    m, k = 4, 2
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 3e-13))
    dist = np.full(m, 1e-13)
    a = mc_validate_terms(beta, sig, dist, 0, trials=5000, seed=99, chunk=1000)
    b = mc_validate_terms(beta, sig, dist, 0, trials=5000, seed=99, chunk=1700)
    assert a.ds_sq == b.ds_sq and a.bu_var == b.bu_var
    assert np.array_equal(a.interference_var, b.interference_var)
    assert a.noise_var == b.noise_var


def _small_drop(seed, m, k):
    """Gains, signal parameters and distortions of a small test network."""
    beta = 10.0 ** np.random.default_rng(seed).uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 3e-13))
    return beta, sig, np.full(m, 1e-13)


def _same_bits(a, b):
    return (a.ds_sq == b.ds_sq and a.bu_var == b.bu_var
            and np.array_equal(a.interference_var, b.interference_var)
            and a.noise_var == b.noise_var)


@pytest.mark.parametrize("chunk", [1, 255, 256, 257, 699, 700])
def test_monte_carlo_block_edges(chunk):
    # 700 trials, two whole blocks and a short one: one block a run at 1,
    # 255, 256 and 257, two at 699 and 700; every chunking gives the bits
    # of a single chunk
    beta, sig, dist = _small_drop(12, 6, 3)
    whole = mc_validate_terms(beta, sig, dist, 2, trials=700, seed=5, chunk=700)
    assert _same_bits(
        mc_validate_terms(beta, sig, dist, 2, trials=700, seed=5, chunk=chunk), whole)


def test_monte_carlo_default_chunk_gives_the_explicit_bits():
    m, k = 4, 2
    beta, sig, dist = _small_drop(13, m, k)
    default = MC_CHUNK_BYTES // MC_WORKERS // (MC_AP_BYTES * m + MC_ROW_BYTES * (k + 3))
    trials = 2 * default + 300  # two full default chunks and a short one
    a = mc_validate_terms(beta, sig, dist, 1, trials, seed=6)
    assert _same_bits(a, mc_validate_terms(beta, sig, dist, 1, trials, seed=6,
                                           chunk=default))
    assert _same_bits(a, mc_validate_terms(beta, sig, dist, 1, trials, seed=6,
                                           chunk=trials))


def test_monte_carlo_workers_under_thread_switching():
    # more callers than cores, each with its workers, switching threads
    # every microsecond: every call still gives the bits of one chunk
    beta, sig, dist = _small_drop(15, 6, 3)
    whole = mc_validate_terms(beta, sig, dist, 1, trials=2000, seed=9, chunk=2000)
    results = [None] * 4

    def call(j):
        results[j] = mc_validate_terms(beta, sig, dist, 1, trials=2000, seed=9,
                                       chunk=128)

    callers = [threading.Thread(target=call, args=(j,), daemon=True)
               for j in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(r is not None and _same_bits(r, whole) for r in results)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [100, 256, 600, None])
def test_monte_carlo_worker_count_leaves_the_bits(monkeypatch, workers, chunk):
    beta, sig, dist = _small_drop(16, 5, 3)
    run = functools.partial(mc_validate_terms, beta, sig, dist, 1, trials=3000,
                            seed=4, chunk=chunk)
    two = run()
    monkeypatch.setattr(rate, "MC_WORKERS", workers)
    assert _same_bits(run(), two)


def _call_within(fn, seconds=60):
    """Run fn on its own thread; fail if it hangs.

    Returns what fn raised (or None) and the number of live threads, the
    caller's own included, as fn returned or raised.
    """
    out = []

    def call():
        try:
            fn()
            out.append(None)
        except RuntimeError as exc:
            out.append(str(exc))
        out.append(threading.active_count())

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), "mc_validate_terms did not return"
    return tuple(out)


@pytest.mark.parametrize("failing", ["draw", "kernel"])
def test_monte_carlo_failure_in_a_late_block_reaches_the_caller(monkeypatch,
                                                               failing):
    # one block a run, 40 runs, and block 30 fails. At most two runs a
    # worker are queued past the one this thread waits for, so the blocks
    # after them never start, and no worker outlives the call
    beta, sig, dist = _small_drop(14, 4, 2)
    n_blocks, bad = 40, 30
    run = functools.partial(mc_validate_terms, beta, sig, dist, 0,
                            trials=n_blocks * MC_BLOCK, seed=1, chunk=MC_BLOCK)
    before = threading.active_count()
    started = set()
    block_of = {}  # worker thread -> the block it draws
    jump, kernel = rate._jump, rate._mc_block_sums

    def jumping(bit_generator, state, index):
        started.add(index)
        block_of[threading.get_ident()] = index
        if failing == "draw" and index == bad:
            raise RuntimeError("draw failed")
        return jump(bit_generator, state, index)

    def computing(*args, **kwargs):
        if failing == "kernel" and block_of[threading.get_ident()] == bad:
            raise RuntimeError("kernel failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(rate, "_jump", jumping)
    monkeypatch.setattr(rate, "_mc_block_sums", computing)
    assert _call_within(run) == (f"{failing} failed", before + 1)
    assert bad in started and max(started) < bad + 2 * MC_WORKERS


def test_monte_carlo_workers_call_no_public_function(monkeypatch):
    # span tracers wrap every public function of the package, and every
    # public method (plus __post_init__) of its classes, at every import
    # site, and keep one span stack; so the workers call numpy and private
    # functions alone and every wrapped call runs on the calling thread
    calls = []

    def wrap(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    package = importlib.import_module("fronthaul_planner")
    modules = [importlib.import_module(f"{package.__name__}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)]
    wrapped = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = wrap(obj, f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_") and name != "__post_init__":
                        continue
                    qualname = f"{mod.__name__}.{attr}.{name}"
                    if isinstance(member, (classmethod, staticmethod)):
                        new = type(member)(wrap(member.__func__, qualname))
                    elif inspect.isfunction(member):
                        new = wrap(member, qualname)
                    else:
                        continue
                    monkeypatch.setattr(obj, name, new)
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                monkeypatch.setattr(mod, attr, wrapped[obj])
    kernel_threads = set()
    kernel = rate._mc_block_sums

    def computing(*args, **kwargs):
        kernel_threads.add(threading.get_ident())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(rate, "_mc_block_sums", computing)
    beta, sig, dist = _small_drop(14, 4, 2)
    # eight runs of one block each, on two workers
    rate.mc_validate_terms(beta, sig, dist, 0, trials=8 * MC_BLOCK, seed=1,
                           chunk=MC_BLOCK)
    caller = threading.get_ident()
    assert MC_WORKERS == 2 and caller not in kernel_threads
    assert ("fronthaul_planner.seeds.derive_rng", caller) in calls
    assert {ident for _, ident in calls} == {caller}


# (M, K, trials) -> float.hex() of ds_sq, bu_var, each interference entry
# and noise_var for the last user of _pinned_drop(M, K) at seed M + trials.
# Recorded again when the kernel came to take one product per block: the
# draws are the same, and only rounding moved, as the sums over the M APs
# run in another order with the powers inside the weights (within 2e-14
# relative, on bu_var's difference). A run of at most MC_BLOCK trials is
# block 0 alone.
MC_BITS = {
    (4, 2, 100): ['0x1.68377765c0532p-78', '0x1.6dcb716c9f204p-79',
                  '0x1.7ce6297c71d64p-80', '0x0.0p+0', '0x1.8f9e6b054218ap-79'],
    (4, 2, 256): ['0x1.75fc3d3031235p-78', '0x1.215872741333ep-79',
                  '0x1.c0b35ad66fe0fp-80', '0x0.0p+0', '0x1.772fc46584a2bp-79'],
    (20, 4, 100): ['0x1.e306c7591d8dap-75', '0x1.78e3bd3529c00p-78',
                   '0x1.a01d1c8092236p-78', '0x1.e90db7dcec78cp-80',
                   '0x1.751d4cc3b6decp-79', '0x0.0p+0', '0x1.6e03df3b7fbcdp-76'],
    (20, 4, 256): ['0x1.f36ce662a3119p-75', '0x1.9f80fe8744b28p-78',
                   '0x1.ac68ad43d145ep-78', '0x1.fe1fec69d246fp-80',
                   '0x1.8acbc3eaab76fp-79', '0x0.0p+0', '0x1.6aae2055a6225p-76'],
    (100, 10, 100): ['0x1.29b07f05f42e3p-69', '0x1.aa5e902fcfd00p-75',
                     '0x1.17df7172346a2p-75', '0x1.c1836588b45ebp-76',
                     '0x1.00bdff56d56dcp-76', '0x1.85f69c537f836p-77',
                     '0x1.1d995cd12d3ecp-76', '0x1.7bf635599c9fcp-75',
                     '0x1.9b91d1e5597cdp-75', '0x1.0be1d9b14f410p-76',
                     '0x1.121671cf9dc31p-75', '0x0.0p+0', '0x1.369f4613db75ap-73'],
    (100, 10, 256): ['0x1.33642a3fc0dfcp-69', '0x1.e9cc44f645940p-75',
                     '0x1.04396a38cb335p-75', '0x1.a1c48aaa904b6p-76',
                     '0x1.e648797c944e0p-77', '0x1.14dfd15619656p-76',
                     '0x1.1305884a7de69p-76', '0x1.c9fd8bb0ffa80p-75',
                     '0x1.bb2cd948258ecp-75', '0x1.8b944f3ddcf15p-76',
                     '0x1.1d9743dee51cbp-75', '0x0.0p+0', '0x1.25a477cbbab84p-73'],
}


def _pinned_drop(m, k):
    rng = np.random.default_rng(1000 * m + k)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, k),
                             10.0 ** rng.uniform(-13, -12, m))
    return beta, sig, 10.0 ** rng.uniform(-14, -12, m)


@pytest.mark.parametrize("m, k, trials", sorted(MC_BITS))
def test_monte_carlo_bits_of_the_first_block_are_pinned(m, k, trials):
    beta, sig, dist = _pinned_drop(m, k)
    e = mc_validate_terms(beta, sig, dist, k - 1, trials, seed=m + trials)
    terms = [e.ds_sq, e.bu_var, *e.interference_var, e.noise_var]
    assert [float(v).hex() for v in terms] == MC_BITS[(m, k, trials)]


@pytest.mark.parametrize("m, k", [(20, 4), (100, 10)])
def test_monte_carlo_bits_do_not_depend_on_blas_threads(m, k):
    # the benchmark pins one BLAS thread and the suite runs with the
    # default: each block's products must give the same bits under both
    tests = Path(__file__).resolve().parent
    source = ("from test_rate import _pinned_drop, mc_validate_terms\n"
              f"beta, sig, dist = _pinned_drop({m}, {k})\n"
              f"e = mc_validate_terms(beta, sig, dist, {k - 1}, 30_000, seed=7)\n"
              "print([float(v).hex() for v in (e.ds_sq, e.bu_var,"
              " *e.interference_var, e.noise_var)])")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))))
        proc = subprocess.run([sys.executable, "-c", source], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("0x") == k + 3


def test_monte_carlo_rejects_a_generator_seed():
    # each block is drawn from a jumped stream of the seed, on whichever
    # worker takes it; one generator would be drawn in a worker-dependent
    # order
    beta, sig, dist = _small_drop(14, 4, 2)
    with pytest.raises(ValueError, match="seed must be an integer, not Generator"):
        mc_validate_terms(beta, sig, dist, 0, trials=100,
                          seed=np.random.default_rng(3))
    assert _same_bits(mc_validate_terms(beta, sig, dist, 0, trials=100, seed=3),
                      mc_validate_terms(beta, sig, dist, 0, trials=100,
                                        seed=np.int64(3)))


def test_monte_carlo_memory_is_bounded():
    # the default chunk follows a memory budget; a fixed 20k-trial chunk
    # peaked near 1 GB at this size
    rng = np.random.default_rng(3)
    m, k = 100, 10
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 6.36e-13))
    tracemalloc.start()
    try:
        mc_validate_terms(beta, sig, np.full(m, 1e-13), 0, 20_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (4, 2), (20, 4), (100, 10)])
def test_monte_carlo_chunk_holds_its_budget(m, k):
    # at few APs the term rows and the users' draws outweigh the APs'
    # draws; the default chunk must count them too
    rng = np.random.default_rng(4)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 6.36e-13))
    # by the byte model all trials at once would take three budgets, so
    # each worker runs about three default chunks
    trials = 3 * MC_CHUNK_BYTES // (MC_AP_BYTES * m + MC_ROW_BYTES * (k + 3))
    tracemalloc.start()
    try:
        mc_validate_terms(beta, sig, np.full(m, 1e-13), 0, trials, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * MC_CHUNK_BYTES


def test_monte_carlo_rejects_empty_chunk():
    beta = np.full((3, 2), 1e-12)
    sig = UplinkSignalParams(0.1, np.full(2, 0.5), np.full(3, 1e-13))
    with pytest.raises(ValueError):
        mc_validate_terms(beta, sig, np.zeros(3), 0, 10, seed=1, chunk=0)


def _plain_mc_terms(beta, sig, D, k, trials, seed, controls=True):
    """The Monte-Carlo estimate written out plainly, all trials in one chunk.

    Each trial's M + K standard exponentials come from the "mc_channel"
    stream, each block of MC_BLOCK trials from numpy's own PCG64.jumped:
    E_m of each AP, then X_j of each user j != k in user order, then the
    noise's X. |g_mk|^2 = beta_mk E_m, and each squared cross term and
    |v|^2 is its conditional variance times its X. Each mean is taken with
    the draws as control variates of known mean 1 and variance 1 (a plain
    mean with controls False); the reference the kernel is checked against.
    """
    m, n_users = beta.shape
    # block b: b jumps of the stream's (tag, 0) generator
    first = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(4, 0)))
    draws = np.concatenate([
        np.random.Generator(first.jumped(b)).standard_exponential(
            (min(MC_BLOCK, trials - start), m + n_users))
        for b, start in enumerate(range(0, trials, MC_BLOCK))])
    gain_k = beta[:, k] * draws[:, :m]
    x = iter(draws[:, m:].T)
    draw_means = draws.mean(axis=0)

    def mean(y):
        if not controls:
            return y.mean()
        cov = np.mean(y[:, None] * draws, axis=0) - y.mean() * draw_means
        return y.mean() - cov @ (draw_means - 1.0)

    power = sig.rho_u * sig.eta
    a = np.sqrt(power[k]) * np.sum(gain_k, axis=1)
    interference = np.zeros(n_users)
    for j in range(n_users):
        if j != k:
            interference[j] = mean(power[j] * np.sum(gain_k * beta[:, j], axis=1)
                                   * next(x))
    noise_var = mean(np.sum(gain_k * (sig.delta_sq + D), axis=1) * next(x))
    ds_sq = mean(a) ** 2
    return ds_sq, mean(a ** 2) - ds_sq, interference, noise_var


@pytest.mark.parametrize("m, n_users, k", [(4, 2, 0), (10, 3, 2), (20, 4, 1)])
def test_monte_carlo_kernel_matches_the_plain_formula(m, n_users, k):
    # same streams, same draws: only rounding may differ, where a changed
    # draw would move every term by about 1/sqrt(trials)
    rng = np.random.default_rng(10 * m + k)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, n_users))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, n_users),
                             np.full(m, 6.36e-13))
    dist = rng.uniform(5e-14, 5e-13, m)
    emp = mc_validate_terms(beta, sig, dist, k, trials=3000, seed=m, chunk=700)
    ds_sq, bu_var, interference, noise_var = _plain_mc_terms(
        beta, sig, dist, k, 3000, m)
    assert emp.ds_sq == pytest.approx(ds_sq, rel=1e-12, abs=0)
    assert emp.bu_var == pytest.approx(bu_var, rel=1e-12, abs=0)
    np.testing.assert_allclose(emp.interference_var, interference, rtol=1e-12, atol=0)
    assert emp.noise_var == pytest.approx(noise_var, rel=1e-12, abs=0)


def test_monte_carlo_control_variates_keep_the_mean_and_cut_the_spread():
    # over 40 seeds each interference and noise estimate keeps its closed
    # form within 4 standard errors of the seeds' mean error (the control
    # variates' O(1/trials) bias is about 4/trials here, 0.04%), and spreads
    # less than the plain mean of the same draws: linear controls leave at
    # most a third of an interference or noise term's variance
    beta, sig, dist = _pinned_drop(6, 3)
    k, trials, seeds = 1, 10_000, 40
    closed = sinr_closed_form(beta, sig, dist, k)

    def checked(interference, noise_var):
        return np.append(np.delete(interference, k), noise_var)

    exact = checked(closed.interference_var, closed.noise_var)
    est, plain = (np.array([checked(*_plain_mc_terms(beta, sig, dist, k, trials, seed,
                                                     controls)[2:])
                            for seed in range(seeds)]) / exact - 1
                  for controls in (True, False))
    emp = mc_validate_terms(beta, sig, dist, k, trials, seed=0)
    np.testing.assert_allclose(checked(emp.interference_var, emp.noise_var),
                               (est[0] + 1) * exact, rtol=1e-12, atol=0)
    assert np.all(np.abs(est.mean(axis=0)) < 4 * est.std(axis=0) / np.sqrt(seeds))
    assert np.all(est.std(axis=0) < 0.8 * plain.std(axis=0)), (
        est.std(axis=0) / plain.std(axis=0))


@pytest.mark.parametrize("m, n_users, k", [(1, 1, 0), (6, 3, 1), (8, 4, 3)])
def test_monte_carlo_trial_terms_follow_complex_combining_in_law(monkeypatch, m,
                                                                n_users, k):
    # every term row the workers compute from exponentials has the mean and
    # second moment of that row under complex fading and noise, within 4
    # standard errors of their difference; a row with an X replaced by its
    # mean 1 keeps the mean but halves the second moment
    rng = np.random.default_rng(30 + m)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, n_users))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, n_users),
                             10.0 ** rng.uniform(-13, -12, m))
    dist = 10.0 ** rng.uniform(-14, -12, m)
    trials = 40_000
    pieces = []
    kernel = rate._mc_block_sums

    def keeping(draws, rows, *args):
        sums = kernel(draws, rows, *args)
        # a block's rows: ones, a^2, a, then each user's but k's and |v|^2;
        # put back in the reference's order, a^2 at user k
        for _, a_sq, a, *others in rows:
            pieces.append(np.vstack((a, a_sq, np.insert(others, k, a_sq, axis=0))))
        return sums

    monkeypatch.setattr(rate, "_mc_block_sums", keeping)
    mc_validate_terms(beta, sig, dist, k, trials, seed=11)
    drawn = np.hstack(pieces)
    parts = np.random.default_rng(12).standard_normal((trials, m, n_users + 1, 2))
    combined = combining_trial_terms(beta, sig, dist, k, parts)
    assert drawn.shape == combined.shape == (n_users + 3, trials)
    for power in (1, 2):
        a, b = drawn ** power, combined ** power
        gap = np.abs(a.mean(axis=1) - b.mean(axis=1))
        se = np.sqrt((a.var(axis=1) + b.var(axis=1)) / trials)
        assert np.all(gap < 4 * se), (power, gap / se)
