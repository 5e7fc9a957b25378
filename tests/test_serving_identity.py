"""Bit-identity tier for the open-loop serving path.

The hybrid kvstore engine (:meth:`HybridKvServer.serve_tenants`) builds
each tenant's arrival, departure and latency arrays in place. The code it
replaced is kept below as the reference (the on/off and diurnal wrappers
without their argument checks). Every output must match it byte for
byte: arrival arrays, departures, and every field of every report, floats
compared by their IEEE bytes. The seeded sweeps cover both presets, 1-4
tenants, all three arrival shapes (zero diurnal levels and a zero
off-rate included), DRAM and CXL values, 1-4 workers with request counts
the pool does not divide, and the background off, as a hog, and paced.
``KvWorkload`` needs at least 10 requests, so arrays shorter than the
worker pool are covered by the direct departure trials.
The hypothesis variant lives in ``tests/test_properties_models.py``.
"""

import dataclasses
import itertools
import random
import struct

import numpy as np
import pytest

from repro.analysis.stats import LatencyStats, _percentiles_of_sorted
from repro.apps import ArrivalSpec, HybridKvServer, KvWorkload, TenantSpec
from repro.apps.kvstore import ServiceReport, background_stream, near_umcs
from repro.apps.kvserve import TenantReport
from repro.core.loadgen import (
    diurnal_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)
from repro.errors import ConfigurationError, MeasurementError
from repro.sim.batch import open_loop_departures
from repro.sim.rng import SplitRng

# --------------------------------------------------------------- reference


def _reference_poisson_arrivals(rng, rate_qps, count, start_ns=0.0):
    if rate_qps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_qps}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    gaps = rng.exponential(1e9 / rate_qps, size=count)
    return start_ns + np.cumsum(gaps)


def _reference_inversion_arrivals(
    rng, count, durations_ns, rates_qps, start_ns
):
    # Unit-rate Poisson points on the cumulative-rate axis.
    targets = np.cumsum(rng.exponential(1.0, size=count))
    # Expected events contributed by each segment of one cycle.
    seg_mass = durations_ns * rates_qps / 1e9
    cycle_mass = float(seg_mass.sum())
    if cycle_mass <= 0:
        raise ConfigurationError("rate profile must have positive mean rate")
    period_ns = float(durations_ns.sum())
    cycles = np.floor(targets / cycle_mass)
    frac = targets - cycles * cycle_mass
    mass_ends = np.cumsum(seg_mass)
    time_starts = np.concatenate(([0.0], np.cumsum(durations_ns)[:-1]))
    mass_starts = np.concatenate(([0.0], mass_ends[:-1]))
    seg = np.searchsorted(mass_ends, frac, side="right")
    seg = np.minimum(seg, seg_mass.size - 1)
    rate_per_ns = rates_qps[seg] / 1e9
    within = (frac - mass_starts[seg]) / rate_per_ns
    return start_ns + cycles * period_ns + time_starts[seg] + within


def _reference_onoff_arrivals(rng, on_qps, off_qps, on_ns, off_ns, count,
                              start_ns=0.0):
    return _reference_inversion_arrivals(
        rng,
        count,
        np.array([on_ns, off_ns], dtype=float),
        np.array([on_qps, off_qps], dtype=float),
        start_ns,
    )


def _reference_diurnal_arrivals(rng, peak_qps, levels, period_ns, count,
                                start_ns=0.0):
    shape = np.asarray(levels, dtype=float)
    durations = np.full(shape.size, period_ns / shape.size, dtype=float)
    return _reference_inversion_arrivals(
        rng, count, durations, peak_qps * shape, start_ns
    )


def _reference_generate(spec, rng, qps, count):
    """``ArrivalSpec.generate`` on the reference generators."""
    if spec.kind == "poisson":
        return _reference_poisson_arrivals(rng, qps, count)
    if spec.kind == "onoff":
        on_qps = qps * spec.burst_factor
        off_qps = (qps - spec.on_fraction * on_qps) / (
            1.0 - spec.on_fraction
        )
        on_ns = spec.on_fraction * spec.period_ns
        return _reference_onoff_arrivals(
            rng, on_qps, off_qps, on_ns, spec.period_ns - on_ns, count
        )
    shape = np.asarray(spec.levels, dtype=float)
    peak = qps * shape.size / float(shape.sum())
    return _reference_diurnal_arrivals(rng, peak, shape, spec.period_ns, count)


def _reference_scalar_departures(arrivals, service_ns, servers=1):
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1:
        raise ConfigurationError("arrivals must be a 1-D array")
    if service_ns < 0:
        raise ConfigurationError(f"negative service time: {service_ns}")
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if a.size == 0:
        return a.copy()
    if np.any(np.diff(a) < 0):
        raise ConfigurationError("arrivals must be sorted non-decreasing")
    out = np.empty_like(a)
    for lane in range(min(servers, a.size)):
        chain = a[lane::servers]
        idx = np.arange(chain.size, dtype=float)
        out[lane::servers] = (
            np.maximum.accumulate(chain - service_ns * idx)
            + service_ns * (idx + 1.0)
        )
    return out


def _reference_open_loop_departures(arrivals, service_ns, servers=1):
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1:
        raise ConfigurationError("arrivals must be a 1-D array")
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if a.size > 1 and np.any(np.diff(a) < 0):
        raise ConfigurationError("arrivals must be sorted non-decreasing")
    service = np.asarray(service_ns, dtype=float)
    if np.any(service < 0):
        raise ConfigurationError("negative service time")
    if service.ndim == 0:
        return _reference_scalar_departures(a, float(service), servers)
    if service.ndim != 1:
        raise ConfigurationError("service_ns must be a scalar or 1-D array")
    if a.size == 0:
        return a.copy()
    if service.size == servers:
        out = np.empty_like(a)
        for lane in range(min(servers, a.size)):
            chain = a[lane::servers]
            s = float(service[lane])
            idx = np.arange(chain.size, dtype=float)
            out[lane::servers] = (
                np.maximum.accumulate(chain - s * idx) + s * (idx + 1.0)
            )
        return out
    if servers == 1 and service.size == a.size:
        cum = np.cumsum(service)
        start = np.empty_like(cum)
        start[0] = 0.0
        start[1:] = cum[:-1]
        return cum + np.maximum.accumulate(a - start)
    raise ConfigurationError(
        "service_ns array must have length servers "
        f"({servers}) or, for a single server, length len(arrivals) "
        f"({a.size}); got {service.size}"
    )


def _reference_from_sorted(samples):
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1:
        raise MeasurementError("from_sorted needs a 1-D sample array")
    if data.size == 0:
        raise MeasurementError("cannot summarize an empty sample set")
    if data.size > 1 and np.any(np.diff(data) < 0):
        raise MeasurementError("from_sorted needs non-decreasing samples")
    n = data.size
    values = []
    for q in (50.0, 99.0, 99.9):
        rank = q / 100.0 * (n - 1)
        j = int(rank)
        gamma = rank - j
        low = float(data[j])
        high = float(data[min(j + 1, n - 1)])
        values.append(low + gamma * (high - low))
    return LatencyStats(
        count=int(n),
        mean=float(data.mean()),
        p50=values[0],
        p99=values[1],
        p999=values[2],
        minimum=float(data[0]),
        maximum=float(data[-1]),
        std=float(data.std()),
    )


def _reference_merge(parts):
    arrays = []
    for part in parts:
        data = np.asarray(part, dtype=float)
        if data.ndim != 1:
            raise MeasurementError("merge needs 1-D sample arrays")
        if data.size > 1 and np.any(np.diff(data) < 0):
            raise MeasurementError(
                "merge needs non-decreasing per-shard samples"
            )
        if data.size:
            arrays.append(data)
    count = sum(int(a.size) for a in arrays)
    if count == 0:
        raise MeasurementError("cannot summarize an empty sample set")
    total = sum(float(a.sum()) for a in arrays)
    mean = total / count
    sumsq = sum(float(np.square(a - mean).sum()) for a in arrays)
    p50, p99, p999 = _percentiles_of_sorted(
        arrays, (50.0, 99.0, 99.9), count
    )
    return LatencyStats(
        count=count,
        mean=mean,
        p50=p50,
        p99=p99,
        p999=p999,
        minimum=min(float(a[0]) for a in arrays),
        maximum=max(float(a[-1]) for a in arrays),
        std=float(np.sqrt(sumsq / count)),
    )


def _reference_serve_tenants(
    self, tenants, background_cores=None, background_rate_gbps=None,
    rng_streams=None,
):
    """``HybridKvServer.serve_tenants`` on the reference path (``self`` is
    the server; its path compilation and fluid coupling are shared)."""
    if not tenants:
        raise ConfigurationError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate tenant names in {names}")
    utilizations = (
        self.fabric.utilizations([background_stream(
            background_cores, background_rate_gbps,
            near_umcs(self.platform, tenants[0].server_ccd),
        )])
        if background_cores
        else {}
    )
    split = SplitRng(self.seed)
    reports = []
    sorted_parts = []
    for tenant in tenants:
        stream = (rng_streams or {}).get(
            tenant.name, f"kv-arrivals/{tenant.name}"
        )
        rng = split.stream(stream)
        workload = tenant.workload
        arrivals = _reference_generate(
            tenant.arrival, rng, workload.qps, workload.requests
        )
        services = self.service_times_ns(
            workload, tenant.server_ccd, tenant.workers, utilizations
        )
        departures = _reference_open_loop_departures(
            arrivals, services, servers=services.size
        )
        latencies = departures - arrivals
        span = float(departures.max() - arrivals[0])
        if span <= 0.0:
            raise MeasurementError(
                "degenerate serving span: all requests arrived and "
                "completed at one instant — achieved QPS is undefined"
            )
        ordered = np.sort(latencies)
        sorted_parts.append(ordered)
        reports.append(
            TenantReport(
                tenant.name,
                ServiceReport(
                    workload,
                    _reference_from_sorted(ordered),
                    achieved_qps=float(latencies.size / span * 1e9),
                ),
            )
        )
    return reports, _reference_merge(sorted_parts)


# ------------------------------------------------------------- comparison


def _exact(value):
    """``value`` down to its bits: floats as IEEE bytes, arrays as dtype,
    shape and bytes, dataclasses and sequences element by element."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _exact(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_exact(item) for item in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return struct.pack("<d", value)
    return (type(value).__name__, value)


def _assert_same_bits(got, want):
    assert _exact(got) == _exact(want)


#: (burst_factor, on_fraction): positive off-rates, and two whose off-rate
#: comes out exactly 0.0 (hard silences the reference can run).
ONOFF_SHAPES = ((3.0, 0.25), (1.5, 0.5), (1.0, 0.3), (4.0, 0.25), (2.0, 0.5))
DIURNAL_LEVELS = (
    (1.0,), (1.0, 2.0, 0.5, 0.5), (0.0, 1.0), (1.0, 0.0, 2.0, 0.0),
    tuple(0.5 + 0.5 * np.sin(np.linspace(0.0, 6.0, 24)) ** 2),
)
PERIODS_NS = (3e3, 5e4, 1e6)


def _random_arrival(rng):
    """A random :class:`ArrivalSpec` of any shape from ``rng``."""
    kind = rng.choice(("poisson", "onoff", "diurnal"))
    if kind == "poisson":
        return ArrivalSpec()
    period = rng.choice(PERIODS_NS)
    if kind == "onoff":
        burst, on = rng.choice(ONOFF_SHAPES)
        return ArrivalSpec(
            kind="onoff", burst_factor=burst, on_fraction=on, period_ns=period
        )
    return ArrivalSpec(
        kind="diurnal", levels=rng.choice(DIURNAL_LEVELS), period_ns=period
    )


def _random_cell(rng, platforms):
    """One random ``serve_tenants`` call drawn from ``rng``.

    Returns ``(server, tenants, kwargs)``: 1-4 tenants on distinct CCDs,
    each with its own shape, QPS (unloaded to saturated), value tier, index
    depth, worker count and a request count the pool does not divide; the
    background is off, a hog, or the hog paced.
    """
    platform = rng.choice(platforms)
    server = HybridKvServer(platform, seed=rng.randrange(4))
    ccds = rng.sample(sorted(platform.ccds), rng.randint(1, 4))
    tenants = []
    for index, ccd in enumerate(ccds):
        workers = rng.randint(1, 4)
        requests = rng.choice((10, 11, 13, 37, 250, 1001))
        if workers > 1 and requests % workers == 0:
            requests += 1
        tier = "cxl" if platform.cxl_devices and rng.random() < 0.4 else "dram"
        tenants.append(TenantSpec(
            f"t{index}",
            KvWorkload(
                qps=rng.choice((0.2e6, 1e6, 3e6, 6e6, rng.uniform(1e5, 8e6))),
                requests=requests,
                index_depth=rng.randint(1, 4),
                value_tier=tier,
            ),
            server_ccd=ccd,
            workers=workers,
            arrival=_random_arrival(rng),
        ))
    spare = platform.cores_of_ccd(ccds[0])[tenants[0].workers:] or (
        platform.cores_of_ccd((ccds[0] + 1) % len(platform.ccds))
    )
    background = rng.choice(("off", "hog", "paced"))
    kwargs = {}
    if background != "off":
        kwargs["background_cores"] = [core.core_id for core in spare]
    if background == "paced":
        kwargs["background_rate_gbps"] = rng.choice((2.0, 8.0))
    return server, tenants, kwargs


def _random_departure_trial(rng):
    """Sorted arrivals (ties, bursts, lengths 1 to past the pool size, some
    below it) and a service of each accepted form, drawn from ``rng``."""
    servers = rng.randint(1, 6)
    size = rng.choice((1, 2, 3, 5, rng.randint(1, 700)))
    gen = np.random.default_rng(rng.randrange(2**32))
    gaps = gen.exponential(rng.choice((0.5, 5.0, 50.0)), size)
    gaps[gen.random(size) < 0.2] = 0.0
    arrivals = rng.uniform(-10.0, 10.0) + np.cumsum(gaps)
    form = rng.choice(("scalar", "per-server", "per-request"))
    if form == "scalar":
        service = rng.choice((0.0, 1.0, 3.5, rng.uniform(0.0, 40.0)))
    elif form == "per-server":
        service = gen.uniform(0.0, 40.0, servers)
    else:
        servers = 1
        service = gen.uniform(0.0, 40.0, size)
    return arrivals, service, servers


def _random_parts(rng):
    """1-5 sorted latency shards (some empty) drawn from ``rng``."""
    gen = np.random.default_rng(rng.randrange(2**32))
    parts = []
    for _ in range(rng.randint(1, 5)):
        size = rng.choice((0, 1, 2, 7, rng.randint(1, 6000)))
        part = np.sort(gen.lognormal(6.0, rng.uniform(0.1, 1.5), size))
        part[: size // 5] = part[0] if size else 0.0  # a run of ties
        parts.append(part)
    if not any(part.size for part in parts):
        parts.append(np.array([123.25]))
    return parts


def _check_serving_cell(server, tenants, kwargs):
    _assert_same_bits(
        server.serve_tenants(tenants, **kwargs),
        _reference_serve_tenants(server, tenants, **kwargs),
    )


def _check_departure_trial(arrivals, service, servers):
    got = open_loop_departures(arrivals, service, servers)
    want = _reference_open_loop_departures(arrivals, service, servers)
    _assert_same_bits(got, want)
    if np.ndim(service) == 0:
        _assert_same_bits(
            open_loop_departures(arrivals, float(service), servers),
            _reference_scalar_departures(arrivals, service, servers),
        )
    latencies = np.sort(want - arrivals)
    _assert_same_bits(
        LatencyStats.from_sorted(latencies), _reference_from_sorted(latencies)
    )


# ------------------------------------------------------------------ tests


class TestServeTenantsIdentity:
    def test_seeded_sweep_is_bit_identical(self, p7302, p9634):
        rng = random.Random(17)
        shapes = set()
        for _ in range(240):
            server, tenants, kwargs = _random_cell(rng, (p7302, p9634))
            shapes.update(t.arrival.kind for t in tenants)
            _check_serving_cell(server, tenants, kwargs)
        assert shapes == {"poisson", "onoff", "diurnal"}

    def test_benchmark_tenants_are_bit_identical(self, p9634):
        # The four tenants of the end-to-end benchmark, at a small size.
        server = HybridKvServer(p9634, seed=1)
        hog = [core.core_id for core in p9634.cores_of_ccd(0)[4:]]
        tenants = [
            TenantSpec("web", KvWorkload(qps=3e6, requests=4001)),
            TenantSpec(
                "feed", KvWorkload(qps=3e6, requests=4001), server_ccd=1,
                arrival=ArrivalSpec(kind="onoff"),
            ),
            TenantSpec(
                "ads", KvWorkload(qps=3e6, requests=4001, value_tier="cxl"),
                server_ccd=2,
                arrival=ArrivalSpec(
                    kind="diurnal", levels=(1.0, 2.0, 0.5, 0.5)
                ),
            ),
            TenantSpec(
                "batch", KvWorkload(qps=3e6, requests=4001, index_depth=4),
                server_ccd=3,
            ),
        ]
        for kwargs in ({}, {"background_cores": hog},
                       {"background_cores": hog, "background_rate_gbps": 8.0}):
            _check_serving_cell(server, tenants, kwargs)


class TestArraysIdentity:
    def test_arrivals_are_bit_identical(self):
        rng = random.Random(5)
        for trial in range(120):
            seed = rng.randrange(2**32)
            count = rng.choice((1, 2, 9, rng.randint(1, 5000)))
            start = rng.choice((0.0, 250.0, rng.uniform(-1e3, 1e6)))
            qps = rng.uniform(1e5, 8e6)
            fresh = lambda: SplitRng(seed).stream("arrivals")  # noqa: E731
            _assert_same_bits(
                poisson_arrivals(fresh(), qps, count, start),
                _reference_poisson_arrivals(fresh(), qps, count, start),
            )
            on_ns = rng.choice((1.0, 300.0, rng.uniform(1.0, 1e5)))
            off_ns = rng.choice((0.0, 300.0, rng.uniform(0.0, 1e5)))
            off_qps = rng.choice((0.0, rng.uniform(0.0, qps)))
            _assert_same_bits(
                onoff_arrivals(
                    fresh(), qps, off_qps, on_ns, off_ns, count, start
                ),
                _reference_onoff_arrivals(
                    fresh(), qps, off_qps, on_ns, off_ns, count, start
                ),
            )
            levels = rng.choice(DIURNAL_LEVELS)
            period = rng.choice(PERIODS_NS)
            _assert_same_bits(
                diurnal_arrivals(fresh(), qps, levels, period, count, start),
                _reference_diurnal_arrivals(
                    fresh(), qps, levels, period, count, start
                ),
            )
            spec = _random_arrival(rng)
            _assert_same_bits(
                spec.generate(fresh(), qps, count),
                _reference_generate(spec, fresh(), qps, count),
            )

    def test_departures_and_stats_are_bit_identical(self):
        rng = random.Random(11)
        for _ in range(200):
            _check_departure_trial(*_random_departure_trial(rng))

    def test_merge_is_bit_identical(self):
        rng = random.Random(13)
        for _ in range(200):
            parts = _random_parts(rng)
            _assert_same_bits(
                LatencyStats.merge(parts), _reference_merge(parts)
            )

    def test_sortedness_verdicts_match_the_diff_check(self):
        # (a[1:] < a[:-1]).any() against np.diff(a) < 0 on every 0-4 long
        # array over finite, infinite and NaN values, at all four checks.
        values = (-np.inf, -1.0, 0.0, 2.5, np.inf, np.nan)
        checks = (
            (lambda a: open_loop_departures(a, 1.0, 2),
             lambda a: _reference_open_loop_departures(a, 1.0, 2)),
            (lambda a: open_loop_departures(a, 1.0, 2),
             lambda a: _reference_scalar_departures(a, 1.0, 2)),
            (LatencyStats.from_sorted, _reference_from_sorted),
            (lambda a: LatencyStats.merge([a]),
             lambda a: _reference_merge([a])),
        )
        for size in range(5):
            for combo in itertools.product(values, repeat=size):
                a = np.array(combo, dtype=float)
                for new, old in checks:
                    verdicts = []
                    for check in (new, old):
                        try:
                            with np.errstate(all="ignore"):
                                verdicts.append(("ok", _exact(check(a))))
                        except (ConfigurationError, MeasurementError) as exc:
                            verdicts.append(("raised", type(exc).__name__))
                    assert verdicts[0] == verdicts[1], combo


class TestInputsAreNotMutated:
    """``np.asarray`` of a float array aliases it: an in-place slip would
    silently rewrite the caller's data."""

    def test_departures_and_stats_leave_their_inputs(self):
        rng = random.Random(23)
        for _ in range(60):
            arrivals, service, servers = _random_departure_trial(rng)
            before = (arrivals.copy(), np.copy(service))
            open_loop_departures(arrivals, service, servers)
            if np.ndim(service) == 0:
                open_loop_departures(arrivals, float(service), servers)
            LatencyStats.from_sorted(arrivals)
            _assert_same_bits((arrivals, np.copy(service)), before)
            parts = _random_parts(rng)
            kept = [part.copy() for part in parts]
            LatencyStats.merge(parts)
            _assert_same_bits(parts, kept)

    def test_diurnal_leaves_its_level_array(self):
        levels = np.array([1.0, 0.0, 2.0, 0.5])
        kept = levels.copy()
        diurnal_arrivals(SplitRng(1).stream("a"), 2e6, levels, 1e5, 3000)
        _assert_same_bits(levels, kept)

    def test_serve_tenants_leaves_the_arrival_arrays(self, p9634, monkeypatch):
        handed_out = []

        def generate(spec, rng, qps, count):
            arrivals = _reference_generate(spec, rng, qps, count)
            handed_out.append((arrivals, arrivals.copy()))
            return arrivals

        monkeypatch.setattr(ArrivalSpec, "generate", generate)
        server, tenants, kwargs = _random_cell(random.Random(3), (p9634,))
        server.serve_tenants(tenants, **kwargs)
        assert len(handed_out) == len(tenants)
        for arrivals, kept in handed_out:
            _assert_same_bits(arrivals, kept)
