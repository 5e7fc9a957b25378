#!/usr/bin/env python3
"""A sub-microsecond KV server on a chiplet machine: where the time goes.

The "killer microseconds" scenario the paper's motivation cites: a GET
request costs NIC crossings, dependent index walks, and a value fetch —
all over the chiplet network. This example decomposes the request budget,
prices the CXL value tier, and shows a colocated scan wrecking (and a
traffic-manager grant restoring) the P99.

Run:  python examples/kv_server.py
"""

from repro.apps import KvServerModel, KvWorkload
from repro.platform.presets import epyc_9634


def report_line(tag, report):
    latency = report.latency
    print(
        f"  {tag:<26} mean {latency.mean:6.0f} ns   "
        f"p99 {latency.p99:6.0f} ns   slo(1.5us) "
        f"{'PASS' if report.meets_slo(1.5) else 'FAIL'}"
    )


def main() -> None:
    platform = epyc_9634()
    server = KvServerModel(platform, workers=4, seed=3)
    workload = KvWorkload(qps=1_000_000, requests=600)
    print(f"KV server on {platform.name}: 4 workers on ccd0, 1M QPS GETs\n")

    print("-- request anatomy --")
    base = server.serve(workload)
    report_line("baseline (DRAM values)", base)
    deep = server.serve(KvWorkload(qps=1_000_000, requests=600, index_depth=4))
    report_line("deep index (4 hops)", deep)
    cxl = server.serve(
        KvWorkload(qps=1_000_000, requests=600, value_tier="cxl")
    )
    report_line("values tiered to CXL", cxl)
    big = server.serve(
        KvWorkload(qps=1_000_000, requests=600, value_bytes=4096)
    )
    report_line("4 KiB values", big)

    print("\n-- colocation --")
    # The scan's DES cost grows with the serving span, so this section
    # serves a shorter burst, against its own baseline of the same length.
    burst = KvWorkload(qps=1_000_000, requests=100)
    background = [core.core_id for core in platform.cores_of_ccd(0)[4:]]
    report_line("alone (100 requests)", server.serve(burst))
    noisy = server.serve(burst, background_cores=background)
    report_line("with unthrottled scan", noisy)
    paced = server.serve(
        burst, background_cores=background, background_rate_gbps=8.0
    )
    report_line("scan paced to 8 GB/s", paced)

    print(
        "\nevery extra dependent hop is a full fabric round trip; CXL "
        "tiering adds\n~100 ns per value; and a same-chiplet scan moves the "
        "tail until a traffic-\nmanager grant pins it back."
    )


if __name__ == "__main__":
    main()
