"""The chiplet-network device tree (§4 direction #1).

"We believe that a similar hardware abstraction for chiplet networks (like
/sys/firmware/chiplet-net) is essential. It not only presents an
architectural overview … but also provides runtime performance telemetry
statistics for each link and intermediate hop through /proc/chiplet-net."

:func:`build_devtree` produces the static hardware description as a nested
dict; :func:`render_dts` renders it in device-tree-source style; and
:func:`proc_chiplet_net` renders the runtime per-link telemetry report.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.platform.topology import Platform
from repro.telemetry.counters import CounterRegistry

__all__ = ["build_devtree", "render_dts", "proc_chiplet_net"]


def build_devtree(platform: Platform) -> Dict:
    """The static hardware description of a platform as a nested dict."""
    spec = platform.spec
    tree: Dict = {
        "compatible": f"amd,{spec.name.lower().replace(' ', '-')}",
        "microarchitecture": spec.microarchitecture,
        "sockets": spec.sockets,
        "compute-chiplets": {},
        "io-chiplet": {
            "mesh-grid": list(spec.mesh_grid),
            "switching-hop-ns": spec.latency.switching_hop_ns,
            "noc-capacity-gbps": [
                spec.bandwidth.noc_read_gbps, spec.bandwidth.noc_write_gbps,
            ],
            "memory-controllers": {},
            "io-hubs": {},
        },
    }
    for ccd in platform.ccds.values():
        node: Dict = {
            "mesh-port": list(ccd.coord),
            "gmi-capacity-gbps": [
                spec.bandwidth.gmi_read_gbps, spec.bandwidth.gmi_write_gbps,
            ],
            "core-complexes": {},
        }
        for ccx_id in ccd.ccx_ids:
            ccx = platform.ccxs[ccx_id]
            node["core-complexes"][ccx.name] = {
                "cores": list(ccx.core_ids),
                "l3-slice-bytes": ccx.l3_slice_bytes,
            }
        tree["compute-chiplets"][ccd.name] = node
    for umc in platform.umcs.values():
        dimm = platform.dimms[umc.umc_id]
        tree["io-chiplet"]["memory-controllers"][umc.name] = {
            "mesh-stop": list(umc.coord),
            "dimm": dimm.name,
            "dimm-capacity-bytes": dimm.capacity_bytes,
            "channel-capacity-gbps": [
                spec.bandwidth.umc_read_gbps, spec.bandwidth.umc_write_gbps,
            ],
        }
    for hub in platform.io_hubs.values():
        hub_node: Dict = {"mesh-stop": list(hub.coord), "root-complexes": {}}
        for rc in platform.root_complexes.values():
            if rc.hub_id != hub.hub_id:
                continue
            rc_node: Dict = {
                "p-link-capacity-gbps": [
                    spec.bandwidth.p_link_read_gbps,
                    spec.bandwidth.p_link_write_gbps,
                ],
                "devices": {},
            }
            for dev in platform.cxl_devices.values():
                if dev.rc_id == rc.rc_id:
                    rc_node["devices"][dev.name] = {
                        "class": "cxl-type3-memory",
                        "capacity-bytes": dev.capacity_bytes,
                        "flit-bytes": dev.flit_bytes,
                    }
            for dev in platform.pcie_devices.values():
                if dev.rc_id == rc.rc_id:
                    rc_node["devices"][dev.name] = {
                        "class": f"pcie-{dev.kind}",
                        "lanes": dev.lanes,
                        "mmio-read-ns": platform.spec.latency.mmio_read_ns(
                            0, 0
                        ),
                    }
            hub_node["root-complexes"][rc.name] = rc_node
        tree["io-chiplet"]["io-hubs"][hub.name] = hub_node
    return tree


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return f"<{value}>"
    if isinstance(value, list):
        return "<" + " ".join(str(v) for v in value) + ">"
    return f'"{value}"'


def render_dts(tree: Dict, name: str = "chiplet-net", indent: int = 0) -> str:
    """Render the device tree in DTS-like syntax."""
    pad = "\t" * indent
    lines = [f"{pad}{name} {{"]
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(render_dts(value, key, indent + 1))
        else:
            lines.append(f"{pad}\t{key} = {_render_value(value)};")
    lines.append(f"{pad}}};")
    return "\n".join(lines)


def proc_chiplet_net(
    platform: Platform,
    counters: CounterRegistry,
    elapsed_ns: float,
    utilizations: Optional[Dict[str, float]] = None,
) -> str:
    """Render the runtime `/proc/chiplet-net`-style per-link report."""
    lines = [
        f"chiplet-net: {platform.name} ({platform.spec.microarchitecture})",
        f"sample-window-ns: {elapsed_ns:.0f}",
        f"{'link':<16}{'kind':<10}{'rd-bytes':>12}{'wr-bytes':>12}"
        f"{'rd-GB/s':>9}{'wr-GB/s':>9}{'rd-util':>9}{'wr-util':>9}",
    ]
    for name in sorted(platform.links):
        link = platform.link(name)
        counter = counters.get(name)
        read_bytes = counter.read_bytes if counter else 0
        write_bytes = counter.write_bytes if counter else 0
        read_rate = read_bytes / elapsed_ns if elapsed_ns > 0 else 0.0
        write_rate = write_bytes / elapsed_ns if elapsed_ns > 0 else 0.0
        read_util = (utilizations or {}).get(
            f"{name}:r", read_rate / link.read_gbps
        )
        write_util = (utilizations or {}).get(
            f"{name}:w", write_rate / link.write_gbps
        )
        lines.append(
            f"{name:<16}{link.kind.value:<10}{read_bytes:>12}{write_bytes:>12}"
            f"{read_rate:>9.2f}{write_rate:>9.2f}"
            f"{min(1.0, read_util):>9.1%}{min(1.0, write_util):>9.1%}"
        )
    return "\n".join(lines)
