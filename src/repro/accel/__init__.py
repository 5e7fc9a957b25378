"""Accelerator dispatch over the chiplet network (§4 direction #4).

"Dense GPU and domain-specific accelerator servers have become prevalent…
the accelerator execution is activated via submission commands and completed
through acknowledgment responses, which are latency-sensitive.
Bandwidth-intensive input/output data is copied to/from the accelerator
memory explicitly through DMA… In chiplet networking, all such
communications traverse the device bus, I/O hub, and I/O chiplet, which
embody performance idiosyncrasies."

This package models exactly that signal plane and data plane:

* :class:`~repro.accel.device.AcceleratorModel` — a PCIe accelerator with a
  launch-overhead + streaming-throughput kernel model;
* :class:`~repro.accel.dispatch.DispatchSimulator` — the DES driver for one
  job: doorbell → descriptor fetch → input DMA → compute → output DMA →
  completion write, each traversing the real hub/P-Link/NoC path;
* :class:`~repro.accel.switch.IntraHostSwitch` — the proposed switching
  module: it reads the traffic matrix and provisions background flows so
  the latency-sensitive dispatch path keeps headroom.
"""
