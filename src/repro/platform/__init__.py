"""Chiplet-based server SoC platform model.

This package encodes the structure the paper characterizes (§2.2, Figure 1):
compute chiplets (CCDs) containing core complexes (CCXs) that share L3 slices,
a single I/O die with a mesh NoC, unified memory controllers (UMCs) with
attached DIMMs, I/O hubs with P Links to PCIe/CXL devices, and the
heterogeneous links connecting them.

Two presets reproduce the evaluated machines of Table 1:

* :func:`~repro.platform.presets.epyc_7302` — Zen 2, 16 cores / 8 CCX / 4 CCD
* :func:`~repro.platform.presets.epyc_9634` — Zen 4, 84 cores / 12 CCX / 12 CCD
  with four CXL memory modules

Beyond the presets, :mod:`repro.platform.generator` generalizes the model
into a topology *generator* (:class:`~repro.platform.generator.TopologyGen`):
mesh dimensions, component placement, 3D sparse-pillar layers, and link
width/weight encodings, materializing the same
:class:`~repro.platform.topology.Platform` objects — the presets are two
points of that generated space.
"""
