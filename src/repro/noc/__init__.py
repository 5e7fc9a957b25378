"""Network-on-chip substrate of the I/O die.

The I/O chiplet's internal interconnect (paper §2.2, Figure 2): a mesh of
switching stops traversed by XY dimension-order routing, token-based traffic
control modules at the compute chiplets (the "queueless structure like
Phantom Queue" of §3.2), and FIFO traffic-oblivious link arbitration (the
mechanism behind §3.5's sender-driven bandwidth partitioning).

Beyond the preset hardware's XY mesh, :mod:`repro.noc.routing` generalizes
the substrate to generated router grids (arbitrary dims, 3D sparse-pillar
layers, link-weight encodings) with credit-aware adaptive minimal routing
(:class:`~repro.noc.router.AdaptiveMeshNetwork`) and escape-VC deadlock
safety.
"""
