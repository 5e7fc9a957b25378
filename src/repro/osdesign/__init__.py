"""Scalable OS structure on a chiplet network (§4 direction #2).

"The multikernel OS structure is motivated by the costly interconnect …
However, such a design might not be suitable in chiplet networking due to
the extended communication path (§3.2), heterogeneous bandwidth domains
(§3.3), and inconsistent BDP (§3.4)."

This package quantifies that question for a concrete kernel object (a
shared run-queue-like structure updated from every core):

* :class:`~repro.osdesign.model.SharedMemoryDesign` — one cache-line-homed
  object; every update migrates the line to the writer, so the update path
  *is* the chiplet network's core-to-core transfer latency and updates
  serialize on the line;
* :class:`~repro.osdesign.model.MultikernelDesign` — per-chiplet replicas
  synchronized by asynchronous 64 B messages over the IF links; updates
  apply locally at L3 speed, but global visibility pays the message path
  and the broadcast loads every chiplet's IF link.

``repro.experiments.os_scaling`` sweeps update rates on both platforms and
finds where each design saturates — the "scalable commutativity" question,
with chiplet-network numbers in it.
"""
