"""Fused intra-/inter-host networking and I/O stack (§4 direction #3).

"Recent trends indicate that inter-fabric bandwidth has gradually approached
or even outpaced intra-host bandwidth … a 400+GbE terabit Ethernet port and
8+ NVMe SSDs can sometimes drive more bandwidth than a compute chiplet. …
the network and I/O stack should consider both the internal and external
link characteristics and judiciously orchestrate data flows."

:mod:`repro.io.relay` quantifies that claim: a storage-server relay (NIC
ingress → host staging buffers → NVMe writes) evaluated under three stack
designs, from a conventional CPU-copy path that funnels everything through
one compute chiplet to a channel-aware orchestration that spreads staging
across memory domains.
"""
