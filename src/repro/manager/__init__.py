"""Global software traffic manager — the paper's §4 proposal, realized.

Implication #4 argues for "the communication flow abstraction, materialize[d]
in a global software-based traffic manager".
:class:`~repro.manager.manager.TrafficManager` registers flows, computes
max-min fair allocations over the platform's bandwidth domains, and emits
per-flow rate limits — replacing the hardware's sender-driven aggressive
partitioning with policy.
:func:`repro.experiments.ablations.manager_vs_sender_driven` contrasts the
two on Figure 4's cases (``repro all`` prints its headline).
"""
