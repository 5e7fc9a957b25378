"""``repro.net`` — the treatment layer: an intra-server networking stack.

The reproduction's other packages *diagnose* the paper's idiosyncrasies
(telemetry, faults, the fluid and DES backends); this package is the §4
*treatment*: receiver-driven credit-based congestion control
(:mod:`repro.net.credits`) and QoS classes (:mod:`repro.net.qos`), tied
together by one configuration (:class:`~repro.net.stack.NetStackConfig`)
that realizes identically on both backends —
:func:`~repro.net.stack.fluid_allocation` for steady state,
:func:`~repro.net.inject.install` for the discrete-event simulator.
:mod:`repro.net.recovery` closes the loop with :mod:`repro.faults`:
link-health detection, credit reclamation through permanent failures,
deadline/backoff retransmission, and health-aware failover.
"""
