"""Transaction layer: typed messages, path compilation, DES execution.

The paper's L3 transaction layer "describes data flows from source to
destination entities at the cacheline or FLIT granularity" (§2.3). Here a
:class:`~repro.transport.message.Transaction` is routed by the
:class:`~repro.transport.path.PathResolver` into a compiled path — the fixed
propagation latency plus the ordered queued stages it must clear — and driven
through the DES by :class:`~repro.transport.transaction.TransactionExecutor`.
"""
