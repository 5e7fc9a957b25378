"""Discrete-event simulation kernel.

A deliberately small simpy-style engine: an :class:`~repro.sim.engine.Environment`
drives generator-based processes that yield events (timeouts, resource
requests, other processes). It is the substrate for the transaction-level
experiments (Table 2, Figure 3); the sustained-bandwidth experiments use the
fluid model in :mod:`repro.fluid` instead.
"""
