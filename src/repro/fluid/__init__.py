"""Flow-level (fluid) bandwidth model.

Sustained-bandwidth experiments (Tables 3, Figures 4-6) move billions of
cachelines — far beyond per-event simulation in Python. The fluid model keeps
the mechanisms that matter at that scale:

* capacity sharing on each directed channel is *demand-proportional* among
  the flows crossing it (the emergent behaviour of traffic-oblivious FIFO
  arbitration — §3.5's "sender-driven aggressive bandwidth partitioning");
* a flow's achieved bandwidth is bounded by every channel on its path, so
  whichever domain saturates first binds (§3.3's bandwidth domains);
* rate changes propagate with per-link adaptation dynamics, reproducing the
  ≈100 ms / ≈500 ms harvesting delays and the 7302's oscillation (Figure 5).

There is one solver, :func:`~repro.fluid.solver.solve`, written as plain
loops: every flow set the simulator builds is small enough that array
machinery costs more than it saves. Time series stay cheap because
:meth:`~repro.fluid.timeseries.FluidSimulator.run` calls it only on steps
whose demands or capacities changed.
"""
