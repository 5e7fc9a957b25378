"""The characterization utility — the paper's measurement tool (§3.1).

"We developed a micro benchmark utility … that can flexibly generate
different data flows (such as one or multiple concurrent cachelines,
random/sequential read/write access patterns, and temporal or non-temporal
writes) over a size-configurable working set, originating from and destined
to compute chiplets, memory domains, and device domains."

:class:`~repro.core.microbench.MicroBench` is that utility, pointed at the
simulated platform instead of real silicon:

* pointer-chase latency mode (Table 2),
* streaming bandwidth mode with core/CCX/CCD/CPU scaling (Table 3),
* rate-controlled loaded-latency mode (Figure 3),
* competing-flow mode (Figures 4-6) via :mod:`repro.core.partition`.
"""
