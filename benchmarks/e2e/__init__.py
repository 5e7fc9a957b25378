"""End-to-end benchmark of the ``repro`` simulator.

Five workloads, each timed in its own process, with host-time end-to-end
metrics, digest-checked simulated outputs, and a separate traced run that
attributes host time to the library's layers. See ``README.md`` here.
"""

from pathlib import Path

#: Repository root (the benchmark reads ``BENCHMARK.json`` and ``src/`` here).
ROOT = Path(__file__).resolve().parents[2]
