"""Units and size constants used throughout the library.

Conventions
-----------
* **Time** is measured in nanoseconds (``float``). One simulated second is
  ``1e9`` ns.
* **Bandwidth** is measured in GB/s (decimal gigabytes, as in the paper's
  tables). A convenient identity falls out of these choices::

      1 GB/s == 1e9 bytes / 1e9 ns == 1 byte/ns

  so GB/s values can be used directly as bytes-per-nanosecond rates.
* **Sizes** are measured in bytes. Cache capacities in the paper are binary
  (KiB/MiB), so the binary constants are provided alongside.
"""

from __future__ import annotations

#: Size of one cacheline, the unit of most transactions in the paper (bytes).
CACHELINE = 64

#: CXL.mem FLIT sizes (bytes) defined by the CXL specification (68B for
#: CXL 1.1/2.0 protocol FLITs, 256B for CXL 3.x standard FLITs).
CXL_FLIT_SMALL = 68
CXL_FLIT_LARGE = 256

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Decimal gigabyte, used for bandwidth figures (GB/s) as in the paper.
GB = 10**9

