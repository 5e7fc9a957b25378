"""Memory-side substrates: caches, DRAM timing, UMCs, and CXL devices."""
