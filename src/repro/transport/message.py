"""Transaction message types."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import CACHELINE

__all__ = ["OpKind", "Transaction"]

_txn_ids = itertools.count()


class OpKind(enum.Enum):
    """Memory operation kinds the microbenchmark utility generates (§3.1)."""

    READ = "read"
    #: Regular (temporal) store: allocates in cache, write-back semantics.
    WRITE = "write"
    #: Non-temporal store: bypasses the cache hierarchy, streams to memory —
    #: the paper's bandwidth experiments use AVX-512 NT writes (Table 3).
    NT_WRITE = "nt-write"

    @property
    def is_write(self) -> bool:
        return self is not OpKind.READ


@dataclass
class Transaction:
    """One cacheline-granularity data movement through the chiplet network."""

    op: OpKind
    size_bytes: int = CACHELINE
    src_core: int = 0
    target: str = "dram"
    flow_id: Optional[int] = None
    txn_id: int = field(default_factory=_txn_ids.__next__)
    issued_ns: Optional[float] = None
    completed_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(
                f"transaction size must be positive, got {self.size_bytes}"
            )

    @property
    def latency_ns(self) -> float:
        if self.issued_ns is None or self.completed_ns is None:
            raise ConfigurationError(
                f"transaction {self.txn_id} has not completed"
            )
        return self.completed_ns - self.issued_ns
