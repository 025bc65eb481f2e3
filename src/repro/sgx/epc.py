"""Enclave page cache: the 128 MiB protected-memory budget.

Real SGX v1 reserves ~128 MiB of encrypted memory for all enclaves on a
machine; enclaves larger than that still work but pay a severe paging
penalty (SCONE and SecureKeeper measured order-of-magnitude slowdowns).
The model tracks per-enclave allocations against the machine-wide budget
and reports how many page faults a memory footprint implies, which the
cost model converts into time.
"""

from __future__ import annotations

from typing import Dict

from repro.telemetry.registry import Registry

EPC_SIZE_BYTES = 128 * 1024 * 1024
PAGE_SIZE = 4096


class EpcError(RuntimeError):
    """Raised on invalid EPC operations (double free, unknown owner)."""


class EnclavePageCache:
    """Machine-wide EPC accounting.

    Page events report into :mod:`repro.telemetry` under ``sgx.epc.*``:
    allocations/frees here, and expected page-fault counts charged by
    the cost-accounting ecalls (:mod:`repro.core.enclave_app`) via the
    shared ``sgx.epc.page_faults`` counter.
    """

    def __init__(self, size_bytes: int = EPC_SIZE_BYTES) -> None:
        self.size_bytes = size_bytes
        self._allocations: Dict[str, int] = {}
        self._enclave_seq = 0
        registry = Registry.current()
        self._tm_allocated = registry.counter("sgx.epc.pages_allocated")
        self._tm_freed = registry.counter("sgx.epc.pages_freed")
        # created eagerly so every telemetry artifact reports EPC fault
        # counts, zero included
        registry.counter("sgx.epc.page_faults")

    # ------------------------------------------------------------------
    def next_enclave_id(self) -> str:
        """Deterministic per-EPC enclave naming.

        The id seeds the enclave's simulated entropy source, so it is a
        per-platform sequence rather than a process-global counter —
        repeated runs in one interpreter must mint identical ids.
        """
        self._enclave_seq += 1
        return f"enclave-{self._enclave_seq}"

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocations.values())

    def allocate(self, owner: str, num_bytes: int) -> None:
        """Reserve pages for ``owner`` (an enclave id)."""
        if num_bytes < 0:
            raise EpcError("negative allocation")
        pages = -(-num_bytes // PAGE_SIZE)
        self._allocations[owner] = self._allocations.get(owner, 0) + pages * PAGE_SIZE
        self._tm_allocated.inc(pages)

    def free(self, owner: str) -> None:
        """Release the owner's pages."""
        if owner not in self._allocations:
            raise EpcError(f"unknown EPC owner {owner!r}")
        self._tm_freed.inc(self._allocations[owner] // PAGE_SIZE)
        del self._allocations[owner]

    def usage_of(self, owner: str) -> int:
        """Bytes currently reserved by the owner."""
        return self._allocations.get(owner, 0)

    # ------------------------------------------------------------------
    def oversubscription_pages(self) -> int:
        """Number of pages that do not fit and must be swapped."""
        excess = self.allocated_bytes - self.size_bytes
        return max(0, -(-excess // PAGE_SIZE)) if excess > 0 else 0

    def paging_fraction(self) -> float:
        """Fraction of enclave pages living outside the EPC.

        Memory accesses hit a swapped page with (roughly) this
        probability; the cost model multiplies it with the per-fault
        penalty to charge the paging tax.
        """
        allocated = self.allocated_bytes
        if allocated <= self.size_bytes or allocated == 0:
            return 0.0
        return (allocated - self.size_bytes) / allocated
