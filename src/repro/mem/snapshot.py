"""Snapshots and snapshot stacks.

A :class:`Snapshot` is an immutable record of the pages a unikernel
context dirtied, plus the captured CPU register state.  Snapshots form
*stacks* through their ``parent`` link: each snapshot is a page-level
diff on the one below it, and a page read resolves to the topmost
snapshot in the stack that owns it (§3 "Snapshot Stacks").

Lifetime follows the paper's rule: "a snapshot can only be deleted
safely when no other snapshots or UCs depend on it" — enforced here by
refcounts (:meth:`Snapshot.retain` / :meth:`Snapshot.release` /
:meth:`Snapshot.delete`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SnapshotCorruptionError, SnapshotError
from repro.mem.frames import FrameAllocator
from repro.mem.intervals import IntervalSet
from repro.trace import current as _active_tracer
from repro.units import pages_to_mb

#: Allocation category used for snapshot-owned frames.
SNAPSHOT_CATEGORY = "snapshot"


def content_checksum(name: str, pages: IntervalSet, cpu: "CpuState") -> int:
    """CRC32 over everything a restore depends on.

    The simulation has no real page bytes, so the checksum covers the
    snapshot's *identity*: its name, the exact page extents it owns, and
    the captured CPU state.  That is enough to model the real system's
    integrity property — any divergence between what was captured and
    what a restore would deploy is detectable.
    """
    crc = zlib.crc32(name.encode())
    for start, stop in pages.intervals():
        crc = zlib.crc32(f"{start}:{stop};".encode(), crc)
    crc = zlib.crc32(
        f"{cpu.instruction_pointer}:{cpu.stack_pointer}:{cpu.trigger_label}".encode(),
        crc,
    )
    return crc


@dataclass(frozen=True)
class CpuState:
    """Register state captured alongside the address space.

    The prototype triggers capture with the x86 debug register, so the
    snapshot records the exact instruction where execution will resume
    (§6 "Triggering Snapshots").
    """

    instruction_pointer: int = 0
    stack_pointer: int = 0
    trigger_label: str = ""
    registers: Dict[str, int] = field(default_factory=dict)


class Snapshot:
    """An immutable page-level diff with a parent lineage."""

    def __init__(
        self,
        name: str,
        pages: IntervalSet,
        allocator: FrameAllocator,
        parent: Optional["Snapshot"] = None,
        cpu: Optional[CpuState] = None,
        dedup=None,
        content_namespace: Optional[str] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.cpu = cpu or CpuState()
        self._pages = pages.copy()
        self._allocator = allocator
        self._refs = 0
        self._deleted = False
        self._orphan = False
        # Content checksum recorded at capture and validated on restore
        # (the snapshot-integrity path).  A corrupting fault flips
        # ``_corrupted``, standing in for bit rot in the stored frames.
        self._checksum = content_checksum(name, self._pages, self.cpu)
        self._corrupted = False
        # Memoised union of the stack's pages, keyed by the summed
        # generation counters of every page set in the chain (snapshots
        # are immutable, so in practice the cache is built once).
        self._stack_cache: Optional[IntervalSet] = None
        self._stack_cache_token = -1
        # Memoised recomputed checksum for verify(): (generation, crc).
        self._checksum_memo: Optional[Tuple[int, int]] = None
        # Cloning the dirty pages into snapshot-owned frames is the
        # capture step; the frames are held until the snapshot is deleted.
        # With a dedup domain attached, the duplicate-content region
        # routes through the refcounted SharedFrameTable instead: only
        # first-holder chunks claim frames, everything else merges free.
        self._dedup = dedup
        self._chunks: Tuple[Tuple[str, int], ...] = ()
        self._shared_pages = 0
        newly_shared = 0
        if (
            dedup is not None
            and dedup.capture_enabled
            and content_namespace is not None
        ):
            chunks, shared, newly_shared = dedup.capture_chunks(
                content_namespace, self._pages.page_count
            )
            self._chunks = tuple(chunks)
            self._shared_pages = shared
            allocator.allocate(
                self._pages.page_count - shared, SNAPSHOT_CATEGORY
            )
        else:
            allocator.allocate(self._pages.page_count, SNAPSHOT_CATEGORY)
        if parent is not None:
            parent.retain()
        # "Upon snapshotting, the complete page table structure is
        # captured" (§6) — charge the paging-structure pages too.
        from repro.mem.paging import page_table_pages_for

        self._page_table_pages = page_table_pages_for(self.stack_page_count())
        allocator.allocate(self._page_table_pages, SNAPSHOT_CATEGORY)
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.event(
                "snapshot.capture",
                snapshot=name,
                pages=self._pages.page_count,
                page_table_pages=self._page_table_pages,
                depth=self.depth,
            )
            # Frames the capture claimed from the pool: chunks that
            # merged into already-resident frames claimed none.
            tracer.counter(
                "mem.snapshot_pages_held", self.private_pages + newly_shared
            )

    # -- introspection ---------------------------------------------------
    @property
    def pages(self) -> IntervalSet:
        """The pages this snapshot owns (a *copy*; snapshots are immutable)."""
        return self._pages.copy()

    @property
    def page_count(self) -> int:
        return self._pages.page_count

    @property
    def size_mb(self) -> float:
        return pages_to_mb(self._pages.page_count)

    @property
    def page_table_pages(self) -> int:
        """Pages of captured paging structures (cache-entry overhead)."""
        return self._page_table_pages

    @property
    def footprint_pages(self) -> int:
        """Total physical frames held: data pages + paging structures."""
        return self._pages.page_count + self._page_table_pages

    @property
    def footprint_mb(self) -> float:
        return pages_to_mb(self.footprint_pages)

    @property
    def private_pages(self) -> int:
        """Frames only this snapshot holds: data pages outside its
        shared chunks, plus paging structures."""
        return (
            self._pages.page_count
            - self._shared_pages
            + self._page_table_pages
        )

    @property
    def shared_pages(self) -> int:
        """Pages routed through the dedup domain's shared frame table."""
        return self._shared_pages

    @property
    def shared_chunks(self) -> Tuple[Tuple[str, int], ...]:
        """``(content id, pages)`` of each shared chunk this snapshot
        holds (empty without capture-time dedup)."""
        return self._chunks

    @property
    def refcount(self) -> int:
        return self._refs

    @property
    def deleted(self) -> bool:
        return self._deleted

    @property
    def depth(self) -> int:
        """Number of snapshots in this stack (1 for a base snapshot)."""
        return 1 + (self.parent.depth if self.parent is not None else 0)

    def stack(self) -> List["Snapshot"]:
        """The snapshot stack, base first, this snapshot last."""
        chain: List[Snapshot] = []
        node: Optional[Snapshot] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def _stack_token(self) -> int:
        """Invalidation key for the memoised stack union.

        The summed page-set generations down the chain: any mutation of
        any layer's pages (never happens for live snapshots, but the
        cache does not rely on that) changes the token.
        """
        token = 0
        node: Optional[Snapshot] = self
        while node is not None:
            token += node._pages.generation + 1
            node = node.parent
        return token

    def stack_pages_view(self) -> IntervalSet:
        """Shared memoised union of the stack's pages — do **not** mutate.

        The overlap-query fast path: readers that only need membership
        or overlap counts borrow this instance instead of materialising
        a fresh union per query.
        """
        token = self._stack_token()
        if self._stack_cache is None or self._stack_cache_token != token:
            if self.parent is None:
                union = self._pages.copy()
            else:
                union = self.parent.stack_pages_view().union(self._pages)
            self._stack_cache = union
            self._stack_cache_token = token
        return self._stack_cache

    def stack_pages(self) -> IntervalSet:
        """Union of pages mapped anywhere in the stack (a fresh copy)."""
        return self.stack_pages_view().copy()

    def stack_page_count(self) -> int:
        return self.stack_pages_view().page_count

    def owns(self, page: int) -> bool:
        return page in self._pages

    # -- integrity -------------------------------------------------------
    @property
    def checksum(self) -> int:
        """The content checksum recorded at capture."""
        return self._checksum

    @property
    def intact(self) -> bool:
        """Whether this snapshot (alone, not its stack) passes validation."""
        if self._corrupted:
            return False
        # The recomputation is memoised against the page set's mutation
        # counter, so the per-restore verify walk is O(stack depth), not
        # O(total extents) — corruption is modelled by ``_corrupted``,
        # which bypasses the memo above.
        generation = self._pages.generation
        memo = self._checksum_memo
        if memo is None or memo[0] != generation:
            memo = (
                generation,
                content_checksum(self.name, self._pages, self.cpu),
            )
            self._checksum_memo = memo
        return self._checksum == memo[1]

    def corrupt(self) -> None:
        """Simulate bit rot: the stored content no longer matches the
        checksum.  The damage is only *observed* at the next
        :meth:`verify` — exactly like real at-rest corruption."""
        self._corrupted = True

    def verify(self, deep: bool = True) -> None:
        """Validate checksums before a restore; raises on mismatch.

        ``deep`` walks the whole stack, since deploying from this
        snapshot resolves page faults through every ancestor.
        """
        node: Optional[Snapshot] = self
        while node is not None:
            if not node.intact:
                raise SnapshotCorruptionError(
                    f"snapshot {node.name!r} failed checksum validation"
                    + ("" if node is self else f" (ancestor of {self.name!r})")
                )
            node = node.parent if deep else None

    def resolve(self, page: int) -> Optional["Snapshot"]:
        """Find the topmost snapshot in the stack owning ``page``.

        This is the fault-resolution walk SEUSS OS performs when a UC
        touches a page it has no private copy of.
        """
        node: Optional[Snapshot] = self
        while node is not None:
            if page in node._pages:
                return node
            node = node.parent
        return None

    # -- lifetime ----------------------------------------------------------
    def retain(self) -> None:
        if self._deleted:
            raise SnapshotError(f"retain on deleted snapshot {self.name!r}")
        self._refs += 1

    def mark_orphan(self) -> None:
        """Delete automatically once the last reference drops.

        Used for snapshots that lost the cache-insertion race: two UCs
        cold-started the same function concurrently, the cache kept the
        first snapshot, and the loser must be reaped when its only
        dependent (the UC that captured it) is destroyed.
        """
        self._orphan = True
        if self._refs == 0 and not self._deleted:
            self.delete()

    def release(self) -> None:
        if self._refs <= 0:
            raise SnapshotError(f"release underflow on snapshot {self.name!r}")
        self._refs -= 1
        if self._refs == 0 and self._orphan and not self._deleted:
            self.delete()

    def delete(self) -> int:
        """Free the snapshot's frames; returns pages actually freed.

        Only legal when nothing depends on it; the prototype only ever
        deletes function-specific snapshots with no active UCs.  The
        return value equals :attr:`footprint_pages` without dedup;
        with dedup, shared chunks only free at refcount zero, so a
        holder whose chunks are still referenced frees less.
        """
        if self._deleted:
            raise SnapshotError(f"double delete of snapshot {self.name!r}")
        if self._refs > 0:
            raise SnapshotError(
                f"snapshot {self.name!r} still has {self._refs} dependents"
            )
        private = self.private_pages
        if self._dedup is not None:
            # A retroactive scanner may have merged snapshot-category
            # frames out from under us; un-merge the shortfall first so
            # the category free below cannot underflow.
            self._dedup.before_snapshot_free(private)
        self._allocator.free(private, SNAPSHOT_CATEGORY)
        freed = private
        if self._chunks:
            freed += self._dedup.release_chunks(
                content_id for content_id, _ in self._chunks
            )
        self._deleted = True
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.event("snapshot.delete", snapshot=self.name)
            tracer.counter("mem.snapshot_pages_held", -freed)
        if self.parent is not None:
            self.parent.release()
            self.parent = None
        return freed

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.name!r}, {self.size_mb:.1f} MB, "
            f"depth={self.depth}, refs={self._refs})"
        )
