"""Set-associative sector cache (timing/tag model).

Data always lives in :class:`~repro.mem.physical.PhysicalMemory`; caches
here only track tags, valid sectors and LRU state so the timing hierarchy
knows which accesses hit and which sectors must be fetched from the next
level.  Lines are 128 B with 32 B sectors (Table IV), matching the paper's
GPU-style hierarchy: write-through, no-write-allocate L1; memory-side
write-back L2 that also performs global atomics.

That state is four ``[num_sets, ways]`` int64 arrays: the line tag (``-1``
marks an empty way), the valid-sector and dirty-sector bitmasks, and the
LRU stamp of the line's last touch (``0`` in empty ways).  The scalar
:meth:`SectorCache.access` and the vectorized
:meth:`SectorCache.access_batch` read and write the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import CacheConfig
from repro.sim.stats import StatsRegistry

_EMPTY = -1                     # tag of an empty way


@dataclass
class AccessResult:
    """Outcome of a cache lookup.

    ``missing_sectors`` lists (sector_addr, sector_size) pairs that must be
    supplied by the next level; ``writebacks`` lists (addr, size) of dirty
    data evicted to make room.
    """

    hit_sectors: int = 0
    missing_sectors: list[tuple[int, int]] = field(default_factory=list)
    writebacks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def full_hit(self) -> bool:
        return not self.missing_sectors


@dataclass
class BatchAccessResult:
    """Outcome of one :meth:`SectorCache.access_batch` stream.

    ``fill_idx`` are batch positions whose sector must be supplied by the
    next level (in stream order); ``wb_idx``/``wb_addrs`` pair each dirty
    evicted sector with the batch position of the allocation that evicted
    it (ordered by that position), so the caller can interleave writeback
    traffic at the right time.
    """

    hit_mask: np.ndarray
    fill_idx: np.ndarray
    wb_idx: np.ndarray
    wb_addrs: np.ndarray


class SectorCache:
    """LRU set-associative sector cache."""

    def __init__(
        self,
        config: CacheConfig,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "cache",
        write_allocate: bool = True,
        write_back: bool = True,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.prefix = stats_prefix
        self.write_allocate = write_allocate
        self.write_back = write_back
        shape = (config.num_sets, config.ways)
        self._tag = np.full(shape, _EMPTY, dtype=np.int64)
        self._valid = np.zeros(shape, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._lru = np.zeros(shape, dtype=np.int64)
        self._stamp = 0
        self.sectors_per_line = config.line_bytes // config.sector_bytes

    # ------------------------------------------------------------------

    def _locate(self, addr: int) -> tuple[int, int, int]:
        """Return (set_index, tag, sector_index) for a byte address."""
        line_id = addr // self.config.line_bytes
        set_index = line_id % self.config.num_sets
        tag = line_id // self.config.num_sets
        sector_index = (addr % self.config.line_bytes) // self.config.sector_bytes
        return set_index, tag, sector_index

    def _touch(self, set_index: int, way: int) -> None:
        self._stamp += 1
        self._lru[set_index, way] = self._stamp

    def _sectors_touched(self, addr: int, size: int) -> list[int]:
        """Sector-aligned addresses covered by [addr, addr+size)."""
        sector = self.config.sector_bytes
        first = (addr // sector) * sector
        last = ((addr + max(size, 1) - 1) // sector) * sector
        return list(range(first, last + sector, sector))

    def _allocate_way(self, set_index: int, tags: list[int],
                      result: AccessResult) -> int:
        """Free a way of ``set_index`` (evicting its LRU line when the set
        is full); ``tags`` is the set's tag row as a list."""
        if _EMPTY in tags:
            return tags.index(_EMPTY)
        way = int(self._lru[set_index].argmin())
        dirty = self._dirty.item(set_index, way)
        if self.write_back and dirty:
            self._emit_writebacks(set_index, tags[way], dirty, result)
        self.stats.add(f"{self.prefix}.evictions")
        return way

    def _emit_writebacks(self, set_index: int, tag: int, dirty: int,
                         result: AccessResult) -> None:
        line_addr = (tag * self.config.num_sets + set_index) * self.config.line_bytes
        for idx in range(self.sectors_per_line):
            if dirty & (1 << idx):
                result.writebacks.append(
                    (line_addr + idx * self.config.sector_bytes, self.config.sector_bytes)
                )
        self.stats.add(f"{self.prefix}.writebacks")

    # ------------------------------------------------------------------

    def access(self, addr: int, size: int, is_write: bool) -> AccessResult:
        """Look up every sector in [addr, addr+size); fill misses."""
        result = AccessResult()
        for sector_addr in self._sectors_touched(addr, size):
            self._access_sector(sector_addr, is_write, result)
        return result

    def _access_sector(self, sector_addr: int, is_write: bool, result: AccessResult) -> None:
        set_index, tag, sector_index = self._locate(sector_addr)
        # scanning the set's few ways as a list beats a numpy compare
        tags = self._tag[set_index].tolist()
        way = tags.index(tag) if tag in tags else -1
        bit = 1 << sector_index
        kind = "write" if is_write else "read"

        if way >= 0 and self._valid.item(set_index, way) & bit:
            self.stats.add(f"{self.prefix}.{kind}_hits")
            result.hit_sectors += 1
            self._touch(set_index, way)
            if is_write:
                if self.write_back:
                    self._dirty[set_index, way] |= bit
                else:
                    # write-through: data goes to next level as well
                    result.missing_sectors.append(
                        (sector_addr, self.config.sector_bytes)
                    )
            return

        self.stats.add(f"{self.prefix}.{kind}_misses")
        if is_write and not self.write_allocate:
            # no-write-allocate: forward the write, do not install the line
            result.missing_sectors.append((sector_addr, self.config.sector_bytes))
            return

        if way < 0:
            way = self._allocate_way(set_index, tags, result)
            self._tag[set_index, way] = tag
            self._valid[set_index, way] = bit
            self._dirty[set_index, way] = 0
        else:
            self._valid[set_index, way] |= bit
        if is_write and self.write_back:
            self._dirty[set_index, way] |= bit
        self._touch(set_index, way)
        result.missing_sectors.append((sector_addr, self.config.sector_bytes))

    # ------------------------------------------------------------------

    def access_batch(self, sector_addrs: np.ndarray,
                     is_write: np.ndarray) -> "BatchAccessResult":
        """Vectorized hit/miss classification of an ordered sector stream.

        Each element is one sector-aligned, sector-sized access.  The
        classification, install, dirty and eviction behaviour mirrors
        calling :meth:`access` per element, computed with numpy index
        arrays over the unique lines of the stream: one broadcast tag
        compare for lookup, one ``argsort`` over the overflowing sets'
        LRU stamps for victim order, and scatters for install.  Two
        deliberate approximations for streams whose footprint exceeds the
        cache (documented because the sequential path would differ
        slightly):

        * a line touched earlier in the batch is assumed still resident
          when re-touched later (re-touches refresh LRU recency, so the
          sequential LRU keeps them in all but adversarial patterns);
        * when one batch pushes a set past its associativity several
          times over, victims are retired in recency order (pre-batch LRU
          stamps first, then batch order) rather than interleaved
          access-by-access.

        Only meaningful for write-allocate write-back caches (the
        memory-side L2); other configurations keep the scalar path.
        """
        if not (self.write_allocate and self.write_back):
            raise NotImplementedError(
                "access_batch models write-allocate/write-back caches only"
            )
        n = int(sector_addrs.size)
        if n == 0:
            return BatchAccessResult(
                hit_mask=np.empty(0, dtype=bool),
                fill_idx=np.empty(0, dtype=np.int64),
                wb_idx=np.empty(0, dtype=np.int64),
                wb_addrs=np.empty(0, dtype=np.int64),
            )
        cfg = self.config
        spl = self.sectors_per_line
        # one stable sort by sector groups repeats of a sector (earliest
        # first) and, since lines are runs of sectors, the lines too
        sector_ids = sector_addrs // cfg.sector_bytes
        order = np.argsort(sector_ids, kind="stable")
        sid = sector_ids[order]
        lid = sid // spl
        bit = np.int64(1) << (sid - lid * spl)
        w = np.asarray(is_write, dtype=bool)[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sid[1:], sid[:-1], out=first[1:])
        line_start = np.empty(n, dtype=bool)
        line_start[0] = True
        np.not_equal(lid[1:], lid[:-1], out=line_start[1:])
        seg_starts = np.flatnonzero(line_start)
        line_of = np.cumsum(line_start) - 1

        uniq_lines = lid[seg_starts]
        sets_arr = uniq_lines % cfg.num_sets
        tags_arr = uniq_lines // cfg.num_sets
        # a line matches at most one way of its set
        match = np.flatnonzero(
            self._tag.take(sets_arr, axis=0) == tags_arr[:, None])
        res, rw = np.divmod(match, cfg.ways)
        rs = sets_arr[res]
        valid_pre = np.zeros(uniq_lines.size, dtype=np.int64)
        valid_pre[res] = self._valid[rs, rw]
        hit_s = ~first | ((valid_pre[line_of] & bit) != 0)
        hits = int(np.count_nonzero(hit_s))
        writes = int(np.count_nonzero(w))
        write_hits = int(np.count_nonzero(hit_s & w))
        for name, count in (
            ("read_hits", hits - write_hits),
            ("write_hits", write_hits),
            ("read_misses", n - hits - writes + write_hits),
            ("write_misses", writes - write_hits),
        ):
            if count:
                self.stats.add(f"{self.prefix}.{name}", count)
        hit = np.empty(n, dtype=bool)
        hit[order] = hit_s

        # per-line aggregates over the batch
        valid_or = np.bitwise_or.reduceat(bit, seg_starts)
        dirty_or = np.bitwise_or.reduceat(
            np.where(w, bit, np.int64(0)), seg_starts
        )
        first_occ = np.minimum.reduceat(order, seg_starts)
        last_occ = np.maximum.reduceat(order, seg_starts)
        new_stamp = last_occ + (self._stamp + 1)
        self._stamp += n

        # resident lines first: their refreshed stamps (all newer than any
        # untouched line's) then order the victim choice below
        self._valid[rs, rw] |= valid_or[res]
        self._dirty[rs, rw] |= dirty_or[res]
        self._lru[rs, rw] = new_stamp[res]

        wb_idx = wb_addrs = np.empty(0, dtype=np.int64)
        is_new = np.ones(uniq_lines.size, dtype=bool)
        is_new[res] = False
        new = np.flatnonzero(is_new)
        if new.size:
            wb_idx, wb_addrs = self._install_batch_lines(
                new, sets_arr, tags_arr, first_occ, valid_or, dirty_or,
                new_stamp,
            )
        return BatchAccessResult(
            hit_mask=hit,
            fill_idx=np.flatnonzero(~hit),
            wb_idx=wb_idx,
            wb_addrs=wb_addrs,
        )

    def _install_batch_lines(self, new, sets_arr, tags_arr, first_occ,
                             valid_or, dirty_or, new_stamp
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Install a batch's new lines, retiring victims where a set
        overflows; returns the writebacks as ``(wb_idx, wb_addrs)``.

        In a set with ``c`` new lines (ranked by first occurrence) and
        ``free`` empty ways, the new line of rank ``free + j`` evicts
        victim ``j`` at its first occurrence.  Victims are the set's
        residents in LRU order (untouched lines by stamp, then lines
        re-touched this batch by last touch), then the set's earliest new
        lines themselves (installed, then evicted: *transient* lines).
        """
        cfg = self.config
        ways = cfg.ways
        # new lines grouped by set, ordered by first occurrence
        new = new[np.lexsort((first_occ[new], sets_arr[new]))]
        s_new = sets_arr[new]
        starts = np.flatnonzero(np.diff(s_new, prepend=np.int64(-1)))
        counts = np.diff(np.append(starts, new.size))
        seg_sets = s_new[starts]
        seg_of = np.repeat(np.arange(starts.size), counts)
        rank = np.arange(new.size) - starts[seg_of]
        occupied = self._tag[seg_sets] != _EMPTY
        occ = np.count_nonzero(occupied, axis=1)
        free = ways - occ
        n_evict = counts - free

        # resident victims: the first min(n_evict, occ) ways of each
        # overflowing set in LRU order (empty ways sort last)
        over = np.flatnonzero(n_evict > 0)
        keys = np.where(occupied[over], self._lru[seg_sets[over]],
                        np.iinfo(np.int64).max)
        lru_order = np.argsort(keys, axis=1)
        n_res = np.minimum(n_evict[over], occ[over])
        rows, j = np.nonzero(np.arange(ways) < n_res[:, None])
        v_sets = seg_sets[over][rows]
        v_ways = lru_order[rows, j]
        v_k = first_occ[new[starts[over][rows] + free[over][rows] + j]]
        v_tags = self._tag[v_sets, v_ways]
        v_dirty = self._dirty[v_sets, v_ways]
        self._tag[v_sets, v_ways] = _EMPTY
        for arr in (self._valid, self._dirty, self._lru):
            arr[v_sets, v_ways] = 0

        # transient victims: the first c - ways new lines of a set, each
        # evicted by the new line ``ways`` ranks later
        n_trans = np.maximum(counts - ways, 0)[seg_of]
        trans = rank < n_trans
        t_pos = np.flatnonzero(trans)
        t_lines = new[t_pos]
        t_k = first_occ[new[t_pos + ways]]

        # the rest fill the empty ways of their set in rank order
        keep = new[~trans]
        keep_seg = seg_of[~trans]
        empty = self._tag[seg_sets] == _EMPTY
        _, empty_ways = np.nonzero(empty)
        per_row = np.count_nonzero(empty, axis=1)
        row_off = np.cumsum(per_row) - per_row
        slot = empty_ways[row_off[keep_seg] + (rank - n_trans)[~trans]]
        k_sets = sets_arr[keep]
        self._tag[k_sets, slot] = tags_arr[keep]
        self._valid[k_sets, slot] = valid_or[keep]
        self._dirty[k_sets, slot] = dirty_or[keep]
        self._lru[k_sets, slot] = new_stamp[keep]

        evict_k = np.concatenate([v_k, t_k])
        evict_dirty = np.concatenate([v_dirty, dirty_or[t_lines]])
        evict_line = np.concatenate([v_tags, tags_arr[t_lines]]) \
            * cfg.num_sets + np.concatenate([v_sets, sets_arr[t_lines]])
        if evict_k.size:
            self.stats.add(f"{self.prefix}.evictions", int(evict_k.size))
        dirty = np.flatnonzero(evict_dirty)
        if not dirty.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        self.stats.add(f"{self.prefix}.writebacks", int(dirty.size))
        dirty = dirty[np.argsort(evict_k[dirty])]
        victim, sector = np.nonzero(
            (evict_dirty[dirty][:, None] >> np.arange(self.sectors_per_line))
            & 1
        )
        wb_idx = evict_k[dirty][victim]
        wb_addrs = evict_line[dirty][victim] * cfg.line_bytes \
            + sector * cfg.sector_bytes
        return wb_idx, wb_addrs

    # ------------------------------------------------------------------

    def resident_lines(self) -> int:
        return int(np.count_nonzero(self._tag != _EMPTY))

    def hit_rate(self) -> float:
        hits = self.stats.get(f"{self.prefix}.read_hits") + self.stats.get(
            f"{self.prefix}.write_hits"
        )
        misses = self.stats.get(f"{self.prefix}.read_misses") + self.stats.get(
            f"{self.prefix}.write_misses"
        )
        total = hits + misses
        return hits / total if total else 0.0
