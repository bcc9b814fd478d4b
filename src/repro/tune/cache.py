"""The persistent kernel/timing cache behind the autotuner.

Every candidate evaluation — one modelled GEMM breakdown for one
(machine, main tile, problem, thread count) tuple — is identified by a
:class:`CacheKey` over ``(isa, vlen, mr, nr, m, n, k, threads,
model_version)`` and stored as one line of an append-only JSONL log per
ISA, ``out/tunecache/<isa>.jsonl``::

    {"key": {"isa": "neon", ...}, "record": {"total_cycles": ...}}

A :class:`TuneCache` reads each ISA's log once, on first use, into an
in-memory index keyed by the ``CacheKey`` itself, so every lookup is a
dict hit; :meth:`TuneCache.put` appends a chunk of entries in one
``O_APPEND`` write per ISA.  A warm re-run of the tuner (or of
cache-backed kernel selection) never calls the timing model at all.

* A line that does not parse, or whose record lacks a field, counts
  one invalidation and is skipped, so its entry reads as a miss.  The
  torn last line of an interrupted append is this case; the next
  append starts a fresh line.  If a key appears on two lines, the
  later line wins.
* Several processes may append to one log.  Entries another process
  appended after this one read the log are misses here and are priced
  again; no wrong record is ever served.
* The older one-file-per-entry layout (``<isa>/<sha256>.json``) is not
  read: the first sweep after upgrading re-tunes cold.

Invalidation is part of the key: ``model_version`` combines the
hand-bumped :data:`MODEL_VERSION` with a fingerprint of the machine
model's parameters (see ``IsaTarget.cache_key_fields``), so editing a
cache latency or pipe count in ``repro.isa.machine`` retires the stale
entries automatically instead of serving them.

A cache can be *activated* process-wide (:func:`activate` /
:func:`using`); ``repro.ukernel.registry.select_kernel_for`` delegates
its ranking to the active cache when one is present.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.isa.machine import MachineModel
from repro.isa.targets import machine_fingerprint

#: bump when the timing model changes meaning, to retire every entry
MODEL_VERSION = 1


def default_cache_root() -> Path:
    """``out/tunecache/``, overridable via ``REPRO_TUNECACHE``."""
    return Path(os.environ.get("REPRO_TUNECACHE", "out/tunecache"))


@dataclass(frozen=True)
class CacheKey:
    """The identity of one candidate evaluation (hashable, so it keys
    the in-memory index directly)."""

    isa: str
    vlen: int
    mr: int
    nr: int
    m: int
    n: int
    k: int
    model_version: str
    threads: int = 1

    def payload(self) -> Dict[str, object]:
        return {
            "isa": self.isa,
            "vlen": self.vlen,
            "mr": self.mr,
            "nr": self.nr,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "threads": self.threads,
            "model_version": self.model_version,
        }


def cache_key(
    machine: MachineModel,
    tile: Tuple[int, int],
    problem: Tuple[int, int, int],
    threads: int = 1,
) -> CacheKey:
    """Key one (machine, main tile, GEMM shape, thread count) evaluation."""
    return CacheKey(
        isa=machine.isa,
        vlen=machine.vector_bits,
        mr=tile[0],
        nr=tile[1],
        m=problem[0],
        n=problem[1],
        k=problem[2],
        threads=threads,
        model_version=f"{MODEL_VERSION}:{machine_fingerprint(machine)}",
    )


@dataclass(frozen=True)
class TunedBreakdown:
    """A cached GEMM breakdown with the timing surface of
    ``GemmTimeBreakdown`` — the cycle components plus ``total_cycles``,
    ``seconds``, and ``gflops``.  It carries the machine's frequency but
    *not* the ``MachineModel`` itself (``machine`` does not exist here);
    consumers needing the full model must evaluate uncached.

    Reconstructed from a cache record instead of the timing model; the
    component fields round-trip exactly through JSON, so ``total_cycles``
    (and every ranking decision made on it) is bit-identical to the
    original evaluation.
    """

    compute_cycles: float
    pack_cycles: float
    c_stall_cycles: float
    dram_limit_cycles: float
    flops: int
    freq_ghz: float
    #: the stored total, not a recomputation — ranking a cache hit reads
    #: the same float ``tune.sweep`` ranked, so the two paths cannot
    #: drift even if the modelled total formula gains a component
    total_cycles: float

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.freq_ghz * 1e9)

    @property
    def gflops(self) -> float:
        return self.flops / self.total_cycles * self.freq_ghz


def record_from_breakdown(breakdown) -> Dict[str, float]:
    """Serialize a (modelled or cached) breakdown to a plain JSON record."""
    freq = getattr(breakdown, "freq_ghz", None) or breakdown.machine.freq_ghz
    return {
        "compute_cycles": breakdown.compute_cycles,
        "pack_cycles": breakdown.pack_cycles,
        "c_stall_cycles": breakdown.c_stall_cycles,
        "dram_limit_cycles": breakdown.dram_limit_cycles,
        "flops": breakdown.flops,
        "freq_ghz": freq,
        "total_cycles": breakdown.total_cycles,
        "gflops": breakdown.gflops,
    }


def breakdown_from_record(record: Dict[str, float]) -> TunedBreakdown:
    return TunedBreakdown(
        compute_cycles=record["compute_cycles"],
        pack_cycles=record["pack_cycles"],
        c_stall_cycles=record["c_stall_cycles"],
        dram_limit_cycles=record["dram_limit_cycles"],
        flops=int(record["flops"]),
        freq_ghz=record["freq_ghz"],
        total_cycles=record["total_cycles"],
    )


class TuneCache:
    """One append-only JSONL log per ISA under a root directory, read
    once per instance into an in-memory index (see the module notes for
    the torn-line, duplicate-key and concurrent-append rules)."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        #: log lines read but skipped (torn append, corrupt JSON,
        #: incomplete record) — each entry lost this way is a miss and
        #: is re-evaluated; key-level invalidation (a machine fingerprint
        #: change) is invisible here because it lands on a different key
        self.invalidations = 0
        #: isa -> {key: record}, each log read on first use
        self._indexes: Dict[str, Dict[CacheKey, Dict[str, float]]] = {}
        #: ISAs whose log ends in a torn line: the next append first
        #: closes it with a newline, so the torn line stays one bad line
        self._torn: set = set()

    #: fields a record must carry to reconstruct a TunedBreakdown
    RECORD_FIELDS = frozenset(
        {
            "compute_cycles",
            "pack_cycles",
            "c_stall_cycles",
            "dram_limit_cycles",
            "flops",
            "freq_ghz",
            "total_cycles",
        }
    )

    def log_path(self, isa: str) -> Path:
        return self.root / f"{isa}.jsonl"

    def _index(self, isa: str) -> Dict[CacheKey, Dict[str, float]]:
        index = self._indexes.get(isa)
        if index is None:
            index = self._indexes[isa] = self._read_log(isa)
        return index

    def _read_log(self, isa: str) -> Dict[CacheKey, Dict[str, float]]:
        try:
            data = self.log_path(isa).read_bytes()
        except OSError:
            return {}
        if data and not data.endswith(b"\n"):
            self._torn.add(isa)
        index = {}
        for line in data.splitlines():
            try:
                entry = json.loads(line)
                key = CacheKey(**entry["key"])
                record = entry["record"]
                if not self.RECORD_FIELDS <= record.keys():
                    raise KeyError("incomplete record")
            except (ValueError, KeyError, TypeError, AttributeError):
                self.invalidations += 1
                continue
            index[key] = record
        return index

    def get(self, key: CacheKey) -> Optional[Dict[str, float]]:
        """The indexed record itself (shared: callers must not mutate
        it), or ``None`` on a miss."""
        record = self._index(key.isa).get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(
        self, entries: Iterable[Tuple[CacheKey, Dict[str, float]]]
    ) -> None:
        """Append a batch of ``(key, record)`` pairs: one write per ISA."""
        by_isa: Dict[str, List[Tuple[CacheKey, Dict[str, float]]]] = {}
        for key, record in entries:
            if not self.RECORD_FIELDS <= record.keys():
                raise ValueError(f"incomplete tune record for {key}")
            by_isa.setdefault(key.isa, []).append((key, record))
        for isa, pairs in by_isa.items():
            # read the log before appending, so a torn tail is known
            index = self._index(isa)
            text = "".join(
                json.dumps({"key": key.payload(), "record": record},
                           sort_keys=True) + "\n"
                for key, record in pairs
            )
            if isa in self._torn:
                text = "\n" + text
            self.root.mkdir(parents=True, exist_ok=True)
            # O_APPEND, and the buffered writer hands the whole chunk
            # to one write: concurrent appenders never interleave lines
            with open(self.log_path(isa), "ab") as log:
                log.write(text.encode())
            self._torn.discard(isa)
            index.update(pairs)

    def __len__(self) -> int:
        """Distinct keys across every ISA log under the root."""
        if self.root.is_dir():
            for path in self.root.glob("*.jsonl"):
                self._index(path.stem)
        return sum(len(index) for index in self._indexes.values())

    def __repr__(self) -> str:
        return (
            f"TuneCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )

    def stats(self) -> Dict[str, int]:
        """The counters as a plain dict (artifact / metrics export)."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_invalidations": self.invalidations,
        }


_active: Optional[TuneCache] = None


def activate(cache: Union[TuneCache, str, Path]) -> TuneCache:
    """Make ``cache`` the process-wide cache kernel selection consults."""
    global _active
    if not isinstance(cache, TuneCache):
        cache = TuneCache(cache)
    _active = cache
    return cache


def deactivate() -> None:
    global _active
    _active = None


def active_cache() -> Optional[TuneCache]:
    return _active


@contextmanager
def using(cache: Union[TuneCache, str, Path]):
    """Activate a cache for the duration of a ``with`` block."""
    global _active
    previous = _active
    try:
        yield activate(cache)
    finally:
        _active = previous
