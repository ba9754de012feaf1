"""Lazy builder/loader for the compiled residual kernel.

The compiled residual loop lives in ``_residual.c`` next to this module
— plain C with no Python dependency, one entry point
(``repro_residual_timed``, the C twin of the residual loop inside
:func:`repro.cache.kernel.run_batched`) — and is built on first use with
whatever C compiler the host provides (``$CC``, else ``cc``/``gcc``/
``clang`` on ``$PATH``)::

    cc -O3 -shared -fPIC -o <cache>/repro_residual-<tag>.so _residual.c

The build is content-addressed: ``<tag>`` hashes the C source, so a
stale cached library is never loaded after the source changes, and
concurrent builders race harmlessly (atomic rename, last writer wins).
The library lands in a per-user cache directory (``REPRO_NATIVE_DIR``,
else ``$XDG_CACHE_HOME/repro-native``, else ``~/.cache/repro-native``)
rather than the result-cache dir, which tests point at throwaway
tmpdirs — recompiling per test run would dwarf the speedup.

Everything degrades gracefully: no compiler, an unwritable cache dir,
or a failed build all make :func:`native_available` return ``False``
(memoized, diagnosed by :func:`native_build_error`) and the kernel
falls back to the pure-python residual loop.  ``REPRO_KERNEL=batched``
forces the fallback without touching this module.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

#: Override for the directory compiled libraries are cached in.
ENV_NATIVE_DIR = "REPRO_NATIVE_DIR"

#: ABI stamp the built library must report (see ``_residual.c``).
NATIVE_ABI = 2

_SOURCE = Path(__file__).with_name("_residual.c")

_i64 = ctypes.c_int64
_i64p = ctypes.POINTER(ctypes.c_int64)
_u8p = ctypes.POINTER(ctypes.c_uint8)

#: (lane_id, block, now) -> fill latency << 1 | 1 if block already seen.
MISS_CB = ctypes.CFUNCTYPE(_i64, _i64, _i64, _i64)
#: (lane_id, set_index) -> victim way from the live python rng.
RNG_CB = ctypes.CFUNCTYPE(_i64, _i64, _i64)


class NativeLane(ctypes.Structure):
    """Mirror of ``repro_lane`` in ``_residual.c`` (field order matters)."""

    _fields_ = [
        ("lane_id", _i64),
        ("assoc", _i64),
        ("start_time", _i64),
        ("tags", _i64p),
        ("frame_last", _i64p),
        ("lru_touch", _i64p),
        ("fifo_next", _i64p),
        ("set_last_frame", _i64p),
        ("rec_keys", _i64p),
        ("rec_gaps", _i64p),
        ("rec_kinds", _u8p),
        ("rec_n", _i64),
        ("hits", _i64),
        ("misses", _i64),
        ("compulsory", _i64),
        ("evictions", _i64),
    ]


class NativeConfig(ctypes.Structure):
    """Mirror of ``repro_cfg`` in ``_residual.c``."""

    _fields_ = [
        ("invalid_tag", _i64),
        ("kind_normal", _i64),
        ("kind_cold", _i64),
        ("kind_dead", _i64),
        ("l1i_hit", _i64),
        ("l1d_hit", _i64),
        ("stall_on_miss", _i64),
        ("load_mlp", _i64),
        ("store_buffer", _i64),
        ("chunk_start_stalls", _i64),
    ]


_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_probed = False
_error: Optional[str] = None


def native_build_dir() -> Path:
    """Directory compiled libraries are cached in (not created here)."""
    override = os.environ.get(ENV_NATIVE_DIR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro-native"
    home = Path.home()
    if str(home) and home != Path("/"):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _compiler() -> Optional[List[str]]:
    cc = os.environ.get("CC")
    if cc:
        return cc.split()
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return [candidate]
    return None


def _build(source: Path, target: Path) -> None:
    """Compile ``source`` into ``target`` atomically (tmp + rename)."""
    import subprocess  # only a build spawns a process

    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found ($CC, cc, gcc or clang)")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    os.close(fd)
    command = compiler + [
        "-O3", "-shared", "-fPIC", "-o", tmp, str(source)
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise RuntimeError(
                f"{' '.join(command)} failed ({proc.returncode}): "
                f"{detail[:500]}"
            )
        os.replace(tmp, target)
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


def _library_path() -> Path:
    tag = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    return native_build_dir() / f"repro_residual-{tag}.so"


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_residual_abi.restype = _i64
    lib.repro_residual_abi.argtypes = []
    lib.repro_residual_timed.restype = _i64
    lib.repro_residual_timed.argtypes = [
        _i64,                       # n
        _i64p, _u8p, _i64p, _i64p,  # m_pos, m_is_d, m_block, m_set
        _i64p, _i64p, _i64p, _u8p,  # m_catch, m_base, m_cbase, m_store
        ctypes.POINTER(NativeLane), ctypes.POINTER(NativeLane),
        ctypes.POINTER(NativeConfig),
        MISS_CB, RNG_CB,
        _i64p, _i64p, _i64p,        # stall_positions, stall_totals, n_out
    ]
    return lib


def load_native() -> Optional[ctypes.CDLL]:
    """The compiled residual library, building it on first use.

    Returns ``None`` (memoized, with the reason in
    :func:`native_build_error`) when the host cannot build or load it.
    """
    global _lib, _probed, _error
    with _lock:
        if _probed:
            return _lib
        _probed = True
        try:
            path = _library_path()
            if not path.is_file():
                _build(_SOURCE, path)
            lib = _bind(ctypes.CDLL(str(path)))
            abi = int(lib.repro_residual_abi())
            if abi != NATIVE_ABI:
                raise RuntimeError(
                    f"compiled residual library reports ABI {abi}, "
                    f"expected {NATIVE_ABI}"
                )
            _lib = lib
        except Exception as error:  # noqa: BLE001 - any failure => fallback
            _error = f"{type(error).__name__}: {error}"
            _lib = None
        return _lib


def native_available() -> bool:
    """Whether the compiled residual loop can run on this host."""
    return load_native() is not None


def native_build_error() -> Optional[str]:
    """Why the compiled residual loop is unavailable (``None`` if it is)."""
    load_native()
    return _error


# ----------------------------------------------------------------------
# Marshalling helpers for the compiled entry point
# ----------------------------------------------------------------------

def ptr_i64(array: Optional[np.ndarray]):
    if array is None:
        return None
    return array.ctypes.data_as(_i64p)


def ptr_u8(array: np.ndarray):
    return array.ctypes.data_as(_u8p)


class LaneBridge:
    """Snapshot one kernel lane's list state into int64 arrays and back.

    The python residual loop mutates the scalar cache's *lists* in
    place (``cache._tags``, the policy's ``_last_touch``/``_next_way``
    — shared by aliasing); the compiled loop works on array snapshots
    and :meth:`writeback` re-fills the same list objects, preserving
    every alias.
    """

    def __init__(self, lane, lane_id: int, n_events: int) -> None:
        self.lane = lane
        self.tags = np.asarray(lane.tags, dtype=np.int64)
        self.frame_last = np.asarray(lane.frame_last, dtype=np.int64)
        self.lru = (
            np.asarray(lane.lru_touch, dtype=np.int64)
            if lane.lru_touch is not None else None
        )
        self.fifo = (
            np.asarray(lane.fifo_next, dtype=np.int64)
            if lane.fifo_next is not None else None
        )
        self.set_last_frame = np.asarray(lane.set_last_frame, dtype=np.int64)
        self.keys = np.empty(n_events, dtype=np.int64)
        self.gaps = np.empty(n_events, dtype=np.int64)
        self.kinds = np.empty(n_events, dtype=np.uint8)
        self.struct = NativeLane()
        self.struct.lane_id = lane_id
        self.struct.assoc = int(lane.assoc)
        self.struct.start_time = 0  # every run starts at cycle 0
        self.struct.tags = ptr_i64(self.tags)
        self.struct.frame_last = ptr_i64(self.frame_last)
        self.struct.lru_touch = ptr_i64(self.lru)
        self.struct.fifo_next = ptr_i64(self.fifo)
        self.struct.set_last_frame = ptr_i64(self.set_last_frame)
        self.struct.rec_keys = ptr_i64(self.keys)
        self.struct.rec_gaps = ptr_i64(self.gaps)
        self.struct.rec_kinds = ptr_u8(self.kinds)
        self.struct.rec_n = 0
        self.struct.hits = 0
        self.struct.misses = 0
        self.struct.compulsory = 0
        self.struct.evictions = 0

    def writeback(self) -> None:
        lane = self.lane
        lane.tags[:] = self.tags.tolist()
        lane.frame_last[:] = self.frame_last.tolist()
        if self.lru is not None:
            lane.lru_touch[:] = self.lru.tolist()
        if self.fifo is not None:
            lane.fifo_next[:] = self.fifo.tolist()
        lane.set_last_frame[:] = self.set_last_frame.tolist()

    def records(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = int(self.struct.rec_n)
        return self.keys[:n], self.gaps[:n], self.kinds[:n]

    def counters(self) -> List[int]:
        s = self.struct
        return [int(s.hits), int(s.misses), int(s.compulsory), int(s.evictions)]


def make_rng_cb(lanes) -> RNG_CB:
    """Victim-way callback drawing from each lane's live python rng."""
    rngs = [lane.rng for lane in lanes]
    assocs = [lane.assoc for lane in lanes]

    def _draw(lane_id: int, set_index: int) -> int:
        return rngs[lane_id].randrange(assocs[lane_id])

    return RNG_CB(_draw)


def make_miss_cb(lanes, fill_latency) -> MISS_CB:
    """Seen-set probe plus ``MemoryHierarchy.fill_latency`` on an L1 miss.

    Returns ``latency << 1 | seen``.  The L1 victim draw and the L2 walk
    touch disjoint state (each
    :class:`~repro.cache.replacement.RandomPolicy` owns its own seeded
    rng), so walking the L2 inside the miss probe — ahead of the victim
    pick — is observably identical to the python loop's order.
    """
    seen = [lane.blocks_seen for lane in lanes]

    def _probe(lane_id: int, block: int, now: int) -> int:
        s = seen[lane_id]
        known = block in s
        if not known:
            s.add(block)
        return fill_latency(block, now) << 1 | known

    return MISS_CB(_probe)
