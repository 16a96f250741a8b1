"""Build and load the compiled elliptic-curve kernel.

The kernel is a small plain-C shared library (no libpython dependency)
compiled on first use and cached under ~/.cache/ecelgamal (or the temporary
directory), never inside the package.  A build removes the kernels that
older sources left in its directory.  Loading it through ctypes means calls
release the GIL, which is what lets the dual-worker pipeline use two cores.

Set ECELGAMAL_NATIVE=0 to force the pure-Python fallback, =1 to make a
missing kernel an error instead of a silent fallback.  ECELGAMAL_KERNEL_DIR
overrides where the .so is cached.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MAX_LIMBS = 9       # 576-bit arithmetic, covers moduli up to 521 bits
MAX_SCALAR_LIMBS = 64
BATCH = 64          # the cap on points per mul and affine call

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ["-O3", "-fPIC", "-shared"]

_kernel = None
_load_attempted = False
_load_error: str | None = None


def _source_digest() -> str:
    return hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]


def _candidate_dirs():
    env_dir = os.environ.get("ECELGAMAL_KERNEL_DIR")
    if env_dir:
        yield Path(env_dir)
        return
    yield Path.home() / ".cache" / "ecelgamal"
    yield Path(tempfile.gettempdir()) / "ecelgamal-kernel"


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _compile_into(directory: Path, so_name: str) -> Path | None:
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{so_name}.{os.getpid()}.tmp"
        cmd = [compiler, *_CFLAGS, "-o", str(tmp), str(_SOURCE)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            return None
        target = directory / so_name
        os.replace(tmp, target)
        return target
    except OSError:
        return None


_U64P = ctypes.POINTER(ctypes.c_uint64)
_INT = ctypes.c_int

BASE_WINDOW_DIGITS = 15  # nonzero 4-bit digits: entries per fixed-base table row


def _bind(fn, *argtypes):
    fn.restype = ctypes.c_int
    fn.argtypes = list(argtypes)
    return fn


class Kernel:
    """ctypes wrapper around the shared library."""

    def __init__(self, lib: ctypes.CDLL, path: Path):
        self.path = path
        # p, nl, a, k, windows, count, pts, jac
        self._mul = _bind(lib.eck_mul, _U64P, _INT, _U64P, _U64P, _INT, _INT,
                          _U64P, _U64P)
        # p, nl, a, gx, gy, rows, table
        self._table = _bind(lib.eck_base_table, _U64P, _INT, _U64P, _U64P, _U64P,
                            _INT, _U64P)
        # p, nl, a, table, rows, k, jac
        self._base_mul = _bind(lib.eck_base_mul, _U64P, _INT, _U64P, _U64P, _INT,
                               _U64P, _U64P)
        # p, nl, a, count, jac, adds, out
        self._affine = _bind(lib.eck_affine, _U64P, _INT, _U64P, _INT, _U64P,
                             _U64P, _U64P)
        # p, nl, a, b, x0, count, rx, ry
        self._search = _bind(lib.eck_encode_search, _U64P, _INT, _U64P, _U64P,
                             _U64P, ctypes.c_uint64, _U64P, _U64P)

    @staticmethod
    def _limbs(value: int, nl: int):
        return (ctypes.c_uint64 * nl).from_buffer_copy(value.to_bytes(nl * 8, "little"))

    def field_context(self, p: int, a: int, b: int):
        """Precomputed per-curve arrays; cache this on the curve object."""
        nl = max(1, (p.bit_length() + 63) // 64)
        if nl > MAX_LIMBS:
            raise ValueError(f"modulus needs {nl} limbs; kernel supports {MAX_LIMBS}")
        return (nl, self._limbs(p, nl), self._limbs(a % p, nl), self._limbs(b % p, nl))

    def mul(self, ctx, k: int, width: int, points):
        """[k * P for P in points] in one kernel call, at most BATCH points.

        Points are (x, y) int pairs or None for the identity.  The results
        are Jacobian and opaque, as base_mul's are: arguments for affine()
        and nothing else.  The kernel reads 4-bit windows of k up to the
        larger of `width` and k's own bit length, so a caller that passes
        the width of the group order keeps a secret k's size out of the
        loop count.
        """
        nl, p_arr, a_arr, _ = ctx
        windows = max(1, (max(width, k.bit_length()) + 3) // 4)
        knl = (windows + 15) // 16
        if knl > MAX_SCALAR_LIMBS:
            raise ValueError("scalar too wide for the kernel")
        jac = (ctypes.c_uint64 * (len(points) * 3 * nl))()
        rc = self._mul(p_arr, nl, a_arr, self._limbs(k, knl), windows, len(points),
                       self._entries(points, nl), jac)
        if rc != 0:
            raise RuntimeError(f"kernel rejected multiplication (rc={rc})")
        raw, step = bytes(jac), 24 * nl  # 3 * nl limbs of 8 bytes per point
        return [raw[i:i + step] for i in range(0, len(raw), step)]

    @staticmethod
    def _points(out, nl: int):
        """The (x, y) pairs, or None for the identity, of an entry array."""
        raw, size = bytes(out), 8 * nl
        results = []
        for i in range(0, len(raw), 2 * size + 8):
            if raw[i + 2 * size]:
                results.append(None)
            else:
                results.append((int.from_bytes(raw[i:i + size], "little"),
                                int.from_bytes(raw[i + size:i + 2 * size], "little")))
        return results

    @staticmethod
    def _entries(points, nl: int):
        """Points in the kernel's entry layout: x and y of nl limbs each, then
        one limb that is 1 for the identity (x = y = 0) and 0 otherwise."""
        size = 8 * nl
        identity = bytes(2 * size) + (1).to_bytes(8, "little")
        flag = bytes(8)
        buf = b"".join(
            identity if pt is None
            else pt[0].to_bytes(size, "little") + pt[1].to_bytes(size, "little") + flag
            for pt in points
        )
        return (ctypes.c_uint64 * (len(buf) // 8)).from_buffer_copy(buf)

    def base_table(self, ctx, g, n: int):
        """Fixed-base table of g serving every scalar below n; g is an (x, y) pair.

        Row i holds d * 16^i * g for d = 1..15, affine.  The table is
        complete when this returns; the caller may share it between threads.
        """
        nl, p_arr, a_arr, _ = ctx
        rows = max(1, (n.bit_length() + 3) // 4)
        table = (ctypes.c_uint64 * (rows * BASE_WINDOW_DIGITS * (2 * nl + 1)))()
        rc = self._table(p_arr, nl, a_arr, self._limbs(g[0], nl),
                         self._limbs(g[1], nl), rows, table)
        if rc != 0:
            raise RuntimeError(f"kernel rejected the fixed-base table (rc={rc})")
        return rows, table

    def base_mul(self, ctx, table, k: int):
        """k * g for the base g of `table`, 0 <= k < n, the table's bound.

        The result is Jacobian and opaque, as mul's are: an argument for
        affine() and nothing else.  No inversion is made.
        """
        nl, p_arr, a_arr, _ = ctx
        rows, entries = table
        jac = (ctypes.c_uint64 * (3 * nl))()
        rc = self._base_mul(p_arr, nl, a_arr, entries, rows,
                            self._limbs(k, (rows + 15) // 16), jac)
        if rc != 0:
            raise RuntimeError(f"kernel rejected fixed-base multiplication (rc={rc})")
        return jac

    def affine(self, ctx, jacs, addends=None):
        """[J + Q for J, Q in zip(jacs, addends)] in one kernel call.

        Each J is a result of mul or base_mul; each Q is an (x, y) pair or
        None, and addends=None adds nothing.  A result is an (x, y) pair, or
        None for the identity.  This is the one call that makes a kernel
        result affine: all of them share one inversion, and the kernel
        takes at most BATCH points per call.
        """
        nl, p_arr, a_arr, _ = ctx
        count = len(jacs)
        if addends is not None and len(addends) != count:
            raise ValueError(f"{len(addends)} addends for {count} points")
        jac = (ctypes.c_uint64 * (count * 3 * nl)).from_buffer_copy(
            b"".join(bytes(j) for j in jacs))
        adds = None if addends is None else self._entries(addends, nl)
        out = (ctypes.c_uint64 * (count * (2 * nl + 1)))()
        rc = self._affine(p_arr, nl, a_arr, count, jac, adds, out)
        if rc != 0:
            raise RuntimeError(f"kernel rejected affine conversion (rc={rc})")
        return self._points(out, nl)

    def encode_search(self, ctx, x0: int, count: int):
        """First (x, y) on the curve with x in [x0, x0 + count), y the smaller
        root, or None.  Needs p = 3 (mod 4) and x0 + count <= p."""
        nl, p_arr, a_arr, b_arr = ctx
        rx = (ctypes.c_uint64 * nl)()
        ry = (ctypes.c_uint64 * nl)()
        rc = self._search(p_arr, nl, a_arr, b_arr, self._limbs(x0, nl), count, rx, ry)
        if rc == 1:
            return None
        if rc != 0:
            raise RuntimeError(f"kernel rejected encode search (rc={rc})")
        return int.from_bytes(bytes(rx), "little"), int.from_bytes(bytes(ry), "little")


def _try_load(path: Path) -> Kernel | None:
    try:
        lib = ctypes.CDLL(str(path))
        selftest = lib.eck_selftest
        selftest.restype = ctypes.c_int
        if selftest() != 0:
            return None
        return Kernel(lib, path)
    except OSError:
        return None


def _remove_stale(directory: Path, keep: str) -> None:
    """Delete the kernels that builds of older sources left in `directory`."""
    for stale in directory.glob(f"_kernel-*-{sys.platform}.so"):
        if stale.name != keep:
            with contextlib.suppress(OSError):  # gone already, or not ours
                stale.unlink()


def _locate_or_build() -> Kernel | None:
    global _load_error
    so_name = f"_kernel-{_source_digest()}-{sys.platform}.so"
    for directory in _candidate_dirs():
        existing = directory / so_name
        if existing.is_file():
            kernel = _try_load(existing)
            if kernel is not None:
                return kernel
    for directory in _candidate_dirs():
        built = _compile_into(directory, so_name)
        if built is not None:
            kernel = _try_load(built)
            if kernel is not None:
                _remove_stale(directory, so_name)
                return kernel
    _load_error = "no working C compiler or kernel failed its selftest"
    return None


def load_kernel() -> Kernel | None:
    """The process-wide kernel, or None when disabled or unavailable."""
    global _kernel, _load_attempted, _load_error
    if _load_attempted:
        return _kernel
    _load_attempted = True

    flag = os.environ.get("ECELGAMAL_NATIVE", "").strip().lower()
    if flag in ("0", "off", "no", "false"):
        _load_error = "disabled via ECELGAMAL_NATIVE"
        return None
    _kernel = _locate_or_build()
    if _kernel is None and flag in ("1", "on", "yes", "require", "true"):
        raise RuntimeError(f"native kernel required but unavailable: {_load_error}")
    return _kernel


def kernel_status() -> str:
    """Human-readable loader state for diagnostics and bench reports."""
    kernel = load_kernel()
    if kernel is not None:
        return f"native kernel at {kernel.path}"
    return f"pure Python ({_load_error})"
