"""Throughput benchmark comparing the single- and dual-worker pipelines.

A fixed seeded payload is encrypted repeatedly in each requested mode; the
median wall time over the iterations is reported together with throughput
in bits per second and, when both modes ran, the single/dual speedup.
Ciphertexts must be bit-identical across modes and iterations - a
divergence is a correctness failure and aborts the benchmark.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass, field

from ._native import kernel_status
from .codec import EncodingParams
from .curve import active_backend, get_curve
from .elgamal import encrypt, keygen, random_nonces
from .errors import ModeMismatch
from .pipeline import ExecMode


def throughput_bps(message_bytes: int, wall_time_ms: float) -> float:
    """Bits per second for a payload encrypted in wall_time_ms."""
    return (8 * message_bytes) / (wall_time_ms / 1000.0)


def compute_speedup(single_ms: float, dual_ms: float) -> float:
    return single_ms / dual_ms


@dataclass(frozen=True)
class BenchConfig:
    curve_name: str
    message_bytes: int = 1024
    iterations: int = 5
    warmup_iterations: int = 1
    modes: tuple[ExecMode, ...] = (ExecMode.SINGLE, ExecMode.DUAL)
    seed: int = 0xEC
    block_bits: int = 8
    kappa: int = 32

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations cannot be negative")
        if self.message_bytes < 1:
            raise ValueError("message_bytes must be at least 1")
        if not self.modes:
            raise ValueError("at least one execution mode is required")


@dataclass(frozen=True)
class ModeResult:
    mode: ExecMode
    wall_time_ms: float
    throughput_bps: float


@dataclass(frozen=True)
class BenchReport:
    message_bytes: int
    results: tuple[ModeResult, ...] = field(default=())
    speedup: float | None = None
    environment: str = ""

    def result_for(self, mode: ExecMode) -> ModeResult | None:
        for r in self.results:
            if r.mode == mode:
                return r
        return None


def host_environment() -> str:
    """Cores, active backend, and which kernel loaded or why none did."""
    return (f"host cores: {os.cpu_count()}, scalar backend: {active_backend()}, "
            f"kernel: {kernel_status()}")


def run_bench(cfg: BenchConfig, clock=time.perf_counter) -> BenchReport:
    """Measure each requested mode on one seeded payload.

    The clock is injectable so report arithmetic can be tested against
    scripted timings.
    """
    curve = get_curve(cfg.curve_name)
    params = EncodingParams(kappa=cfg.kappa, block_bits=cfg.block_bits)
    params.check_fits(curve)

    payload = random.Random(cfg.seed).randbytes(cfg.message_bytes)
    receiver = keygen(curve, random.Random(cfg.seed ^ 0x5EED))
    nonce_seed = cfg.seed ^ 0xA5A5

    def run_once(mode: ExecMode):
        nonces = random_nonces(curve, random.Random(nonce_seed))
        t0 = clock()
        ct = encrypt(curve, payload, receiver.public, params, nonces, mode)
        elapsed = clock() - t0
        return ct, elapsed

    reference_ct = None
    times: dict[ExecMode, list[float]] = {mode: [] for mode in cfg.modes}
    for mode in cfg.modes:
        for _ in range(cfg.warmup_iterations):
            run_once(mode)
    # interleave the modes so drifting host load biases neither side
    for _ in range(cfg.iterations):
        for mode in cfg.modes:
            ct, elapsed = run_once(mode)
            if reference_ct is None:
                reference_ct = ct
            elif ct != reference_ct:
                raise ModeMismatch(
                    f"{mode.value} mode produced a different ciphertext"
                )
            times[mode].append(elapsed)

    results = []
    for mode in cfg.modes:
        wall_ms = statistics.median(times[mode]) * 1000.0
        results.append(ModeResult(mode, wall_ms,
                                  throughput_bps(cfg.message_bytes, wall_ms)))

    speedup = None
    by_mode = {r.mode: r for r in results}
    if ExecMode.SINGLE in by_mode and ExecMode.DUAL in by_mode:
        speedup = compute_speedup(by_mode[ExecMode.SINGLE].wall_time_ms,
                                  by_mode[ExecMode.DUAL].wall_time_ms)

    return BenchReport(
        message_bytes=cfg.message_bytes,
        results=tuple(results),
        speedup=speedup,
        environment=host_environment(),
    )


# -- report rendering --

_TABLE_HEADER = ("Mode", "Time (ms)", "Throughput (bits/s)", "Speedup")
_CSV_HEADER = "mode,time_ms,throughput_bps,speedup"


def _speedup_cell(report: BenchReport, result: ModeResult) -> str:
    if report.speedup is not None and result.mode == ExecMode.DUAL:
        return f"{report.speedup:.2f}"
    return "-"


def render_report(report: BenchReport, fmt: str = "table") -> str:
    if fmt == "table":
        rows = [
            (
                result.mode.value.capitalize(),
                f"{result.wall_time_ms:.2f}",
                f"{result.throughput_bps:.2f}",
                _speedup_cell(report, result),
            )
            for result in report.results
        ]
        widths = [
            max(len(_TABLE_HEADER[i]), *(len(r[i]) for r in rows)) if rows
            else len(_TABLE_HEADER[i])
            for i in range(4)
        ]
        def fmt_row(cells):
            return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()
        lines = [fmt_row(_TABLE_HEADER)]
        lines += [fmt_row(r) for r in rows]
        return "\n".join(lines)

    if fmt == "csv":
        lines = [_CSV_HEADER]
        for result in report.results:
            lines.append(
                f"{result.mode.value},{result.wall_time_ms:.2f},"
                f"{result.throughput_bps:.2f},{_speedup_cell(report, result)}"
            )
        return "\n".join(lines)

    raise ValueError(f"unknown report format {fmt!r}")
