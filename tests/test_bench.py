import pytest

from ecelgamal import bench as bench_mod
from ecelgamal.bench import (
    BenchConfig,
    BenchReport,
    ModeResult,
    compute_speedup,
    render_report,
    run_bench,
    throughput_bps,
)
from ecelgamal._native import kernel_status
from ecelgamal.errors import ModeMismatch
from ecelgamal.pipeline import ExecMode


def parse_report_csv(text: str) -> BenchReport:
    """The numeric fields of a CSV report (2-decimal precision)."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != "mode,time_ms,throughput_bps,speedup":
        raise ValueError("missing CSV report header")
    results = []
    speedup = None
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4:
            raise ValueError(f"malformed CSV row: {line!r}")
        results.append(ModeResult(ExecMode.parse(cells[0]), float(cells[1]),
                                  float(cells[2])))
        if cells[3] != "-":
            speedup = float(cells[3])
    return BenchReport(message_bytes=0, results=tuple(results), speedup=speedup)


# Reference timings for one 8-bit block on the original single- and
# dual-core targets; the formulas must reproduce the published columns.
REF_SINGLE_MS = 19.01
REF_DUAL_MS = 5.72
REF_SINGLE_BPS = 420.83
REF_DUAL_BPS = 1398.60
REF_SPEEDUP = 3.32


class TestFormulas:
    def test_throughput_single_core_row(self):
        assert throughput_bps(1, REF_SINGLE_MS) == pytest.approx(REF_SINGLE_BPS, abs=0.1)

    def test_throughput_dual_core_row(self):
        assert throughput_bps(1, REF_DUAL_MS) == pytest.approx(REF_DUAL_BPS, abs=0.1)

    def test_speedup(self):
        assert compute_speedup(REF_SINGLE_MS, REF_DUAL_MS) == pytest.approx(
            REF_SPEEDUP, abs=0.01)

    def test_throughput_scales_with_bytes(self):
        assert throughput_bps(100, 1000.0) == pytest.approx(800.0)


class TestConfigValidation:
    def test_iterations_positive(self):
        with pytest.raises(ValueError):
            BenchConfig("tiny23", iterations=0)

    def test_bytes_positive(self):
        with pytest.raises(ValueError):
            BenchConfig("tiny23", message_bytes=0)

    def test_modes_non_empty(self):
        with pytest.raises(ValueError):
            BenchConfig("tiny23", modes=())

    def test_warmup_non_negative(self):
        with pytest.raises(ValueError):
            BenchConfig("tiny23", warmup_iterations=-1)


class TestRunBench:
    CFG = dict(curve_name="secp256k1", message_bytes=8, iterations=2,
               warmup_iterations=0, seed=5)

    def test_report_fields_recompute(self):
        report = run_bench(BenchConfig(**self.CFG))
        assert report.message_bytes == 8
        for result in report.results:
            assert result.throughput_bps == pytest.approx(
                throughput_bps(8, result.wall_time_ms))
        single = report.result_for(ExecMode.SINGLE)
        dual = report.result_for(ExecMode.DUAL)
        assert report.speedup == pytest.approx(
            compute_speedup(single.wall_time_ms, dual.wall_time_ms))
        assert "cores" in report.environment
        assert report.environment.endswith(f"kernel: {kernel_status()}")

    def test_single_only_has_no_speedup(self):
        cfg = BenchConfig(modes=(ExecMode.SINGLE,), **self.CFG)
        report = run_bench(cfg)
        assert report.speedup is None
        assert report.result_for(ExecMode.DUAL) is None

    def test_median_of_scripted_timings(self):
        # one mode, five iterations; scripted durations 5, 1, 9, 3, 7 seconds
        durations = [5.0, 1.0, 9.0, 3.0, 7.0]
        ticks = []
        t = 0.0
        for d in durations:
            ticks += [t, t + d]
            t += d + 100.0
        it = iter(ticks)
        cfg = BenchConfig(curve_name="secp256k1", message_bytes=8, iterations=5,
                          warmup_iterations=0, modes=(ExecMode.SINGLE,), seed=5)
        report = run_bench(cfg, clock=lambda: next(it))
        single = report.result_for(ExecMode.SINGLE)
        assert single.wall_time_ms == pytest.approx(5000.0)
        assert single.throughput_bps == pytest.approx(64 / 5.0)

    def test_mode_divergence_aborts(self, monkeypatch):
        real = bench_mod.encrypt
        def unstable(c, payload, public, params, nonces, mode):
            ct = real(c, payload, public, params, nonces, mode)
            if mode == ExecMode.DUAL:
                ct = type(ct)(ct.curve_name, ct.block_bits, ct.kappa,
                              ct.original_length, ct.blocks[:-1] + (ct.blocks[0],))
            return ct
        monkeypatch.setattr(bench_mod, "encrypt", unstable)
        with pytest.raises(ModeMismatch):
            run_bench(BenchConfig(**self.CFG))

    def test_deterministic_across_runs(self):
        a = run_bench(BenchConfig(**self.CFG))
        b = run_bench(BenchConfig(**self.CFG))
        # wall times vary; the measured payload and modes do not
        assert [r.mode for r in a.results] == [r.mode for r in b.results]


class TestRendering:
    REPORT = BenchReport(
        message_bytes=1,
        results=(
            ModeResult(ExecMode.SINGLE, REF_SINGLE_MS, REF_SINGLE_BPS),
            ModeResult(ExecMode.DUAL, REF_DUAL_MS, REF_DUAL_BPS),
        ),
        speedup=REF_SPEEDUP,
        environment="host cores: 2, scalar backend: native",
    )

    def test_table_shape(self):
        lines = render_report(self.REPORT, "table").splitlines()
        assert len(lines) == 3  # header + one row per mode
        header = [c.strip() for c in lines[0].split("|")]
        assert header == ["Mode", "Time (ms)", "Throughput (bits/s)", "Speedup"]
        single = [c.strip() for c in lines[1].split("|")]
        dual = [c.strip() for c in lines[2].split("|")]
        assert single == ["Single", "19.01", "420.83", "-"]
        assert dual == ["Dual", "5.72", "1398.60", "3.32"]

    def test_single_only_table_renders_dash(self):
        report = BenchReport(1, (ModeResult(ExecMode.SINGLE, 2.0, 4000.0),), None, "")
        lines = render_report(report, "table").splitlines()
        assert len(lines) == 2
        assert lines[1].split("|")[-1].strip() == "-"

    def test_csv_roundtrip_two_decimals(self):
        text = render_report(self.REPORT, "csv")
        parsed = parse_report_csv(text)
        for original, recovered in zip(self.REPORT.results, parsed.results):
            assert recovered.mode == original.mode
            assert recovered.wall_time_ms == round(original.wall_time_ms, 2)
            assert recovered.throughput_bps == round(original.throughput_bps, 2)
        assert parsed.speedup == round(self.REPORT.speedup, 2)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self.REPORT, "yaml")

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_report_csv("nope\nsingle,1,2,-")

    def test_parse_rejects_bad_row(self):
        with pytest.raises(ValueError):
            parse_report_csv("mode,time_ms,throughput_bps,speedup\nsingle,1,2")

    def test_numbers_use_two_decimals(self):
        report = BenchReport(1, (ModeResult(ExecMode.SINGLE, 1 / 3, 10000 / 3),),
                             None, "")
        csv_line = render_report(report, "csv").splitlines()[1]
        assert csv_line == "single,0.33,3333.33,-"
