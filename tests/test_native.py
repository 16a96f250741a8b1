"""Loader behavior for the compiled kernel and the import-time fallback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecelgamal import _native

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(code: str, **env_overrides) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, **env_overrides)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLoader:
    def test_kernel_loads_here(self):
        if os.environ.get("ECELGAMAL_NATIVE", "").lower() in ("0", "off", "no", "false"):
            pytest.skip("kernel disabled by environment")
        kernel = _native.load_kernel()
        assert kernel is not None
        assert kernel.path.exists()

    def test_status_line(self):
        status = _native.kernel_status()
        assert "kernel" in status or "Python" in status

    def test_field_context_rejects_oversized_modulus(self):
        kernel = _native.load_kernel()
        if kernel is None:
            pytest.skip("no kernel available")
        with pytest.raises(ValueError):
            kernel.field_context(1 << 600, 1, 1)

    def test_scalar_limb_bound(self):
        kernel = _native.load_kernel()
        if kernel is None:
            pytest.skip("no kernel available")
        ctx = kernel.field_context(23, 1, 1)
        with pytest.raises(ValueError):
            kernel.mul(ctx, 1 << (64 * 65), 0, [(3, 10)])

    @pytest.mark.parametrize("flags", [_native._CFLAGS, ["-O3", "-DECK_BENCH_MAIN"]],
                             ids=["shared-library", "bench-harness"])
    def test_compiles_without_warnings(self, tmp_path, flags):
        compiler = _native._find_compiler()
        if compiler is None:
            pytest.skip("no C compiler")
        proc = subprocess.run(
            [compiler, *flags, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "out"), str(_native._SOURCE)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_package_directory_is_no_cache(self, monkeypatch):
        monkeypatch.delenv("ECELGAMAL_KERNEL_DIR", raising=False)
        assert _native._SOURCE.parent not in list(_native._candidate_dirs())

    def test_build_removes_stale_kernels(self, tmp_path):
        if _native.load_kernel() is None:
            pytest.skip("no kernel available")
        stale = tmp_path / f"_kernel-0123456789abcdef-{sys.platform}.so"
        stale.write_bytes(b"left by an older source")
        foreign = tmp_path / "_kernel-0123456789abcdef-otheros.so"
        foreign.write_bytes(b"another platform's build")
        out = _run_python(
            "from ecelgamal import _native\n"
            "print(_native.load_kernel().path)\n",
            ECELGAMAL_KERNEL_DIR=str(tmp_path),
        )
        built = Path(out.strip())
        assert built.parent == tmp_path and built.is_file()
        assert not stale.exists()
        assert foreign.exists()
        assert sorted(tmp_path.glob(f"_kernel-*-{sys.platform}.so")) == [built]


class TestEnvironmentControls:
    def test_disabled_env_forces_python_backend(self):
        out = _run_python(
            "import ecelgamal as e\n"
            "print(e.active_backend())\n",
            ECELGAMAL_NATIVE="0",
        )
        assert out.strip() == "python"

    def test_python_fallback_full_roundtrip(self):
        out = _run_python(
            "import random\n"
            "import ecelgamal as e\n"
            "c = e.get_curve('secp256k1')\n"
            "kp = e.keygen(c, random.Random(1))\n"
            "msg = random.Random(2).randbytes(24)\n"
            "ct = e.encrypt(c, msg, kp.public, e.EncodingParams(),\n"
            "               e.random_nonces(c, random.Random(3)), e.ExecMode.DUAL)\n"
            "print(e.decrypt(ct, kp.secret) == msg, e.active_backend())\n",
            ECELGAMAL_NATIVE="0",
        )
        assert out.strip() == "True python"

    def test_backends_produce_identical_ciphertext_files(self):
        code = (
            "import random\n"
            "import ecelgamal as e\n"
            "c = e.get_curve('secp192k1')\n"
            "kp = e.keygen(c, random.Random(4))\n"
            "msg = random.Random(5).randbytes(16)\n"
            "ct = e.encrypt(c, msg, kp.public, e.EncodingParams(),\n"
            "               e.random_nonces(c, random.Random(6)))\n"
            "print(e.render_ciphertext(ct), end='')\n"
        )
        native = _run_python(code)
        pure = _run_python(code, ECELGAMAL_NATIVE="0")
        assert native == pure

    def test_require_flag_errors_without_compiler(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-c",
             "import ecelgamal.curve as c; print(c.active_backend())"],
            env=dict(os.environ, PYTHONPATH=SRC, ECELGAMAL_NATIVE="1",
                     ECELGAMAL_KERNEL_DIR=str(tmp_path), CC="/nonexistent-cc",
                     PATH=""),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode != 0
        assert "native kernel required" in out.stderr
