import random

import pytest

from ecelgamal._native import kernel_status
from ecelgamal.cli import main
from ecelgamal.elgamal import parse_ciphertext, parse_keypair, render_keypair
from ecelgamal.pipeline import ExecMode

from .test_bench import parse_report_csv


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "alice.key"
    assert main(["keygen", "--curve", "secp256k1", "--seed", "deadbeef",
                 "--out", str(path)]) == 0
    return path


class TestKeygen:
    def test_writes_parseable_key(self, keyfile):
        kp = parse_keypair(keyfile.read_text())
        assert kp.curve.name == "secp256k1"

    def test_deterministic(self, tmp_path, keyfile):
        other = tmp_path / "again.key"
        assert main(["keygen", "--curve", "secp256k1", "--seed", "deadbeef",
                     "--out", str(other)]) == 0
        assert other.read_text() == keyfile.read_text()

    def test_seed_changes_key(self, tmp_path, keyfile):
        other = tmp_path / "other.key"
        assert main(["keygen", "--curve", "secp256k1", "--seed", "beef",
                     "--out", str(other)]) == 0
        assert other.read_text() != keyfile.read_text()

    def test_unknown_curve_exits_2(self, tmp_path, capsys):
        rc = main(["keygen", "--curve", "wat", "--seed", "1",
                   "--out", str(tmp_path / "x.key")])
        assert rc == 2
        assert "UnknownCurve" in capsys.readouterr().err

    def test_non_hex_seed_is_a_usage_error(self, tmp_path, capsys):
        assert main(["keygen", "--curve", "tiny23", "--seed", "zz",
                     "--out", str(tmp_path / "x.key")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--seed" in err and "not a hex integer" in err

    def test_missing_flag_exits_1(self, capsys):
        assert main(["keygen", "--curve", "tiny23"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert "--seed" in err or "--out" in err


class TestEncryptDecrypt:
    def _files(self, tmp_path, keyfile, payload: bytes):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(payload)
        ct = tmp_path / "msg.ct"
        out = tmp_path / "back.bin"
        return msg, ct, out

    def test_file_roundtrip(self, tmp_path, keyfile):
        payload = random.Random(1).randbytes(150)
        msg, ct, out = self._files(tmp_path, keyfile, payload)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(msg),
                     "--out", str(ct), "--mode", "single", "--seed", "77"]) == 0
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == payload

    def test_modes_produce_identical_files(self, tmp_path, keyfile):
        payload = random.Random(2).randbytes(90)
        msg, ct, _ = self._files(tmp_path, keyfile, payload)
        ct2 = tmp_path / "msg2.ct"
        for path, mode in ((ct, "single"), (ct2, "dual")):
            assert main(["encrypt", "--key", str(keyfile), "--in", str(msg),
                         "--out", str(path), "--mode", mode, "--seed", "abc"]) == 0
        assert ct.read_text() == ct2.read_text()

    def test_wide_blocks_roundtrip(self, tmp_path, keyfile):
        payload = random.Random(3).randbytes(61)
        msg, ct, out = self._files(tmp_path, keyfile, payload)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(msg),
                     "--out", str(ct), "--mode", "dual", "--seed", "5",
                     "--block-bits", "32", "--kappa", "64"]) == 0
        parsed = parse_ciphertext(ct.read_text())
        assert parsed.block_bits == 32 and parsed.kappa == 64
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == payload

    def test_public_only_key_encrypts(self, tmp_path, keyfile):
        kp = parse_keypair(keyfile.read_text())
        pub = tmp_path / "alice.pub"
        pub.write_text(render_keypair(kp, include_secret=False))
        msg, ct, out = self._files(tmp_path, keyfile, b"hi there")
        assert main(["encrypt", "--key", str(pub), "--in", str(msg),
                     "--out", str(ct), "--mode", "single", "--seed", "9"]) == 0
        assert main(["decrypt", "--key", str(keyfile), "--in", str(ct),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == b"hi there"

    def test_public_only_key_cannot_decrypt(self, tmp_path, keyfile):
        kp = parse_keypair(keyfile.read_text())
        pub = tmp_path / "alice.pub"
        pub.write_text(render_keypair(kp, include_secret=False))
        msg, ct, out = self._files(tmp_path, keyfile, b"hi")
        main(["encrypt", "--key", str(keyfile), "--in", str(msg),
              "--out", str(ct), "--mode", "single", "--seed", "9"])
        assert main(["decrypt", "--key", str(pub), "--in", str(ct),
                     "--out", str(out)]) == 2

    def test_stdout_ciphertext(self, tmp_path, keyfile, capsys):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"stream me")
        assert main(["encrypt", "--key", str(keyfile), "--in", str(msg),
                     "--out", "-", "--mode", "single", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("curve = secp256k1")

    def test_key_curve_mismatch(self, tmp_path, keyfile):
        other = tmp_path / "bob.key"
        main(["keygen", "--curve", "secp192k1", "--seed", "77", "--out", str(other)])
        msg, ct, out = self._files(tmp_path, keyfile, b"x")
        main(["encrypt", "--key", str(keyfile), "--in", str(msg),
              "--out", str(ct), "--mode", "single", "--seed", "3"])
        assert main(["decrypt", "--key", str(other), "--in", str(ct),
                     "--out", str(out)]) == 2

    def test_bad_mode_exits_1(self, tmp_path, keyfile):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"x")
        assert main(["encrypt", "--key", str(keyfile), "--in", str(msg),
                     "--out", str(tmp_path / "c"), "--mode", "quad"]) == 1

    def test_missing_input_file_exits_2(self, tmp_path, keyfile, capsys):
        assert main(["encrypt", "--key", str(keyfile), "--in",
                     str(tmp_path / "absent.bin"), "--out", "-",
                     "--mode", "single"]) == 2


class TestBenchCommand:
    def test_table_output(self, capsys):
        rc = main(["bench", "--curve", "secp256k1", "--bytes", "16",
                   "--iters", "2", "--modes", "single,dual", "--seed", "ab",
                   "--warmup", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# host cores:")
        lines = out.strip().splitlines()
        assert f"kernel: {kernel_status()}" in lines[0]
        assert "Mode" in lines[1]
        assert len(lines) == 4  # env, header, two mode rows

    def test_csv_output_parses(self, capsys):
        rc = main(["bench", "--curve", "secp256k1", "--bytes", "16",
                   "--iters", "2", "--modes", "single,dual", "--seed", "ab",
                   "--warmup", "0", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        csv_text = "\n".join(out.strip().splitlines()[1:])
        report = parse_report_csv(csv_text)
        assert report.speedup is not None
        assert {r.mode for r in report.results} == {ExecMode.SINGLE, ExecMode.DUAL}

    def test_single_mode_only(self, capsys):
        rc = main(["bench", "--curve", "secp256k1", "--bytes", "8",
                   "--iters", "1", "--modes", "single", "--seed", "1",
                   "--warmup", "0", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("single,")
        assert lines[-1].endswith(",-")

    def test_python_backend_flag(self, capsys):
        rc = main(["bench", "--curve", "tiny23", "--bytes", "4",
                   "--iters", "1", "--modes", "single", "--seed", "1",
                   "--warmup", "0", "--backend", "python", "--kappa", "2",
                   "--block-bits", "8"])
        out = capsys.readouterr()
        # tiny23 cannot hold 8-bit blocks: ParamsTooLarge, a runtime error
        assert rc == 2
        assert "ParamsTooLarge" in out.err

    def test_python_backend_runs(self, capsys):
        rc = main(["bench", "--curve", "secp256k1", "--bytes", "8",
                   "--iters", "1", "--modes", "single", "--seed", "2",
                   "--warmup", "0", "--backend", "python", "--format", "csv"])
        assert rc == 0
        assert "python" in capsys.readouterr().out.splitlines()[0]

    def test_unknown_curve_exits_2(self, capsys):
        assert main(["bench", "--curve", "void", "--bytes", "8",
                     "--iters", "1", "--modes", "single", "--seed", "1"]) == 2
        assert "UnknownCurve" in capsys.readouterr().err


class TestCurveInfo:
    def test_tiny_curve_lists_point_count(self, capsys):
        assert main(["curve-info", "--curve", "tiny23"]) == 0
        out = capsys.readouterr().out
        assert "name = tiny23" in out
        assert "points = 28" in out
        assert "n = 1c" in out

    def test_large_curve_skips_point_count(self, capsys):
        assert main(["curve-info", "--curve", "secp256k1"]) == 0
        out = capsys.readouterr().out
        assert "bits = 256" in out
        assert "points" not in out

    def test_no_subcommand_exits_1(self):
        assert main([]) == 1
