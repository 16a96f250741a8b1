"""Command-line interface: keygen, encrypt, decrypt, bench, curve-info.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path
from random import Random

from . import curve as curve_mod
from .bench import BenchConfig, render_report, run_bench
from .codec import EncodingParams
from .curve import enumerate_points, get_curve, render_curve_records
from .elgamal import (
    decrypt,
    encrypt,
    keygen,
    parse_ciphertext,
    parse_keypair,
    parse_public_key,
    random_nonces,
    render_ciphertext,
    render_keypair,
)
from .errors import EcError, FormatError
from .field import from_hex
from .pipeline import ExecMode


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors with a one-line message."""

    def error(self, message):
        self.exit(1, f"{self.prog}: {message}\n")


def _hex_arg(text: str) -> int:
    """from_hex for argparse, which reports only its own error types as usage errors."""
    try:
        return from_hex(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_payload(target: str) -> bytes:
    if target == "-":
        return sys.stdin.buffer.read()
    return Path(target).read_bytes()


def _write_payload(target: str, data: bytes) -> None:
    if target == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(target).write_bytes(data)


def _cmd_keygen(args) -> int:
    c = get_curve(args.curve)
    kp = keygen(c, Random(args.seed))
    Path(args.out).write_text(render_keypair(kp))
    print(f"wrote key pair for curve {c.name} to {args.out}")
    return 0


def _cmd_encrypt(args) -> int:
    c, public = parse_public_key(Path(args.key).read_text())
    payload = _read_payload(args.infile)
    params = EncodingParams(kappa=args.kappa, block_bits=args.block_bits)
    if args.seed is not None:
        nonces = random_nonces(c, Random(args.seed))
    else:
        nonces = random_nonces(c, secrets.SystemRandom())
    ct = encrypt(c, payload, public, params, nonces, ExecMode.parse(args.mode))
    text = render_ciphertext(ct)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_decrypt(args) -> int:
    kp = parse_keypair(Path(args.key).read_text())
    ct = parse_ciphertext(Path(args.infile).read_text())
    if ct.curve_name != kp.curve.name:
        raise EcError(
            f"key is for curve {kp.curve.name}, ciphertext for {ct.curve_name}"
        )
    _write_payload(args.out, decrypt(ct, kp.secret, kp.curve))
    return 0


def _cmd_bench(args) -> int:
    modes = tuple(ExecMode.parse(m) for m in args.modes.split(","))
    cfg = BenchConfig(
        curve_name=args.curve,
        message_bytes=args.bytes,
        iterations=args.iters,
        warmup_iterations=args.warmup,
        modes=modes,
        seed=args.seed,
        block_bits=args.block_bits,
        kappa=args.kappa,
    )
    previous = curve_mod.set_backend(args.backend) if args.backend != "auto" else None
    try:
        report = run_bench(cfg)
    finally:
        if previous is not None:
            curve_mod.set_backend(previous)
    print(f"# {report.environment}, payload: {report.message_bytes} bytes")
    print(render_report(report, args.format))
    return 0


def _cmd_curve_info(args) -> int:
    c = get_curve(args.curve)
    print(render_curve_records([c]), end="")
    print(f"bits = {c.p.bit_length()}")
    if c.p < curve_mod.ENUMERATION_BOUND:
        print(f"points = {len(enumerate_points(c))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecelgamal",
                     description="EC-ElGamal with single/dual execution pipelines")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("keygen", help="generate a key pair file")
    p.add_argument("--curve", required=True)
    p.add_argument("--seed", required=True, type=_hex_arg, help="hex RNG seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file or stdin")
    p.add_argument("--key", required=True, help="key file (secret optional)")
    p.add_argument("--in", dest="infile", required=True, help="payload file or -")
    p.add_argument("--out", required=True, help="ciphertext file or -")
    p.add_argument("--mode", required=True, choices=["single", "dual"])
    p.add_argument("--seed", type=_hex_arg,
                   help="hex nonce seed; omit for system randomness")
    p.add_argument("--block-bits", type=int, default=8, choices=[8, 16, 32])
    p.add_argument("--kappa", type=int, default=32)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--key", required=True, help="key file with secret")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output file or -")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("bench", help="measure single/dual throughput")
    p.add_argument("--curve", required=True)
    p.add_argument("--bytes", type=int, default=1024)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--modes", default="single,dual")
    p.add_argument("--seed", type=_hex_arg, default=0xEC, help="hex seed")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--block-bits", type=int, default=8, choices=[8, 16, 32])
    p.add_argument("--kappa", type=int, default=32)
    p.add_argument("--backend", choices=["auto", "native", "python"], default="auto")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("curve-info", help="print parameters of a named curve")
    p.add_argument("--curve", required=True)
    p.set_defaults(func=_cmd_curve_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (EcError, OSError, ValueError, RuntimeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
