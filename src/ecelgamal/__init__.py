"""EC-ElGamal over prime fields with single- and dual-worker pipelines.

The package provides the full chain: prime-field arithmetic, the affine
curve group, reversible message-to-point embedding, EC-ElGamal itself, a
two-worker shared-memory execution pipeline, and a benchmark harness that
compares the two execution modes.  Scalar multiplication runs on a small
compiled kernel when a C compiler is available and falls back to pure
Python otherwise; results are bit-identical either way.
"""

from .bench import BenchConfig, BenchReport, render_report, run_bench
from .codec import EncodingParams, decode_block, encode_block
from .curve import (
    IDENTITY,
    CurveParams,
    Point,
    active_backend,
    curve_names,
    enumerate_points,
    get_curve,
    is_on_curve,
    load_curve_file,
    point_add,
    point_neg,
    point_order,
    register_curve,
    scalar_mul,
    set_backend,
)
from .elgamal import (
    Ciphertext,
    KeyPair,
    decrypt,
    decrypt_block,
    encrypt,
    encrypt_block,
    keygen,
    parse_ciphertext,
    parse_keypair,
    random_nonces,
    render_ciphertext,
    render_keypair,
)
from .errors import EcError
from .pipeline import (
    CiphertextBlock,
    ExecMode,
    ExecTrace,
    SharedRegion,
    run_encrypt_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchReport", "render_report", "run_bench",
    "EncodingParams", "decode_block", "encode_block",
    "IDENTITY", "CurveParams", "Point", "active_backend", "curve_names",
    "enumerate_points", "get_curve", "is_on_curve", "load_curve_file",
    "point_add", "point_neg", "point_order",
    "register_curve", "scalar_mul", "set_backend",
    "Ciphertext", "KeyPair", "decrypt", "decrypt_block", "encrypt",
    "encrypt_block", "keygen", "parse_ciphertext", "parse_keypair",
    "random_nonces", "render_ciphertext", "render_keypair",
    "EcError",
    "CiphertextBlock", "ExecMode", "ExecTrace", "SharedRegion",
    "run_encrypt_pipeline",
]
