"""One benchmark run of one workload, in a fresh interpreter.

Usage: worker.py <workload> <seed> <seconds> <trace 0|1>

It sets the program up (import, kernel, curve, key pair), prints READY, and
then runs whole rounds of the workload until <seconds> have passed.  With
trace 0 a round times the end-to-end paths: public-key text and plaintext to
ciphertext text in single and in dual mode, then key-pair text and
ciphertext text back to plaintext.  With trace 1 a round times the calls
into each module, block by block, on the same inputs.  Every output is
checked outside the timed region.  A fixed host-speed calibration runs
before the first round and after each one.  The last line of standard output
is the result as JSON, with ``host_scale`` beside the metrics; run.py adds
``setup_s``, scaled by it, and relays the rest.
"""

import json
import random
import statistics
import sys
import threading
import time
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
KAPPA = 32
SAMPLE_BLOCKS = 16   # blocks per run checked against the reference
TRACE_BLOCKS = 64    # blocks per run whose pipeline traces are checked
# Key pairs per run, used in turn, one per round.  The kernel's scalar
# multiplication costs more the more bits of the scalar are set, and one
# secret key sets the cost of every s*c1 and secret*G check of a run: one key
# per run moved decrypt_bps on bulk-r1 by 11 % between two seeds.
KEYS = 4
PROBE_MULS = 100     # scalar multiplications per thread in the scaling probe

# The host's speed drifts by 10-15 % between runs minutes apart, and a
# neighbour on the same CPU can halve it for seconds; the kernel and the
# interpreter slow down together.  End-to-end figures are therefore given at
# a reference host speed: each run times a fixed calibration, reference.mul
# on these scalars, next to its rounds, and scales its times by the mean
# calibration time over CAL_REF_S, the calibration's time on the host where
# the benchmark was written.  The calibration shares no code with ecelgamal,
# so a change to the program does not move it.
_cal_rng = random.Random("calibration")
CAL_SCALARS = [_cal_rng.randrange(1, reference.CURVES["secp256k1"].n) for _ in range(8)]
CAL_REF_S = 0.074

# name -> (curve, curve file in this directory or None, block bits, message sizes)
WORKLOADS = {
    # one payload: per-call costs vanish, the per-block stages dominate
    "bulk-k1": ("secp256k1", None, 32, (1024,)),
    # same make-up on the kernel's division reduction and the a != 0 doubling
    "bulk-r1": ("secp256r1", "secp256r1.txt", 32, (1024,)),
    # 64 messages of 1-4 bytes: key-file parse and thread start-up per call show
    "messages-k1": ("secp256k1", None, 8, (1, 2, 3, 4) * 16),
}


class Program:
    """The program's public functions, its curve and key texts, once set up."""

    def __init__(self, workload: str, seed: int):
        curve_name, curve_file, self.block_bits, self.sizes = WORKLOADS[workload]
        t0 = time.perf_counter()
        import ecelgamal
        import ecelgamal.codec
        import ecelgamal.elgamal
        import ecelgamal.field

        backend = ecelgamal.active_backend()
        if backend != "native":
            raise SystemExit(f"worker: the kernel is required, backend is {backend}")
        t1 = time.perf_counter()
        if curve_file:
            self.curve = ecelgamal.load_curve_file(HERE / curve_file)[0]
        else:
            self.curve = ecelgamal.get_curve(curve_name)
        t2 = time.perf_counter()
        self.keys = []
        for i in range(KEYS):
            kp = ecelgamal.keygen(self.curve, random.Random(f"{workload}:key:{seed}:{i}"))
            self.keys.append((kp, ecelgamal.render_keypair(kp),
                              ecelgamal.render_keypair(kp, include_secret=False)))
        self.use_key(0)
        t3 = time.perf_counter()
        self.setup = {"setup.import_s": t1 - t0, "setup.curves_s": t2 - t1,
                      "setup.keygen_s": t3 - t2}
        self.E = ecelgamal
        self.codec = ecelgamal.codec
        self.elgamal = ecelgamal.elgamal
        self.field = ecelgamal.field
        self.params = ecelgamal.EncodingParams(kappa=KAPPA, block_bits=self.block_bits)

    def use_key(self, i: int) -> None:
        """Make the i-th key pair, its key text and its public text the current ones."""
        self.keypair, self.key_text, self.public_text = self.keys[i]

    def encrypt_text(self, message: bytes, nonces, mode) -> str:
        c, public = self.elgamal.parse_public_key(self.public_text)
        ct = self.E.encrypt(c, message, public, self.params, nonces, mode)
        return self.E.render_ciphertext(ct)

    def decrypt_text(self, text: str) -> bytes:
        kp = self.E.parse_keypair(self.key_text)
        return self.E.decrypt(self.E.parse_ciphertext(text), kp.secret, kp.curve)


def make_inputs(workload: str, seed: int, prog: Program):
    """Seeded messages in seeded order, and one nonce per block."""
    rng = random.Random(f"{workload}:inputs:{seed}")
    sizes = list(prog.sizes)
    rng.shuffle(sizes)
    messages = [rng.randbytes(size) for size in sizes]
    step = prog.block_bits // 8
    nonces = [[rng.randrange(1, prog.curve.n) for _ in range(0, len(m), step)]
              for m in messages]
    return messages, nonces


def e2e_round(prog: Program, messages, nonces, bits: int):
    """Ciphertext texts of one untraced round, and (bits, seconds) per path.

    Both modes' texts are decrypted, so that decryption, the shortest path,
    is timed over as much work as each encryption.
    """
    single, dual = prog.E.ExecMode.SINGLE, prog.E.ExecMode.DUAL
    t0 = time.perf_counter()
    texts = [prog.encrypt_text(m, k, single) for m, k in zip(messages, nonces)]
    t1 = time.perf_counter()
    dual_texts = [prog.encrypt_text(m, k, dual) for m, k in zip(messages, nonces)]
    t2 = time.perf_counter()
    plain = [prog.decrypt_text(text) for text in texts + dual_texts]
    t3 = time.perf_counter()

    for text, dual_text in zip(texts, dual_texts):
        checks.check_modes_identical(text, dual_text)
    for message, out in zip(messages * 2, plain):
        checks.check_roundtrip(message, out)
    return texts, {"encrypt_single_bps": (bits, t1 - t0),
                   "encrypt_dual_bps": (bits, t2 - t1),
                   "decrypt_bps": (2 * bits, t3 - t2)}


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def worker_spans(events):
    """Per worker: busy time in compute spans, and its active time outside them."""
    busy, first, last, started = {}, {}, {}, {}
    for ev in events:
        w = ev.worker
        first.setdefault(w, ev.timestamp_ns)
        last[w] = ev.timestamp_ns
        if ev.kind == "compute_start":
            started[w] = ev.timestamp_ns
        elif ev.kind == "compute_end":
            busy[w] = busy.get(w, 0) + ev.timestamp_ns - started[w]
    wait = {w: last[w] - first[w] - busy.get(w, 0) for w in first}
    return busy, wait


def calibrate() -> float:
    """Seconds for the fixed calibration work on this host, now."""
    C = reference.CURVES["secp256k1"]
    return timed(lambda: [reference.mul(C, k, C.g) for k in CAL_SCALARS])[1]


def scaling_probe(prog: Program, scalars) -> float:
    """Throughput of public scalar_mul on two threads over one, 1.0 = none."""
    c, errors = prog.curve, []

    def burn():
        try:
            for k in scalars:
                prog.E.scalar_mul(c, k, c.g)
        except Exception as exc:  # reported below; a thread cannot raise to us
            errors.append(exc)

    _, solo = timed(burn)
    threads = [threading.Thread(target=burn) for _ in range(2)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    pair = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return 2 * solo / pair


def traced_round(prog: Program, messages, nonces, probe_scalars):
    """Per-layer costs of one round; sums are over every block of every message."""
    E, c, params = prog.E, prog.curve, prog.params
    a, b, p = c.a.value, c.b.value, c.p  # to repeat encode_block's window search
    n_blocks = sum(len(k) for k in nonces)
    n_calls = len(messages)
    single, dual = E.ExecMode.SINGLE, E.ExecMode.DUAL
    t = dict.fromkeys((
        "ppk", "split", "encode", "sqrt", "mul_G", "mul_PB", "add", "pipe1",
        "pipe2", "call1", "call2", "w1_busy", "w2_busy", "w1_wait", "w2_wait",
        "render", "pkp", "parse", "mul_c1", "sub", "decode", "join"), 0.0)
    candidates = sqrt_calls = locks = 0

    e2e_texts, e2e_encrypt = timed(lambda: [prog.encrypt_text(m, k, single)
                                            for m, k in zip(messages, nonces)])
    e2e_plain, e2e_decrypt = timed(lambda: [prog.decrypt_text(text) for text in e2e_texts])

    for message, ks, e2e_text, e2e_out in zip(messages, nonces, e2e_texts, e2e_plain):
        checks.check_roundtrip(message, e2e_out)
        (_, public), dt = timed(prog.elgamal.parse_public_key, prog.public_text)
        t["ppk"] += dt
        values, dt = timed(prog.codec.split_message, message, prog.block_bits)
        t["split"] += dt

        points = []
        for m in values:
            pt, dt = timed(E.encode_block, c, params, m)
            t["encode"] += dt
            x = pt.coords()[0]
            candidates += x - m * KAPPA + 1
            for xi in range(m * KAPPA, x + 1):
                _, dt = timed(prog.field.sqrt_mod, (xi * xi * xi + a * xi + b) % p, p)
                t["sqrt"] += dt
                sqrt_calls += 1
            points.append(pt)

        blocks = []
        for pm, k in zip(points, ks):
            c1, dt = timed(E.scalar_mul, c, k, c.g)
            t["mul_G"] += dt
            kpb, dt = timed(E.scalar_mul, c, k, public)
            t["mul_PB"] += dt
            c2, dt = timed(E.point_add, c, pm, kpb)
            t["add"] += dt
            blocks.append(E.CiphertextBlock(c1, c2))

        traces = {}
        for mode, key in ((single, "1"), (dual, "2")):
            (out, traces[mode]), dt = timed(E.run_encrypt_pipeline, c, points, public, ks, mode)
            t["pipe" + key] += dt
            if out != blocks:
                raise checks.CheckFailed(f"{mode.value} pipeline blocks differ from the stages'")
            checks.check_trace(traces[mode].events, len(points), mode == dual)
            _, dt = timed(E.run_encrypt_pipeline, c, [], public, [], mode)
            t["call" + key] += dt
        events = traces[dual].events
        busy, wait = worker_spans(events)
        for w in (1, 2):
            t[f"w{w}_busy"] += busy.get(w, 0) / 1e9
            t[f"w{w}_wait"] += wait.get(w, 0) / 1e9
        locks += sum(ev.kind == "lock" for ev in events)

        ct = E.Ciphertext(c.name, prog.block_bits, KAPPA, len(message), tuple(blocks))
        text, dt = timed(E.render_ciphertext, ct)
        t["render"] += dt
        if text != e2e_text:
            raise checks.CheckFailed("stage-by-stage ciphertext differs from encrypt()'s")

        kp, dt = timed(E.parse_keypair, prog.key_text)
        t["pkp"] += dt
        parsed, dt = timed(E.parse_ciphertext, text)
        t["parse"] += dt
        decoded = []
        for block, pm in zip(parsed.blocks, points):
            shared, dt = timed(E.scalar_mul, c, kp.secret, block.c1)
            t["mul_c1"] += dt
            back, dt = timed(lambda: E.point_add(c, block.c2, E.point_neg(c, shared)))
            t["sub"] += dt
            if back != pm:
                raise checks.CheckFailed("c2 - s*c1 is not the message point")
            m, dt = timed(E.decode_block, params, back)
            t["decode"] += dt
            decoded.append(m)
        out, dt = timed(prog.codec.join_message, decoded, prog.block_bits, len(message))
        t["join"] += dt
        checks.check_roundtrip(message, out)

    us = 1e6 / n_blocks
    encrypt_stages = (t["ppk"] + t["split"] + t["encode"] + t["mul_G"] + t["mul_PB"]
                      + t["add"] + t["call1"] + t["render"]) * us
    decrypt_stages = (t["pkp"] + t["parse"] + t["mul_c1"] + t["sub"] + t["decode"]
                      + t["join"]) * us
    return e2e_texts, {
        "field.sqrt_mod_us": t["sqrt"] * 1e6 / sqrt_calls,
        "codec.encode_us_per_block": t["encode"] * us,
        "codec.encode_candidates_per_block": candidates / n_blocks,
        "curve.mul_G_us": t["mul_G"] * us,
        "curve.mul_PB_us": t["mul_PB"] * us,
        "curve.mul_c1_us": t["mul_c1"] * us,
        "curve.point_add_us": t["add"] * us,
        "curve.point_sub_us": t["sub"] * us,
        "codec.decode_us_per_block": t["decode"] * us,
        "codec.split_join_us_per_block": (t["split"] + t["join"]) * us,
        "elgamal.render_us_per_block": t["render"] * us,
        "elgamal.parse_us_per_block": t["parse"] * us,
        "elgamal.parse_public_key_us": t["ppk"] * 1e6 / n_calls,
        "elgamal.parse_keypair_us": t["pkp"] * 1e6 / n_calls,
        "pipeline.single.call_us": t["call1"] * 1e6 / n_calls,
        "pipeline.dual.call_us": t["call2"] * 1e6 / n_calls,
        "pipeline.single.us_per_block": t["pipe1"] * us,
        "pipeline.dual.us_per_block": t["pipe2"] * us,
        "pipeline.dual.w1_busy_us_per_block": t["w1_busy"] * us,
        "pipeline.dual.w2_busy_us_per_block": t["w2_busy"] * us,
        "pipeline.dual.w1_wait_us_per_block": t["w1_wait"] * us,
        "pipeline.dual.w2_wait_us_per_block": t["w2_wait"] * us,
        "pipeline.dual.lock_acquires_per_block": locks / n_blocks,
        "pipeline.dual_speedup": t["pipe1"] / t["pipe2"],
        "curve.scalar_mul_2thread_scaling": scaling_probe(prog, probe_scalars),
        "elgamal.encrypt_us_per_block": e2e_encrypt * us,
        "elgamal.encrypt_stage_sum_us_per_block": encrypt_stages,
        "elgamal.encrypt_unattributed_us_per_block": e2e_encrypt * us - encrypt_stages,
        "elgamal.decrypt_us_per_block": e2e_decrypt * us,
        "elgamal.decrypt_stage_sum_us_per_block": decrypt_stages,
        "elgamal.decrypt_unattributed_us_per_block": e2e_decrypt * us - decrypt_stages,
    }


def check_outputs(prog: Program, messages, nonces, texts, seed: int) -> None:
    """Reference checks on the texts of the last round, and the pipeline traces."""
    E, c = prog.E, prog.curve
    C = reference.CURVES[c.name]
    checks.check_curve(C, (c.p, c.a.value, c.b.value, c.g.coords(), c.n))
    public = prog.keypair.public.coords()
    checks.check_public(C, prog.keypair.secret, public)
    blocks = [block for text in texts for block in checks.read_blocks(text)]
    checks.check_on_curve(C, blocks)

    values = [v for m in messages for v in checks.split_blocks(m, prog.block_bits)]
    ks = [k for per_message in nonces for k in per_message]
    sample = random.Random(f"sample:{seed}").sample(range(len(blocks)), SAMPLE_BLOCKS)
    checks.check_blocks(C, blocks, sample, values, KAPPA, ks, public)

    head = min(TRACE_BLOCKS, len(values))
    points = [E.encode_block(c, prog.params, v) for v in values[:head]]
    for mode in (E.ExecMode.SINGLE, E.ExecMode.DUAL):
        out, trace = E.run_encrypt_pipeline(c, points, prog.keypair.public, ks[:head], mode)
        checks.check_trace(trace.events, head, mode == E.ExecMode.DUAL)
        pairs = [tuple(None if pt.is_identity else pt.coords() for pt in (b.c1, b.c2))
                 for b in out]
        if pairs != blocks[:head]:
            raise checks.CheckFailed(f"{mode.value} pipeline blocks differ from the ciphertext text")


def unit(name: str) -> str:
    if name.endswith("_bps"):
        return "bit/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_us", "us_per_block")):
        return "us"
    if name.endswith(("speedup", "scaling")):
        return "ratio"
    if name == "ct_bytes_per_byte":
        return "byte/byte"
    return "count"


def main() -> int:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    prog = Program(workload, seed)
    print("READY", flush=True)

    messages, nonces = make_inputs(workload, seed, prog)
    bits = 8 * sum(len(m) for m in messages)
    probe_rng = random.Random(f"probe:{seed}")
    probe_scalars = [probe_rng.randrange(1, prog.curve.n) for _ in range(PROBE_MULS)]
    rounds, cal = [], [calibrate()]
    deadline = time.perf_counter() + seconds
    try:
        while not rounds or time.perf_counter() < deadline:
            prog.use_key(len(rounds) % KEYS)
            if trace:
                texts, figures = traced_round(prog, messages, nonces, probe_scalars)
            else:
                texts, figures = e2e_round(prog, messages, nonces, bits)
            rounds.append(figures)
            cal.append(calibrate())
        check_outputs(prog, messages, nonces, texts, seed)
        correct = True
    except checks.CheckFailed as exc:
        print(f"worker: check failed: {exc}", file=sys.stderr)
        correct = False

    values = {}
    # > 1 on a host slower than the reference: times are divided by it.
    host_scale = statistics.mean(cal) / CAL_REF_S
    if rounds and trace:
        values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
        values.update(prog.setup)
        values["host.calibration_ms"] = statistics.median(cal) * 1e3
    elif rounds:
        # Throughput is all bits over all time, the time taken to the
        # reference host speed.  A median over rounds would jump between the
        # host's fast and slow levels.
        values = {name: host_scale * sum(r[name][0] for r in rounds)
                  / sum(r[name][1] for r in rounds) for name in rounds[0]}
        values["ct_bytes_per_byte"] = sum(len(t.encode()) for t in texts) / (bits // 8)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, 2 * len(messages) * len(rounds)),  # round trips checked
        "failed": 0,
        "host_scale": host_scale,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
