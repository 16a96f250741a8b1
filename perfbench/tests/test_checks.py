"""Each correctness check passes on real output and fails on corrupted output."""

import random

import pytest

import checks
import ecelgamal
import reference as ref
from ecelgamal.elgamal import parse_public_key

MESSAGE = b"sixteen byte msg"
KAPPA = 32


@pytest.fixture(scope="module")
def run():
    c = ecelgamal.get_curve("secp256k1")
    kp = ecelgamal.keygen(c, random.Random(1))
    rng = random.Random(2)
    nonces = [rng.randrange(1, c.n) for _ in MESSAGE]
    params = ecelgamal.EncodingParams(kappa=KAPPA, block_bits=8)
    _, public = parse_public_key(ecelgamal.render_keypair(kp, include_secret=False))
    texts = {mode: ecelgamal.render_ciphertext(
        ecelgamal.encrypt(c, MESSAGE, public, params, nonces, mode))
        for mode in ecelgamal.ExecMode}
    points = [ecelgamal.encode_block(c, params, m) for m in MESSAGE]
    traces = {mode: ecelgamal.run_encrypt_pipeline(c, points, public, nonces, mode)[1]
              for mode in ecelgamal.ExecMode}
    return dict(kp=kp, nonces=nonces, texts=texts, traces=traces,
                text=texts[ecelgamal.ExecMode.SINGLE])


def blocks_of(text):
    return checks.read_blocks(text)


def check_all_blocks(run, text):
    C = ref.CURVES["secp256k1"]
    blocks = blocks_of(text)
    checks.check_on_curve(C, blocks)
    checks.check_blocks(C, blocks, range(len(blocks)), list(MESSAGE), KAPPA,
                        run["nonces"], run["kp"].public.coords())


def decrypt_text(run, text):
    return ecelgamal.decrypt(ecelgamal.parse_ciphertext(text), run["kp"].secret)


def flip_c2_digit(text, block):
    lines = text.splitlines()  # four header lines, then one line per block
    tokens = lines[4 + block].split()
    tokens[2] = tokens[2][:-1] + ("1" if tokens[2][-1] != "1" else "2")
    lines[4 + block] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def swap_blocks(text, i, j):
    lines = text.splitlines()
    lines[4 + i], lines[4 + j] = lines[4 + j], lines[4 + i]
    return "\n".join(lines) + "\n"


def test_real_output_passes(run):
    check_all_blocks(run, run["text"])
    checks.check_public(ref.CURVES["secp256k1"], run["kp"].secret, run["kp"].public.coords())
    checks.check_modes_identical(*run["texts"].values())
    checks.check_roundtrip(MESSAGE, decrypt_text(run, run["text"]))
    assert checks.split_blocks(MESSAGE, 8) == list(MESSAGE)


def test_flipped_c2_digit_fails(run):
    bad = flip_c2_digit(run["text"], 5)
    C = ref.CURVES["secp256k1"]
    with pytest.raises(checks.CheckFailed, match="block 5"):
        checks.check_on_curve(C, blocks_of(bad))
    with pytest.raises(checks.CheckFailed, match="block 5"):
        checks.check_blocks(C, blocks_of(bad), [5], list(MESSAGE), KAPPA,
                            run["nonces"], run["kp"].public.coords())
    with pytest.raises(checks.CheckFailed):
        checks.check_modes_identical(run["text"], bad)


def test_swapped_blocks_fail(run):
    bad = swap_blocks(run["text"], 2, 9)
    checks.check_on_curve(ref.CURVES["secp256k1"], blocks_of(bad))  # still on the curve
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip(MESSAGE, decrypt_text(run, bad))
    with pytest.raises(checks.CheckFailed, match="block 2"):
        check_all_blocks(run, bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_modes_identical(run["text"], bad)


def test_wrong_public_point_fails(run):
    with pytest.raises(checks.CheckFailed):
        checks.check_public(ref.CURVES["secp256k1"], run["kp"].secret + 1,
                            run["kp"].public.coords())


@pytest.mark.parametrize("mode", list(ecelgamal.ExecMode), ids=lambda m: m.value)
def test_real_traces_pass(run, mode):
    checks.check_trace(run["traces"][mode].events, len(MESSAGE), mode == ecelgamal.ExecMode.DUAL)


def renumbered(events):
    return [ev._replace(seq=i) for i, ev in enumerate(events)]


def dual_events(run):
    return list(run["traces"][ecelgamal.ExecMode.DUAL].events)


def test_reordered_trace_fails(run):
    events = dual_events(run)
    events[3], events[4] = events[4], events[3]
    with pytest.raises(checks.CheckFailed, match="out of order"):
        checks.check_trace(events, len(MESSAGE), True)
    events = dual_events(run)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(renumbered(events[::-1]), len(MESSAGE), True)


def test_slot_access_outside_lock_fails(run):
    events = dual_events(run)
    i = next(i for i, ev in enumerate(events) if ev.kind == "write_slot")
    assert events[i - 1].kind == "lock"
    events[i - 1], events[i] = events[i], events[i - 1]
    with pytest.raises(checks.CheckFailed, match="outside its lock"):
        checks.check_trace(renumbered(events), len(MESSAGE), True)


def test_overlapping_locks_fail(run):
    events = dual_events(run)
    i = next(i for i, ev in enumerate(events) if ev.kind == "unlock")
    with pytest.raises(checks.CheckFailed, match="holds the lock"):
        checks.check_trace(renumbered(events[:i] + events[i + 1:]), len(MESSAGE), True)


def test_missing_compute_span_fails(run):
    events = list(run["traces"][ecelgamal.ExecMode.SINGLE].events)
    with pytest.raises(checks.CheckFailed, match="compute spans"):
        checks.check_trace(renumbered(events[2:]), len(MESSAGE), False)
    with pytest.raises(checks.CheckFailed, match="compute spans"):
        checks.check_trace(dual_events(run), len(MESSAGE), False)
