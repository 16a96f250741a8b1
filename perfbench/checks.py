"""Correctness checks on the program's outputs, made apart from the program.

Ciphertext text is read with this module's own parser, points are checked
with :mod:`reference`, and execution traces are checked from their raw
events.  Every check raises :class:`CheckFailed` with a reason.
"""

from __future__ import annotations

import reference as ref


class CheckFailed(Exception):
    """A program output disagrees with what the benchmark expects."""


def read_blocks(text: str):
    """[(c1, c2), ...] of a ciphertext text, with points as int pairs or None."""
    blocks = []
    for line in text.splitlines():
        if not line.strip() or "=" in line:  # header lines are "key = value"
            continue
        tokens = line.split()
        points = []
        try:
            while tokens:
                if tokens[0] == "O":
                    points.append(None)
                    tokens = tokens[1:]
                else:
                    points.append((int(tokens[0], 16), int(tokens[1], 16)))
                    tokens = tokens[2:]
        except (IndexError, ValueError):
            raise CheckFailed(f"ciphertext line {line!r} is malformed") from None
        if len(points) != 2:
            raise CheckFailed(f"ciphertext line {line!r} does not hold two points")
        blocks.append(tuple(points))
    return blocks


def split_blocks(message: bytes, block_bits: int) -> list[int]:
    """Big-endian block values; the last block is zero-padded."""
    step = block_bits // 8
    return [int.from_bytes(message[i:i + step].ljust(step, b"\0"), "big")
            for i in range(0, len(message), step)]


def check_roundtrip(expected: bytes, got: bytes) -> None:
    if got != expected:
        raise CheckFailed(
            f"decrypted {len(got)} bytes differ from the {len(expected)}-byte message"
        )


def check_modes_identical(single_text: str, dual_text: str) -> None:
    if single_text != dual_text:
        raise CheckFailed("single and dual ciphertext text differ for the same nonces")


def check_on_curve(C: ref.Curve, blocks) -> None:
    for i, (c1, c2) in enumerate(blocks):
        if not (ref.on_curve(C, c1) and ref.on_curve(C, c2)):
            raise CheckFailed(f"block {i} has a point off {C.name}")


def check_curve(C: ref.Curve, params) -> None:
    """The program's (p, a, b, G, n) match the published constants."""
    if params != (C.p, C.a, C.b, C.g, C.n):
        raise CheckFailed(f"the program's {C.name} parameters differ from SEC 2")
    if not ref.on_curve(C, C.g) or ref.mul(C, C.n, C.g) is not None:
        raise CheckFailed(f"{C.name}: G is off the curve or n*G is not the identity")


def check_public(C: ref.Curve, secret: int, public) -> None:
    if ref.mul(C, secret, C.g) != public:
        raise CheckFailed("public point is not secret*G")


def check_blocks(C: ref.Curve, blocks, sample, values, kappa, nonces, public) -> None:
    """c1 = k*G and c2 = P_M + k*P_B on the sampled block indices."""
    for i in sample:
        p_m = ref.encode(C, values[i], kappa)
        if tuple(blocks[i]) != ref.encrypt_block(C, p_m, public, nonces[i]):
            raise CheckFailed(f"block {i} differs from the reference encryption")


def check_trace(events, n_blocks: int, dual: bool) -> None:
    """Lock alternation, slot access under the lock, compute spans per block.

    Works on the raw events (seq, timestamp_ns, worker, kind, slot) only.
    """
    holder = None
    open_span = {}
    spans = {1: 0, 2: 0}
    last_seq = -1
    for ev in events:
        if ev.seq <= last_seq:
            raise CheckFailed(f"event {ev.seq} is out of order")
        last_seq = ev.seq
        w = ev.worker
        if ev.kind == "lock":
            if holder is not None:
                raise CheckFailed(f"w{w} locks while w{holder} holds the lock")
            holder = w
        elif ev.kind == "unlock":
            if holder != w:
                raise CheckFailed(f"w{w} unlocks a lock held by {holder}")
            holder = None
        elif ev.kind in ("read_slot", "write_slot"):
            if holder != w:
                raise CheckFailed(f"w{w} {ev.kind} {ev.slot} outside its lock")
        elif ev.kind == "compute_start":
            if open_span.get(w):
                raise CheckFailed(f"w{w} starts a span inside another")
            open_span[w] = True
        elif ev.kind == "compute_end":
            if not open_span.get(w):
                raise CheckFailed(f"w{w} ends a span it never started")
            open_span[w] = False
            spans[w] += 1
        else:
            raise CheckFailed(f"unknown event kind {ev.kind!r}")
    if holder is not None or any(open_span.values()):
        raise CheckFailed("trace ends inside a lock or a compute span")
    expected = {1: 2 * n_blocks, 2: n_blocks} if dual else {1: 3 * n_blocks, 2: 0}
    if spans != expected:
        raise CheckFailed(f"compute spans per worker {spans}, expected {expected}")
