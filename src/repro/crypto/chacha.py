"""ChaCha20 stream cipher (RFC 8439 core, from scratch).

Lane-packed: one call runs every 64-byte block of the keystream at
once.  Each of the 16 state words is a single Python int holding one
64-bit lane per block — the word's 32-bit value in the low half of the
lane, guard space in the high half.  A 32-bit add carries at most one
bit into the guard space and a rotate's spill lands there too, so one
mask per step (``& m``, 0xFFFFFFFF in every lane) keeps every lane an
exact 32-bit word and no lane ever leaks into its neighbour.
"""

from __future__ import annotations

import struct
from array import array

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
#: One 64-bit lane holding 1, little-endian.
_LANE_ONE = (1).to_bytes(8, "little")


def _keystream(key_words, nonce_words, counter: int, blocks: int) -> bytes:
    """``blocks`` keystream blocks, block j under counter
    ``(counter + j) mod 2**32`` (the 32-bit RFC 8439 block counter)."""
    ones = int.from_bytes(_LANE_ONE * blocks, "little")
    m = ones * _MASK32
    state = [w * ones for w in _CONSTANTS + key_words]
    state.append(int.from_bytes(struct.pack(
        f"<{blocks}Q", *((counter + j) & _MASK32 for j in range(blocks))),
        "little"))
    state += [w * ones for w in nonce_words]
    (x0, x1, x2, x3, x4, x5, x6, x7,
     x8, x9, x10, x11, x12, x13, x14, x15) = state
    for _ in range(10):
        # Column round; one line per RFC 8439 §2.1 quarter-round line.
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = (x12 << 16 | x12 >> 16) & m
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = (x4 << 12 | x4 >> 20) & m
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = (x12 << 8 | x12 >> 24) & m
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = (x4 << 7 | x4 >> 25) & m
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = (x13 << 16 | x13 >> 16) & m
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = (x5 << 12 | x5 >> 20) & m
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = (x13 << 8 | x13 >> 24) & m
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = (x5 << 7 | x5 >> 25) & m
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = (x14 << 16 | x14 >> 16) & m
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = (x6 << 12 | x6 >> 20) & m
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = (x14 << 8 | x14 >> 24) & m
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = (x6 << 7 | x6 >> 25) & m
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = (x15 << 16 | x15 >> 16) & m
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = (x7 << 12 | x7 >> 20) & m
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = (x15 << 8 | x15 >> 24) & m
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = (x7 << 7 | x7 >> 25) & m
        # Diagonal round.
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = (x15 << 16 | x15 >> 16) & m
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = (x5 << 12 | x5 >> 20) & m
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = (x15 << 8 | x15 >> 24) & m
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = (x5 << 7 | x5 >> 25) & m
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = (x12 << 16 | x12 >> 16) & m
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = (x6 << 12 | x6 >> 20) & m
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = (x12 << 8 | x12 >> 24) & m
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = (x6 << 7 | x6 >> 25) & m
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = (x13 << 16 | x13 >> 16) & m
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = (x7 << 12 | x7 >> 20) & m
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = (x13 << 8 | x13 >> 24) & m
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = (x7 << 7 | x7 >> 25) & m
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = (x14 << 16 | x14 >> 16) & m
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = (x4 << 12 | x4 >> 20) & m
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = (x14 << 8 | x14 >> 24) & m
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = (x4 << 7 | x4 >> 25) & m
    # Word i of block j is 32-bit item 2j of word i's lanes (item 2j+1
    # is the zeroed guard half); the copy moves whole 4-byte items, so
    # it is independent of the host byte order.
    out = array("I", bytes(64 * blocks))
    for i, (x, s) in enumerate(zip(
            (x0, x1, x2, x3, x4, x5, x6, x7,
             x8, x9, x10, x11, x12, x13, x14, x15), state)):
        out[i::16] = array(
            "I", ((x + s) & m).to_bytes(8 * blocks, "little"))[::2]
    return out.tobytes()


def chacha20_xor(key: bytes, nonce: bytes, data: bytes,
                 counter: int = 0) -> bytes:
    """Encrypt/decrypt ``data`` (any bytes-like) in one shot: XOR with
    the keystream that starts at 64-byte block ``counter``.

    ``key`` is 32 bytes and ``nonce`` 12 bytes; anything else raises
    :class:`ValueError`.  Encryption and decryption are the same
    operation."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    length = len(data)
    if not length:
        return b""
    stream = _keystream(struct.unpack("<8I", key),
                        struct.unpack("<3I", nonce), counter,
                        -(-length // 64))
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream[:length], "little")).to_bytes(
                length, "little")
