"""Finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group.

Used for the key agreement of §III-A: data owner and code provider each
run a DH exchange with the bootstrap enclave after verifying its quote.
"""

from __future__ import annotations

import functools
import hashlib
import secrets

MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF", 16)
MODP_2048_G = 2

#: Order of the prime-order subgroup (p is a safe prime, q = (p-1)/2).
MODP_2048_Q = (MODP_2048_P - 1) // 2

#: Digit width, in bits, of the fixed-base exponentiation below.
_WINDOW = 5


@functools.lru_cache(maxsize=None)
def _g_powers() -> tuple:
    """``G^(2^(5i)) mod P`` for every 5-bit digit position i of an
    exponent below Q: 410 entries, ~0.13 MB, built on first use."""
    digits = -(-MODP_2048_Q.bit_length() // _WINDOW)
    powers = [MODP_2048_G]
    for _ in range(digits - 1):
        powers.append(pow(powers[-1], 1 << _WINDOW, MODP_2048_P))
    return tuple(powers)


def g_pow(exponent: int) -> int:
    """``pow(G, exponent, P)`` by Yao's fixed-base method (BGMW).

    With ``exponent = sum(d_i * 32**i)``, ``G^exponent`` is the product
    over digits d of ``bucket[d]^d``, where ``bucket[d]`` multiplies the
    table entries of every position holding digit d.  Folding the
    buckets from the highest digit down (``b *= bucket[d]; a *= b``)
    raises each to its digit with no squarings: ~430 multiply-mods for
    a 2047-bit exponent.  G generates the order-Q subgroup, so the
    exponent is reduced mod Q first.
    """
    p = MODP_2048_P
    e = exponent % MODP_2048_Q
    mask = (1 << _WINDOW) - 1
    buckets = [1] * (1 << _WINDOW)
    for power in _g_powers():
        if not e:
            break
        digit = e & mask
        if digit:
            buckets[digit] = buckets[digit] * power % p
        e >>= _WINDOW
    a = b = 1
    for bucket in reversed(buckets[1:]):
        b = b * bucket % p
        a = a * b % p
    return a


class DHKeyPair:
    """Ephemeral DH key pair with a deterministic-from-seed option.

    A seed keeps protocol tests reproducible; production callers omit it
    and get a fresh random exponent.
    """

    def __init__(self, seed: bytes = None):
        if seed is None:
            exponent = secrets.randbits(512)
        else:
            exponent = int.from_bytes(
                hashlib.sha512(b"dh-exponent" + seed).digest(), "big")
        self._x = exponent % MODP_2048_Q or 2
        self.public = g_pow(self._x)

    def shared_secret(self, peer_public: int) -> bytes:
        """Return the hashed shared secret with ``peer_public``.

        Rejects degenerate public values (0, 1, p-1) that would force a
        predictable secret.
        """
        if not 1 < peer_public < MODP_2048_P - 1:
            raise ValueError("degenerate DH public value")
        secret = pow(peer_public, self._x, MODP_2048_P)
        raw = secret.to_bytes((MODP_2048_P.bit_length() + 7) // 8, "big")
        return hashlib.sha256(b"dh-shared" + raw).digest()

    def public_bytes(self) -> bytes:
        return self.public.to_bytes(256, "big")

    @staticmethod
    def public_from_bytes(data: bytes) -> int:
        if len(data) != 256:
            raise ValueError("DH public value must be 256 bytes")
        return int.from_bytes(data, "big")
