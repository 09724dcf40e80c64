"""Schnorr signatures over the RFC 3526 prime-order subgroup.

Stands in for the platform attestation key and the attestation service's
report-signing key (the paper's EPID/ECDSA machinery).  Nonces are
derived deterministically from the key and message (RFC 6979 style), so
signing never needs an entropy source inside the simulated enclave.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from .dh import MODP_2048_P as P, MODP_2048_Q as Q, g_pow

_Q_BYTES = (Q.bit_length() + 7) // 8


def _hash_to_int(*parts: bytes) -> int:
    # Full 512-bit challenge (fits the fixed 64-byte signature field);
    # reduced mod Q only inside the group arithmetic.
    digest = hashlib.sha512(b"".join(parts)).digest()
    return int.from_bytes(digest, "big")


class VerifyingKey:
    """Public half of a Schnorr key."""

    def __init__(self, y: int):
        if not 1 < y < P - 1:
            raise ValueError("bad public key")
        self.y = y

    def to_bytes(self) -> bytes:
        return self.y.to_bytes(256, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyingKey":
        return cls(int.from_bytes(data, "big"))

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check ``signature`` (e || s, 64 + Q bytes) over ``message``."""
        if len(signature) != 64 + _Q_BYTES:
            return False
        e = int.from_bytes(signature[:64], "big")
        s = int.from_bytes(signature[64:], "big")
        if not (0 <= s < Q):
            return False
        # r' = g^s * y^e ; valid iff H(r' || m) == e
        r = (g_pow(s) * pow(self.y, e % Q, P)) % P
        expected = _hash_to_int(r.to_bytes(256, "big"), message)
        return hmac.compare_digest(
            expected.to_bytes(64, "big"), signature[:64])

    def fingerprint(self) -> bytes:
        return hashlib.sha256(self.to_bytes()).digest()


class SigningKey:
    """Private Schnorr key; deterministic when built from a seed."""

    def __init__(self, seed: bytes = None):
        if seed is None:
            x = secrets.randbits(512)
        else:
            x = int.from_bytes(
                hashlib.sha512(b"schnorr-key" + seed).digest(), "big")
        self._x = x % Q or 2
        self.verifying_key = VerifyingKey(g_pow(self._x))

    def derive_secret(self, label: bytes) -> bytes:
        """Derive a 32-byte secret bound to this private key.

        Used for key material that must be reproducible on the same
        platform but underivable from anything public (the sealing-fuse
        stand-in): HMAC over the label with the private scalar."""
        return hmac.new(self._x.to_bytes(_Q_BYTES, "big"), label,
                        hashlib.sha256).digest()

    def sign(self, message: bytes) -> bytes:
        """Produce ``e || s`` with a message-bound deterministic nonce."""
        key_bytes = self._x.to_bytes(_Q_BYTES, "big")
        k = int.from_bytes(
            hmac.new(key_bytes, b"nonce" + message,
                     hashlib.sha512).digest(), "big") % Q or 2
        r = g_pow(k)
        e = _hash_to_int(r.to_bytes(256, "big"), message)
        s = (k - self._x * e) % Q
        return e.to_bytes(64, "big") + s.to_bytes(_Q_BYTES, "big")
