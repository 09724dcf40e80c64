"""Cryptographic substrate for attestation and secure channels.

Everything is implemented from scratch on stdlib hash primitives:
a ChaCha20 stream cipher, finite-field Diffie-Hellman (RFC 3526 group),
HKDF-SHA256, Schnorr signatures, and an encrypt-then-MAC channel with
the fixed-length padding that policy P0 uses for entropy control.

These stand in for the paper's mbedTLS + RA-TLS + EPID quote stack.
They are *simulation grade*: correct constructions, no side-channel
hardening, not for production use.
"""

from .chacha import chacha20_xor
from .dh import DHKeyPair, MODP_2048_P, MODP_2048_G
from .hkdf import hkdf_extract, hkdf_expand, hkdf
from .sig import SigningKey, VerifyingKey
from .channel import SecureChannel, derive_channel_keys

__all__ = [
    "chacha20_xor",
    "DHKeyPair", "MODP_2048_P", "MODP_2048_G",
    "hkdf_extract", "hkdf_expand", "hkdf",
    "SigningKey", "VerifyingKey",
    "SecureChannel", "derive_channel_keys",
]
