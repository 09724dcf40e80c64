"""Crypto substrate: RFC vectors, roundtrips, negative paths, and
differential tests of the fast kernels against scalar references."""

import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    ChaCha20, chacha20_xor, DHKeyPair, SecureChannel, SigningKey,
    VerifyingKey, hkdf, hkdf_expand, hkdf_extract,
)
from repro.crypto import channel as channel_module
from repro.crypto.channel import derive_channel_keys
from repro.crypto.dh import (
    MODP_2048_G, MODP_2048_P, MODP_2048_Q, _g_powers, g_pow,
)
from repro.errors import ProtocolError


# -- ChaCha20 scalar reference (one block at a time, RFC 8439 §2.1-2.3) ------

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state, a, b, c, d):
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def _block(key_words, counter: int, nonce_words) -> bytes:
    state = list(_CONSTANTS) + list(key_words) + [counter & _MASK32] + \
        list(nonce_words)
    working = state[:]
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK32 for w, s in zip(working, state)]
    return struct.pack("<16I", *out)


def _ref_keystream(key: bytes, nonce: bytes, counter: int,
                   length: int) -> bytes:
    key_words = struct.unpack("<8I", key)
    nonce_words = struct.unpack("<3I", nonce)
    out = b"".join(_block(key_words, counter + j, nonce_words)
                   for j in range(-(-length // 64)))
    return out[:length]


def _ref_xor(key: bytes, nonce: bytes, data: bytes,
             counter: int = 0) -> bytes:
    stream = _ref_keystream(key, nonce, counter, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


# -- ChaCha20 ---------------------------------------------------------------

def test_reference_block_rfc8439_2_3_2_vector():
    # RFC 8439 §2.3.2: the reference itself is pinned to the RFC.
    key = bytes(range(32))
    nonce = bytes.fromhex("000000090000004a00000000")
    assert _ref_keystream(key, nonce, 1, 64) == bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")

def test_chacha20_rfc8439_vector():
    # RFC 8439 §2.4.2 test vector
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (b"Ladies and Gentlemen of the class of '99: If I could "
                 b"offer you only one tip for the future, sunscreen would "
                 b"be it.")
    expected = bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42874d")
    assert chacha20_xor(key, nonce, plaintext, counter=1) == expected


def test_chacha20_involution():
    key = b"k" * 32
    nonce = b"n" * 12
    data = b"secret payload" * 10
    assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data


def test_chacha20_rejects_bad_key_nonce():
    with pytest.raises(ValueError):
        ChaCha20(b"short", b"n" * 12)
    with pytest.raises(ValueError):
        ChaCha20(b"k" * 32, b"short")


_WRAP_COUNTERS = (0, 1, 2**32 - 1, 2**32 - 16)
_LENGTHS = (0, 1, 63, 64, 65, 256, 1024, 20_000)


@pytest.mark.parametrize("counter", _WRAP_COUNTERS)
@pytest.mark.parametrize("length", _LENGTHS)
def test_chacha20_matches_scalar_reference(counter, length):
    # Counters 2**32-1 and 2**32-16 wrap the 32-bit block counter
    # mid-call for every length past one (resp. sixteen) blocks.
    rng = random.Random(f"chacha/{counter}/{length}")
    key, nonce = rng.randbytes(32), rng.randbytes(12)
    data = rng.randbytes(length)
    assert chacha20_xor(key, nonce, data, counter) == \
        _ref_xor(key, nonce, data, counter)


@pytest.mark.parametrize("counter", _WRAP_COUNTERS)
def test_chacha20_stateful_keystream_matches_reference(counter):
    # Each keystream() call starts on a fresh block and discards the
    # tail of its last one; odd lengths exercise that bookkeeping.
    rng = random.Random(f"chacha-stream/{counter}")
    key, nonce = rng.randbytes(32), rng.randbytes(12)
    cipher = ChaCha20(key, nonce, counter)
    position = counter
    for length in (1, 63, 65, 0, 7, 129, 1000, 3):
        expected = _ref_keystream(key, nonce, position, length)
        assert cipher.keystream(length) == expected
        position += -(-length // 64)


def test_chacha20_process_accepts_bytes_like():
    key, nonce, data = b"k" * 32, b"n" * 12, bytes(range(200))
    expected = _ref_xor(key, nonce, data)
    for view in (bytearray(data), memoryview(data)):
        out = ChaCha20(key, nonce).process(view)
        assert type(out) is bytes and out == expected


@given(data=st.binary(max_size=300))
def test_chacha20_keystream_xor_property(data):
    key = b"\x07" * 32
    nonce = b"\x01" * 12
    ct = chacha20_xor(key, nonce, data)
    assert len(ct) == len(data)
    assert chacha20_xor(key, nonce, ct) == data


# -- HKDF ---------------------------------------------------------------------

def test_hkdf_rfc5869_case1():
    ikm = b"\x0b" * 22
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk == bytes.fromhex(
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
    okm = hkdf_expand(prk, info, 42)
    assert okm == bytes.fromhex(
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865")


def test_hkdf_length_cap():
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)


def test_hkdf_deterministic_and_info_bound():
    a = hkdf(b"ikm", b"salt", b"info-a", 32)
    b = hkdf(b"ikm", b"salt", b"info-b", 32)
    assert a != b
    assert a == hkdf(b"ikm", b"salt", b"info-a", 32)


# -- DH ------------------------------------------------------------------------

def test_dh_agreement():
    alice = DHKeyPair(b"alice")
    bob = DHKeyPair(b"bob")
    assert alice.shared_secret(bob.public) == \
        bob.shared_secret(alice.public)


def test_dh_distinct_pairs_distinct_secrets():
    alice = DHKeyPair(b"alice")
    bob = DHKeyPair(b"bob")
    eve = DHKeyPair(b"eve")
    assert alice.shared_secret(bob.public) != \
        alice.shared_secret(eve.public)


def test_dh_rejects_degenerate_publics():
    alice = DHKeyPair(b"alice")
    from repro.crypto.dh import MODP_2048_P
    for bad in (0, 1, MODP_2048_P - 1, MODP_2048_P):
        with pytest.raises(ValueError):
            alice.shared_secret(bad)


def test_dh_public_bytes_roundtrip():
    kp = DHKeyPair(b"seed")
    assert DHKeyPair.public_from_bytes(kp.public_bytes()) == kp.public


# -- fixed-base G^e -------------------------------------------------------------

def test_g_generates_the_order_q_subgroup():
    # g_pow reduces exponents mod Q; that is exact only if G^Q == 1.
    assert pow(MODP_2048_G, MODP_2048_Q, MODP_2048_P) == 1


def test_g_table_is_one_entry_per_5_bit_digit():
    powers = _g_powers()
    assert len(powers) == 410 and 5 * len(powers) >= MODP_2048_Q.bit_length()
    assert powers[3] == pow(MODP_2048_G, 1 << 15, MODP_2048_P)
    assert _g_powers() is powers          # built once per process


def _exponents():
    rng = random.Random("g_pow")
    edges = [0, 1, 2, 31, 32, 33, MODP_2048_Q - 1, MODP_2048_Q,
             MODP_2048_Q + 1, 2 * MODP_2048_Q + 5, MODP_2048_P]
    for k in (5, 64, 511, 512, 2045, 2046):
        edges += [2**k - 1, 2**k, 2**k + 1]
    return (edges + [rng.getrandbits(512) for _ in range(6)]
            + [rng.getrandbits(2047) for _ in range(6)])


@pytest.mark.parametrize("exponent", _exponents())
def test_g_pow_matches_builtin_pow(exponent):
    assert g_pow(exponent) == pow(MODP_2048_G, exponent, MODP_2048_P)


# -- Schnorr ---------------------------------------------------------------------

def test_schnorr_sign_verify():
    key = SigningKey(b"signer")
    message = b"attestation report body"
    signature = key.sign(message)
    assert key.verifying_key.verify(message, signature)


def test_schnorr_rejects_wrong_message_and_key():
    key = SigningKey(b"signer")
    other = SigningKey(b"other")
    sig = key.sign(b"hello")
    assert not key.verifying_key.verify(b"hullo", sig)
    assert not other.verifying_key.verify(b"hello", sig)


def test_schnorr_rejects_mangled_signature():
    key = SigningKey(b"signer")
    sig = bytearray(key.sign(b"msg"))
    sig[5] ^= 1
    assert not key.verifying_key.verify(b"msg", bytes(sig))
    assert not key.verifying_key.verify(b"msg", b"short")


def test_verifying_key_serialization():
    key = SigningKey(b"k")
    vk = VerifyingKey.from_bytes(key.verifying_key.to_bytes())
    assert vk.verify(b"m", key.sign(b"m"))


# -- SecureChannel -----------------------------------------------------------------

def _pair(record_size=128):
    return SecureChannel.pair(b"\x42" * 32, b"transcript",
                              record_size=record_size)


def test_channel_roundtrip_and_padding():
    client, server = _pair()
    wire = client.seal(b"hello")
    assert len(wire) == client.record_size + 32
    assert server.open(wire) == b"hello"


def test_channel_fixed_length_hides_plaintext_size():
    client, _ = _pair()
    a = client.seal(b"x")
    client2, _ = _pair()
    b = client2.seal(b"y" * 100)
    assert len(a) == len(b)  # P0 entropy control: same wire size


def test_channel_multi_record_messages():
    client, server = _pair(record_size=64)
    msg = bytes(range(256)) * 3
    assert server.open(client.seal(msg)) == msg


def test_channel_rejects_tampering():
    client, server = _pair()
    wire = bytearray(client.seal(b"data"))
    wire[3] ^= 1
    with pytest.raises(ProtocolError, match="MAC"):
        server.open(bytes(wire))


def test_channel_rejects_replay():
    client, server = _pair()
    wire = client.seal(b"data")
    server.open(wire)
    with pytest.raises(ProtocolError, match="MAC"):
        server.open(wire)  # recv seq advanced: replay fails


def test_channel_rejects_truncation():
    client, server = _pair()
    wire = client.seal(b"data")
    with pytest.raises(ProtocolError, match="truncated"):
        server.open(wire[:-1])


@pytest.mark.parametrize("record_size", [-1, 0, 3, 4])
def test_channel_rejects_record_size_at_or_below_header(record_size):
    # record_size <= the 4-byte length header used to slip through and
    # blow up later in seal() with a zero/negative chunk step
    with pytest.raises(ProtocolError, match="record_size"):
        _pair(record_size=record_size)


def test_channel_smallest_legal_record_size_roundtrips():
    client, server = _pair(record_size=5)   # 1 payload byte per record
    msg = b"tiny-but-legal"
    wire = client.seal(msg)
    assert len(wire) == len(msg) * (5 + 32)
    assert server.open(wire) == msg
    # empty messages still emit exactly one padded record
    client2, server2 = _pair(record_size=5)
    assert server2.open(client2.seal(b"")) == b""


def test_channel_wire_length_depends_only_on_record_count():
    client, _ = _pair(record_size=128)
    assert client.wire_length(1) == client.wire_length(100)
    assert client.wire_length(1) < client.wire_length(5000)


@given(msg=st.binary(max_size=1000))
def test_channel_roundtrip_property(msg):
    client, server = _pair(record_size=96)
    assert server.open(client.seal(msg)) == msg


# -- golden bytes (generated with the scalar kernels, before the fast paths) ----

_GOLDEN_SIG = bytes.fromhex(
    "d06328f4605ba4a334261227abf440bb2bd515fddd0b63e21b52590c2801a01c"
    "685a0e7d73b520da88359a3858f359fc1265e6b34368d2ee7897de7abde32197"
    "7fffffffffffffffe487ed5110b4611a62633145c06e0e68948127044533e63a"
    "0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1b"
    "a7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6"
    "f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82"
    "c5b1eb0351f739504d4a50ada78ea59b54340c70079684a6a4f8f06d59887daa"
    "9e789bee75ddd56ee95e27babe57fc77d4eb7821c25ccc1817a10c8e488fff33"
    "b90adb76877fe3857c2dd7b8c94ced2e046af19ced449d659562d2e18764f016"
    "0fac61695f872318d472ed1016f9865e7f83bd9474e93e79b8a36462d0e0fd85")

_GOLDEN_DH_PUBLIC = bytes.fromhex(
    "02c99621b7eb02d62a4c0a4467132059a3e73b2412d676f448ede4620ab7bf84"
    "0e3bc55f908238682657e35ce200da621aa866aa194794af73667869c96f15a3"
    "2f0cb7326c18e1be6a850e7626e4f6ad606133e9d3cff65fe7c4ce21144f7346"
    "19e7632e3dac46a256538a290ffea80747b66b40cac5523632d800d723afcd61"
    "b3cec8efabdee39d26acc6c8c52506aef44d7d0d8070c4df30d13903c663027b"
    "6ab8f07f603a2d69255b8c223b77b20b52bf3216d4f81fba8e1d1947a611863c"
    "23e2219101348ba55ec4b6bb0c74b1f964b0b29a3e5242f5678323a03f2a0449"
    "1bdbcab1878daa64ee050d0f712d70eb0381e6f663e4d29aedef3334c5844d14")

_GOLDEN_WIRE = bytes.fromhex(
    "69247f23a5d48d6d767b54f28b5677aa9190229bd5f4cb65cfc3d2687cecb2ee"
    "6f7f2641748ce0cfdd9af0e23f6f72751d0d86052e14410218c4fdbea24b99db"
    "4fa3488fb8943077c273cc5bf3b38820bab6ce0ea6d2b197722e2cd3b5f54c6f"
    "1801bb249905f1983d7068310a43dfa26b3a12816d64ac5907da5a5100562a79"
    "c6dc56501fa8348e6a6328a45dbba3eb66052785de5a0a7d99ce9eac6f827678"
    "d8146fde6661cfd21c370e435782909be594c8cb0aad0588c337593a347d75fe"
    "f1f9a61c0eb9b84f8528d66c160a2879c541d6008d1e08550a943fce955f54a1"
    "971bbc256f05208c1d41eeada9644c8374d8a47514d6a9486ec900ee324f412b"
    "4f02b9dbfcc0a94c1cdfa0a68f02ad1db38d50981e69bd48a866045dfe4dda49"
    "6e584a3b1887c43b089b9f5a7dc400fd6fa3ebc6f88ecc5f673666670bf55e6f"
    "4ac6cdb1aad0a958bdae934cdd5034f6ac37267bb5fb088bb3dcbb4e8c8fa5dd"
    "04507310dd78df7d64189967d7c5d3dcf2ed76dd67838236b0b02ad7fe18edf3"
    "96fdc1bb219aec8579de0b4d0d53016bd5285275edefab9560b93389778272b3"
    "87b93c1db29aca9641699edfee67b443231502e22b534fb0c32dfed7e8ba6f29"
    "42ccfc53ccc5dfecca900cf6268d20daadd69f0673ecb06d413680ac46d2799e"
    "c3140c54e31b22ba29146005576aec05c527f2e765297be878349b544db99b97"
    "6a784b34ebd01063c7829cf54f6ef85a3e4bc8e4de8adf549a336b5b9eb048ed"
    "bddf6514dbacaa26682e8e99f0146e03b9aa33d1bcba8c005eba01b34c03a571"
    "4cbe8d631dc3e7d148fd6150691e161ea5c45207c806a363908eebfad6745398"
    "4f9a58a32a20a5f2c8b35338b2c0f247ad1304b655e4c28c869566f3a01a1327"
    "f6dc53fccd0cb149a8474b29fb24b6cf65d75d00")


def test_golden_seeded_signature():
    assert SigningKey(b"golden-signer").sign(b"golden message") == \
        _GOLDEN_SIG


def test_golden_seeded_dh_public():
    assert DHKeyPair(b"golden-dh").public_bytes() == _GOLDEN_DH_PUBLIC


def test_golden_channel_wire_stream():
    keys = derive_channel_keys(b"\x42" * 32, b"golden-transcript",
                               "client")
    client = SecureChannel(*keys, record_size=100, rekey_after=3)
    wire = client.seal(bytes(range(150))) + client.seal(b"golden" * 40)
    assert client.rekeys == 1
    assert wire == _GOLDEN_WIRE


# -- the per-record call contract the benchmark tracer relies on --------------

def test_seal_and_open_call_chacha_once_per_record(monkeypatch):
    # The tracer counts one call per record and the record body's
    # bytes from the third positional argument.
    calls = []
    real = channel_module.chacha20_xor

    def counting(*args, **kwargs):
        assert not kwargs and len(args) == 3
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(channel_module, "chacha20_xor", counting)
    client, server = _pair(record_size=64)
    message = bytes(range(200))            # four 60-byte payload records
    wire = client.seal(message)
    records = [wire[i:i + 64] for i in range(0, len(wire), 64 + 32)]
    assert len(records) == 4 and len(calls) == 4
    assert all(len(body) == 64 for body in calls)
    assert b"".join(body[4:4 + struct.unpack_from("<I", body)[0]]
                    for body in calls) == message
    calls.clear()
    assert server.open(wire) == message
    assert calls == records


def test_every_benchmark_probe_target_resolves():
    from perfbench.spans import PROBES, _resolve
    for probe in PROBES:
        owner, attr = _resolve(probe.target)
        assert attr in vars(owner), probe.target
