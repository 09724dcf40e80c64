import pytest

from perfbench import reference


def test_checksum_reference():
    assert reference.checksum(b"\x01\x02\xff") == ([258], [b"\x02"])
    assert reference.checksum(b"") == ([0], [b"\x00"])


def test_filter_score_agg_by_hand():
    # kept: 'A'(65) 'B'(66); scores 65, (65*31+66) % 251 = 73
    assert reference.filter_score_agg(b"aA-B\x80") == \
        (bytes([138, 0, 73, 2]), [138])
    assert reference.filter_score_agg(b"abc") == (bytes(4), [0])


def test_filter_score_agg_carries_into_high_byte():
    out, reports = reference.filter_score_agg(b"Z" * 64)
    total = reports[0]
    assert total > 255
    assert out[0] + 256 * out[1] == total
    assert out[3] == 64


def test_kernel_ok():
    assert reference.kernel_ok([1, 5], [1, 5])
    assert not reference.kernel_ok([0, 5], [0, 5])
    assert not reference.kernel_ok([1, 6], [1, 5])
    assert not reference.kernel_ok([], [])


def test_verdicts_per_variant():
    from perfbench.workloads import VARIANTS
    assert {name for name, *_ in VARIANTS} == set(reference.VERDICTS)


# The references must agree with the program they check.  These tests
# run the program; the benchmark never does so to build a reference.

def test_checksum_matches_the_session_program():
    from repro.compiler.frontend import compile_source
    from repro.core.bootstrap import BootstrapEnclave
    from repro.service.faults import CAMPAIGN_SRC
    data = bytes(range(200, 250))
    boot = BootstrapEnclave()
    boot.receive_binary(compile_source(CAMPAIGN_SRC).serialize())
    boot.receive_userdata(data)
    outcome = boot.run()
    assert (outcome.reports, outcome.sent_plaintext) == \
        reference.checksum(data)


@pytest.mark.parametrize("record", [
    b"ACGT" * 16 + bytes(range(128, 192)),
    bytes(range(256))[:128],
])
def test_filter_score_agg_matches_serial_oracle(record):
    from repro.service.pipeline import serial_oracle, topology_stages
    output, reports = serial_oracle(topology_stages("filter-score-agg"),
                                    record)
    assert (output, reports) == reference.filter_score_agg(record)
