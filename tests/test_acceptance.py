"""Acceptance gate: every numbered criterion runs at its stated
tolerance and prints one pass/fail line (visible with pytest -s).

Each criterion's line is pinned in full, so its seeded counts, its
tolerances' measured values and criterion 8's mean message length
(which reads criterion 6's messages) cannot drift unnoticed."""

import pytest

from cplab import encoding_game
from cplab.acceptance import CRITERIA, AcceptanceSuite, _artificial_game_trial

EXPECTED_LINES = {
    1: "PASS criterion 1 (fibonacci-area-bounds): m=13: 0/8281 violations; "
    "m=21: 0/53361 violations; m=34: 0/354025 violations; "
    "m=55: 0/2371600 violations; m=89: 0/16040025 violations",
    2: "PASS criterion 2 (query-family-suffix-independence): 0 violations over "
    "10000 sampled subsets (5 seeds, k in {8,16})",
    3: "PASS criterion 3 (finite-field-round-trip): 0 failures over 1000 random "
    "full-rank systems mod 9973",
    4: "PASS criterion 4 (oracle-equivalence): 0 mismatches, 0 probe-bound "
    "violations over 10 seeds x (500 inserts + 500 queries), n=64",
    5: "PASS criterion 5 (chronogram-exactness): 0 profile mismatches, 0 total "
    "mismatches over 5 seeds x 100 queries (n=25, beta=5)",
    6: "PASS criterion 6 (encode-decode-artificial): 100/100 exact recoveries "
    "(flag0=50, flag1=50, fallbacks=0; n=25, beta=5, istar=2)",
    7: "PASS criterion 7 (encode-decode-orc): 25/25 exact recoveries with replay "
    "integrity (n=440, beta=5, snapped epochs, fallbacks=0)",
    8: "PASS criterion 8 (information-floor): mean=1031.0 bits vs 0.95*H=352.9; "
    "all flag-1 messages >= H=371.5: True",
    9: "PASS criterion 9 (crossing-out-independence): 100/100 full-rank survivor "
    "sets, 100/100 size bounds (epoch size 55, n=440)",
    10: "PASS criterion 10 (answer-decomposition): 0 mismatches over 10000 random "
    "queries (5 seeded runs, n=440)",
    11: "PASS criterion 11 (well-separated-frequency): n=440,beta=5,m=55: 0.000 vs "
    "oracle 0.000; n=1024,beta=64,m=512: 0.335 vs oracle 0.326; "
    "n=1024,beta=81,m=405: 0.525 vs oracle 0.535 (3/4 reported, not asserted)",
}


@pytest.fixture(scope="module")
def suite(request):
    """One suite for the module's criterion tests. A session that selects
    just one of them plans only its criterion, so that criterion's trials
    do not wait behind the whole queue; criterion 8 still reads criterion
    6's games, which its suite queues on demand."""
    selected = [
        item.name
        for item in request.session.items
        if item.module is request.module and item.name.startswith("test_criterion_")
    ]
    only = CRITERIA[int(selected[0].split("_")[2]) - 1][0] if len(selected) == 1 else None
    suite = AcceptanceSuite(only)
    yield suite
    suite.close()


def _check(result):
    print(result.line())
    assert result.passed, result.line()
    assert result.line() == EXPECTED_LINES[result.number]


def test_criterion_01_fibonacci_area_bounds(suite):
    _check(suite.fibonacci_area_bounds())


def test_criterion_02_query_family_suffix_independence(suite):
    _check(suite.query_family_independence())


def test_criterion_03_finite_field_round_trip(suite):
    _check(suite.finite_field_round_trip())


def test_criterion_04_oracle_equivalence(suite):
    _check(suite.oracle_equivalence())


def test_criterion_05_chronogram_exactness(suite):
    _check(suite.chronogram_exactness())


def test_criterion_06_encode_decode_artificial(suite):
    _check(suite.encode_decode_artificial())


def test_criterion_07_encode_decode_orc(suite):
    _check(suite.encode_decode_orc())


def test_criterion_08_information_floor(suite):
    _check(suite.information_floor())


def test_criterion_09_crossing_out_independence(suite):
    _check(suite.crossing_out_independence())


def test_criterion_10_answer_decomposition(suite):
    _check(suite.answer_decomposition())


def test_criterion_11_well_separated_frequency(suite):
    _check(suite.well_separated_frequency())


def test_corrupted_message_is_not_a_recovery(monkeypatch):
    # seed 0 plays flag 0; a flipped bit in its first section must count
    # as a failed recovery, not raise out of the trial
    encode = encoding_game.encode_epoch

    def corrupting_encode(*args, **kwargs):
        message = encode(*args, **kwargs)
        first = message.sections[0]
        corrupted = encoding_game.Section(first.label, first.bit_length, first.payload ^ 1)
        message.sections = (corrupted,) + message.sections[1:]
        return message

    assert _artificial_game_trial(0)[:3] == (True, 0, False)
    monkeypatch.setattr(encoding_game, "encode_epoch", corrupting_encode)
    recovered, flag, fallback, _, _ = _artificial_game_trial(0)
    assert (recovered, flag, fallback) == (False, 0, False)


@pytest.mark.parametrize(
    "error, counted",
    [
        (encoding_game.MessageFormatError("message has no section 'x'"), True),
        (encoding_game.DecodingIntegrityError("replay probed outside C"), True),
        (KeyError("x"), False),
    ],
    ids=["message-format", "integrity", "key-error"],
)
def test_only_decoding_errors_count_as_failed_recoveries(monkeypatch, error, counted):
    # no decode path raises KeyError (a missing section is a
    # MessageFormatError), so one is a bug and must leave the trial
    def failing_decode(*args, **kwargs):
        raise error

    monkeypatch.setattr(encoding_game, "decode_epoch", failing_decode)
    if counted:
        assert _artificial_game_trial(0)[:3] == (False, 0, False)
    else:
        with pytest.raises(KeyError):
            _artificial_game_trial(0)
