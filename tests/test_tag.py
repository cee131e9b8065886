import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsbs.tag import (
    CODE_LENGTH,
    GoldCodeSet,
    LfsrSpec,
    OokSchedule,
    PREFERRED_TAPS_A,
    PREFERRED_TAPS_B,
    REPEATS,
    encode_repetition,
    generate_gold_set,
    generate_m_sequence,
    ook_state,
)

# Output of the degree-5 register with feedback exponents {5,2,0}, seeded with
# all ones, computed independently via the recurrence a[k+5] = a[k] ^ a[k+2].
EXPECTED_BITS_A = [
    1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1,
    0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0,
]


def reference_bits_a():
    bits = [1, 1, 1, 1, 1]
    for k in range(CODE_LENGTH - 5):
        bits.append(bits[k] ^ bits[k + 2])
    return bits


def brute_cyclic_corr(a, b, lag):
    n = len(a)
    return sum(int(a[i]) * int(b[(i + lag) % n]) for i in range(n))


class TestMSequence:
    def test_known_bit_pattern(self):
        assert reference_bits_a() == EXPECTED_BITS_A
        seq = generate_m_sequence(LfsrSpec(taps=PREFERRED_TAPS_A))
        expected = np.array([1 - 2 * b for b in EXPECTED_BITS_A])
        np.testing.assert_array_equal(seq, expected)

    @settings(max_examples=31, deadline=None)
    @given(seed_int=st.integers(min_value=1, max_value=31))
    def test_balance_any_seed(self, seed_int):
        seed = tuple((seed_int >> i) & 1 for i in range(5))
        seq = generate_m_sequence(LfsrSpec(taps=PREFERRED_TAPS_A, seed=seed))
        counts = sorted((int(np.sum(seq == 1)), int(np.sum(seq == -1))))
        assert counts == [15, 16]

    def test_autocorrelation_two_valued(self):
        seq = generate_m_sequence(LfsrSpec(taps=PREFERRED_TAPS_A))
        assert brute_cyclic_corr(seq, seq, 0) == 31
        for lag in range(1, 31):
            assert brute_cyclic_corr(seq, seq, lag) == -1, f"lag {lag}"

    def test_non_primitive_polynomial_rejected(self):
        # x^5 + x + 1 factors, so its register period is not 31
        with pytest.raises(ValueError, match="primitive"):
            LfsrSpec(taps=(5, 1, 0))

    def test_exactly_the_primitive_tap_sets_pass(self):
        """Of the 16 degree-5 tap sets with constant term, the 6 primitive ones pass from every seed."""
        passing = {}
        for mask in range(16):
            taps = (5, *(t for t in (4, 3, 2, 1) if mask >> (t - 1) & 1), 0)
            for seed_int in range(1, 32):
                seed = tuple((seed_int >> i) & 1 for i in range(5))
                try:
                    LfsrSpec(taps=taps, seed=seed)
                except ValueError:
                    continue
                passing[taps] = passing.get(taps, 0) + 1
        assert passing == {
            taps: 31
            for taps in [(5, 2, 0), (5, 3, 0), (5, 3, 2, 1, 0), (5, 4, 2, 1, 0),
                         (5, 4, 3, 1, 0), (5, 4, 3, 2, 0)]
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(taps=(4, 1, 0)),  # wrong degree
            dict(taps=(5, 2)),  # missing constant term
            dict(taps=PREFERRED_TAPS_A, seed=(0, 0, 0, 0, 0)),
            dict(taps=PREFERRED_TAPS_A, seed=(1, 1)),
            dict(taps=PREFERRED_TAPS_A, seed=(1, 2, 0, 0, 0)),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LfsrSpec(**kwargs)


class TestGoldSet:
    def test_family_size(self, gold_set):
        assert gold_set.n_codes == 33
        assert gold_set.codes.shape == (33, 31)
        assert gold_set.labels == tuple(range(33))

    def test_pairwise_distinct(self, gold_set):
        rows = {tuple(int(x) for x in code) for code in gold_set.codes}
        assert len(rows) == 33

    def test_cross_correlation_three_valued(self, gold_set):
        values = set()
        for i in range(33):
            for j in range(33):
                if i == j:
                    continue
                for lag in range(31):
                    values.add(brute_cyclic_corr(gold_set.codes[i], gold_set.codes[j], lag))
        assert values <= {-9, -1, 7}

    def test_lag_zero_autocorrelation(self, gold_set):
        for code in gold_set.codes:
            assert brute_cyclic_corr(code, code, 0) == 31

    def test_non_preferred_pair_rejected(self):
        # x^5 + x^3 + 1 is primitive but not preferred with x^5 + x^2 + 1
        with pytest.raises(ValueError, match="not preferred"):
            generate_gold_set(LfsrSpec(taps=(5, 2, 0)), LfsrSpec(taps=(5, 3, 0)))

    def test_identical_pair_rejected(self):
        spec = LfsrSpec(taps=PREFERRED_TAPS_A)
        with pytest.raises(ValueError):
            generate_gold_set(spec, spec)

    def test_code_id_bounds(self, gold_set):
        with pytest.raises(ValueError):
            gold_set.code(33)
        with pytest.raises(ValueError):
            gold_set.code(-1)

    def test_malformed_set_rejected(self):
        with pytest.raises(ValueError):
            GoldCodeSet(codes=np.zeros((33, 31)), labels=tuple(range(33)))


class TestRepetition:
    def test_tiny_example(self):
        msg = encode_repetition(np.array([1, -1]), v=3)
        assert msg.dtype == np.int8
        np.testing.assert_array_equal(msg, [1, 1, 1, -1, -1, -1])

    def test_v_one_is_identity(self, gold_set):
        code = gold_set.code(4)
        msg = encode_repetition(code, v=1)
        np.testing.assert_array_equal(msg, code)

    def test_standard_length_and_duration(self, gold_set):
        msg = encode_repetition(gold_set.code(0), v=REPEATS)
        assert msg.size == 217
        schedule = OokSchedule.for_message(v=REPEATS, n=CODE_LENGTH)
        assert schedule.message_duration == 2.17

    def test_invalid_v_rejected(self):
        with pytest.raises(ValueError):
            encode_repetition(np.array([1, -1]), v=0)

    def test_indexing_matches_definition(self, gold_set):
        code = gold_set.code(9)
        msg = encode_repetition(code, v=REPEATS)
        for n in range(1, CODE_LENGTH + 1):
            for q in range(1, REPEATS + 1):
                assert msg[q + (n - 1) * REPEATS - 1] == code[n - 1]

    @settings(max_examples=40, deadline=None)
    @given(
        chips=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40),
        v=st.integers(min_value=1, max_value=9),
    )
    def test_majority_decode_round_trip(self, chips, v):
        code = np.array(chips, dtype=np.int8)
        msg = encode_repetition(code, v=v)
        runs = msg.reshape(code.size, v)
        decoded = np.sign(runs.sum(axis=1))
        np.testing.assert_array_equal(decoded, code)


class TestOokState:
    @pytest.fixture()
    def message(self, gold_set):
        return encode_repetition(gold_set.code(2), v=REPEATS)

    def test_first_period_state(self, message):
        expected = 1.0 if message[0] > 0 else 0.0
        assert ook_state(message, 0) == expected

    def test_periodicity(self, message):
        assert ook_state(message, 217) == ook_state(message, 0)
        assert ook_state(message, 500) == ook_state(message, 500 % 217)

    def test_two_full_cycles(self, message):
        states = [ook_state(message, k) for k in range(2 * 217)]
        assert set(states) == {0.0, 1.0}
        assert states[:217] == states[217:]
        as_samples = np.array([1 if b == 1.0 else -1 for b in states[:217]])
        np.testing.assert_array_equal(as_samples, message)

    def test_negative_period_rejected(self, message):
        with pytest.raises(ValueError):
            ook_state(message, -1)

    def test_total_variation_bounded_by_code_transitions(self, gold_set):
        # chips are held for v periods, so state changes only at chip edges
        code = gold_set.code(13)
        msg = encode_repetition(code, v=REPEATS)
        states = [ook_state(msg, k) for k in range(msg.size)]
        changes = sum(1 for a, b in zip(states, states[1:]) if a != b)
        code_transitions = int(np.sum(code[:-1] != code[1:]))
        assert changes <= code_transitions
        assert changes == code_transitions


def test_schedule_defaults():
    sched = OokSchedule()
    assert sched.bit_duration == 0.01
    assert sched.message_duration == 2.17
