import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsbs.srs import (
    ZcConfig,
    extend_to_srs,
    generate_zc_base,
    is_prime,
    make_srs_symbol,
)


def brute_force_cyclic_autocorr(seq, lag):
    n = len(seq)
    return sum(seq[i] * seq[(i + lag) % n].conjugate() for i in range(n))


class TestZcBase:
    def test_element_zero_is_one(self):
        base = generate_zc_base(ZcConfig(root=1, base_length=139))
        assert base[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_matches_phase_formula(self):
        cfg = ZcConfig(root=25, base_length=139)
        base = generate_zc_base(cfg)
        for m in (0, 1, 7, 70, 138):
            expected = cmath.exp(-1j * cmath.pi * cfg.root * m * (m + 1) / cfg.base_length)
            assert base[m] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(root=st.integers(min_value=1, max_value=138))
    def test_unit_modulus_any_root(self, root):
        base = generate_zc_base(ZcConfig(root=root, base_length=139))
        assert np.max(np.abs(np.abs(base) - 1.0)) < 1e-12

    def test_cyclic_autocorrelation_ideal(self):
        base = generate_zc_base(ZcConfig(root=1, base_length=139))
        n = base.size
        for lag in range(1, n):
            value = brute_force_cyclic_autocorr(list(base), lag)
            assert abs(value) / n < 1e-9, f"lag {lag}"
        peak = brute_force_cyclic_autocorr(list(base), 0)
        assert abs(peak) / n == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(root=1, base_length=140),  # not prime
            dict(root=0, base_length=139),
            dict(root=139, base_length=139),
            dict(root=1, base_length=139, target_length=100),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ZcConfig(**kwargs)

    def test_is_prime(self):
        assert is_prime(139)
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(144)


class TestExtension:
    def test_cyclic_tail(self):
        base = generate_zc_base(ZcConfig())
        ext = extend_to_srs(base, 144)
        assert ext.size == 144
        np.testing.assert_array_equal(ext[139:], base[:5])

    def test_identity_when_equal_length(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(extend_to_srs(base, 4), base)

    def test_modulus_inherited(self):
        symbol = make_srs_symbol()
        assert symbol.shape == (144,)
        assert np.max(np.abs(np.abs(symbol) - 1.0)) < 1e-12

    def test_target_too_short_rejected(self):
        with pytest.raises(ValueError):
            extend_to_srs(np.ones(10), 9)

    @settings(max_examples=30, deadline=None)
    @given(
        base_len=st.integers(min_value=1, max_value=20),
        extra=st.integers(min_value=0, max_value=50),
    )
    def test_matches_modular_indexing(self, base_len, extra):
        base = np.arange(base_len, dtype=float)
        target = base_len + extra
        ext = extend_to_srs(base, target)
        for n in range(target):
            assert ext[n] == base[n % base_len]


class TestSrsSymbol:
    def test_wrong_length_rejected(self):
        # the pilot always holds exactly 144 subcarrier values
        with pytest.raises(ValueError, match="144"):
            ZcConfig(target_length=150)
