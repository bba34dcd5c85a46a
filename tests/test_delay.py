"""Cross-correlation lag estimation and token-scale delay priors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chirp
from dema import delay
from dema.delay import (MIN_OVERLAP, DelayPriors, default_max_lag,
                        delay_matrix, token_shift, xcorr_delay)
from dema.errors import ContractError, NumericError


def brute_force_lag(a, b, max_lag):
    """Independent oracle: exhaustive Pearson search with the stated ties."""
    best = None
    for t in sorted(range(-max_lag, max_lag + 1), key=lambda t: (abs(t), t > 0)):
        if t >= 0:
            xa, xb = a[: a.size - t], b[t:]
        else:
            xa, xb = a[-t:], b[: b.size + t]
        if xa.size < 4 or xa.std() == 0 or xb.std() == 0:
            continue
        rho = float(np.corrcoef(xa, xb)[0, 1])
        if best is None or abs(rho) > abs(best[1]):
            best = (t, rho)
    return best


def test_self_correlation(rng):
    a = rng.standard_normal(64)
    est = xcorr_delay(a, a, 8)
    assert est.tau == 0 and abs(est.rho - 1.0) <= 1e-12


def test_chirp_delay_three_steps():
    a = chirp(128)
    b = np.roll(a, 3)
    est = xcorr_delay(a, b, 10)
    oracle = brute_force_lag(a, b, 10)
    assert est.tau == oracle[0] == 3
    assert est.rho >= 0.999


def test_anticorrelation():
    a = chirp(96)
    est = xcorr_delay(a, -a, 8)
    assert est.tau == 0 and abs(est.rho + 1.0) <= 1e-12


def test_agrees_with_brute_force(rng):
    for _ in range(25):
        a = rng.standard_normal(80)
        b = rng.standard_normal(80)
        est = xcorr_delay(a, b, 12)
        tau, rho = brute_force_lag(a, b, 12)
        assert est.tau == tau
        assert abs(est.rho - rho) <= 1e-10


def test_degenerate_constant_series():
    est = xcorr_delay(np.full(32, 2.0), np.arange(32.0), 4)
    assert est == (0, 0.0)


def test_constant_series_with_rounded_mean_gets_no_pair(rng):
    # np.full(96, 0.1).std() is 1.4e-17, not 0: the rule must be max == min
    window = np.stack([rng.standard_normal(96), np.full(96, 0.1),
                       np.full(96, 0.3)])
    assert window[1].std() > 0
    priors = delay_matrix(window, 24, 8)
    # every off-diagonal pair has a constant row: no active pair
    assert np.all((priors.rho_weights() > 0) == np.eye(3, dtype=bool))
    for a in range(3):
        for b in range(3):
            if a != b:
                est = xcorr_delay(window[a], window[b], 24)
                assert est == (0, 0.0)
                assert (priors.tau[a, b], priors.rho[a, b]) == est[:2]


def test_input_contract_errors():
    with pytest.raises(ContractError):
        xcorr_delay(np.ones(8), np.ones(9), 2)
    with pytest.raises(ContractError):
        xcorr_delay(np.ones(3), np.ones(3), 1)
    with pytest.raises(ContractError):
        xcorr_delay(np.ones(8), np.ones(8), 8)


@pytest.mark.parametrize("tau,P,expected", [
    (0, 8, 0),
    (12, 8, 2),    # 1.5 rounds away from zero
    (-9, 8, -1),   # -1.125 rounds toward -1
    (4, 8, 1),     # 0.5 rounds away from zero
    (-4, 8, -1),
    (-12, 8, -2),
    (3, 8, 0),
    (8, 8, 1),
    (7, 2, 4),     # 3.5 -> 4
])
def test_token_shift_cases(tau, P, expected):
    assert token_shift(tau, P) == expected


def test_token_shift_matches_round_half_away(rng):
    for _ in range(50):
        tau = int(rng.integers(-40, 41))
        P = int(rng.integers(1, 12))
        q = tau / P
        ref = int(np.sign(q) * np.floor(abs(q) + 0.5))
        assert token_shift(tau, P) == ref
    with pytest.raises(ContractError, match="patch length"):
        token_shift(3, 0)


def test_delay_matrix_single_variate(rng):
    priors = delay_matrix(rng.standard_normal((1, 64)), 8, 8)
    assert priors.tau.shape == (1, 1)
    assert priors.tau[0, 0] == 0
    assert priors.rho[0, 0] == 1.0
    assert priors.delta_tok[0, 0] == 0


def test_delay_matrix_duplicate_variates(rng):
    a = rng.standard_normal(64)
    priors = delay_matrix(np.stack([a, a]), 8, 8)
    assert priors.tau[0, 1] == priors.tau[1, 0] == 0
    assert abs(priors.rho[0, 1] - 1.0) <= 1e-12


def test_delay_matrix_three_chirps():
    base = chirp(200)
    window = np.stack([base, np.roll(base, 2), np.roll(base, 5)])
    priors = delay_matrix(window, 10, 8)
    expected_tau = np.array([[0, 2, 5], [-2, 0, 3], [-5, -3, 0]])
    np.testing.assert_array_equal(priors.tau, expected_tau)
    assert np.all(priors.rho >= 0.99)


def test_delay_matrix_ties_rotated_overlaps_like_the_oracle():
    # at lags -1 and +1 the overlaps are two rotations of one period: equal
    # |rho| in exact arithmetic, so rounding picks the lag in both paths
    cycle = np.array([0.2782399, 0.95168849, -1.51335912, 0.02871836])
    window = np.stack([np.resize(cycle, 5), np.resize(np.roll(cycle, -2), 5)])
    got = delay_matrix(window, 1, 1)
    for a, b in ((0, 1), (1, 0)):
        est = xcorr_delay(window[a], window[b], 1)
        assert (got.tau[a, b], got.rho[a, b]) == (est.tau, est.rho)


@st.composite
def delay_windows(draw):
    """A window [N, T], a lag bound and a patch length for delay_matrix.

    Rows mix noise with the cases the oracle's rules decide: constant
    series (max == min, so every lag is skipped), copies of
    one base (duplicated, sign-flipped or scaled by a power of two),
    series with one common period of 2 to 6 (tied peaks at every aligned
    lag) and coarsely rounded noise (many repeated values). Where the
    overlaps are the same numbers up to sign and a power of two, both
    paths give |rho| = 1 exactly and the tie-break order alone decides.
    Where they are different numbers with equal |rho| in exact arithmetic
    (rotations of one period), rounding decides, the same way in both,
    as both take the same pairwise sums. Constants are multiples of 1/10,
    most of whose means round (a spread of 1e-17 around the constant).
    """
    n = draw(st.integers(1, 5))
    length = draw(st.integers(MIN_OVERLAP, 40))
    # often near the largest lag with any overlap of MIN_OVERLAP points
    max_lag = draw(st.one_of(
        st.integers(0, length - 1),
        st.integers(max(0, length - MIN_OVERLAP - 1), length - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.standard_normal(length)
    period = draw(st.integers(2, 6))
    cycle = np.resize(rng.standard_normal(period), length + period)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["noise", "constant", "copy", "periodic", "coarse"]))
        scale = draw(st.sampled_from([1.0, -1.0, 2.0, -0.5]))
        if kind == "noise":
            rows.append(rng.standard_normal(length))
        elif kind == "constant":
            rows.append(np.full(length, draw(st.integers(-8, 8)) / 10))
        elif kind == "copy":
            rows.append(scale * base)
        elif kind == "periodic":
            start = draw(st.integers(0, period - 1))
            rows.append(scale * cycle[start:start + length])
        else:
            rows.append(np.round(2 * rng.standard_normal(length)) / 2)
    return np.stack(rows), max_lag, draw(st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(delay_windows())
def test_delay_matrix_matches_pairwise_oracle_property(case):
    window, max_lag, P = case
    got = delay_matrix(window, max_lag, P)
    n = len(window)
    for a in range(n):
        for b in range(n):
            if a == b:
                assert (got.tau[a, a], got.rho[a, a], got.delta_tok[a, a]) \
                    == (0, 1.0, 0)
                continue
            est = xcorr_delay(window[a], window[b], max_lag)
            assert got.tau[a, b] == est.tau, (a, b)
            assert got.delta_tok[a, b] == token_shift(est.tau, P), (a, b)
            assert abs(got.rho[a, b] - est.rho) <= 1e-15, (a, b)
    # a batch of windows gives each window's priors bit for bit
    batch = np.stack([window, window[::-1], -window])
    many = delay_matrix(batch, max_lag, P)
    for g in range(len(batch)):
        one = delay_matrix(batch[g], max_lag, P)
        for name in ("tau", "rho", "delta_tok"):
            np.testing.assert_array_equal(getattr(many, name)[g],
                                          getattr(one, name))


def assert_oracle_priors(window, max_lag, P=8):
    """delay_matrix of a window [N, T] or a batch [G, N, T] gives each pair
    the oracle's lag and rho (to 1e-15) and its token shift."""
    got = delay_matrix(window, max_lag, P)
    batch = np.reshape(window, (-1,) + np.shape(window)[-2:])
    tau, rho, delta = (np.reshape(x, (len(batch),) + x.shape[-2:])
                       for x in (got.tau, got.rho, got.delta_tok))
    for g, w in enumerate(batch):
        for a in range(len(w)):
            for b in range(len(w)):
                if a == b:
                    assert (tau[g, a, a], rho[g, a, a]) == (0, 1.0)
                    continue
                est = xcorr_delay(w[a], w[b], max_lag)
                assert tau[g, a, b] == est.tau, (g, a, b)
                assert abs(rho[g, a, b] - est.rho) <= 1e-15, (g, a, b)
                assert delta[g, a, b] == token_shift(est.tau, P), (g, a, b)


def lagged_copies(rng, n, length, lags, noise=0.3):
    """[n, length]: noisy copies of one smooth base, variate i lagged by
    lags[i] steps."""
    pad = max(abs(t) for t in lags)
    base = np.convolve(rng.standard_normal(length + 2 * pad + 8),
                       np.ones(9) / 9, mode="valid")
    return np.stack([base[pad - t:pad - t + length] for t in lags]) \
        + noise * rng.standard_normal((n, length))


def test_screen_with_cancelling_prefix_sums(rng):
    # 1e8 + 1e-6 noise: the prefix sums of the raw values would cancel
    # all but a few digits; the oracle's own means are off by far more
    # than the FFT's rounding, so most lags stay candidates
    assert_oracle_priors(1e8 + 1e-6 * lagged_copies(rng, 3, 60, [0, 2, -3]),
                         12)
    # without the oracle's mean error in the bound, two pairs of these
    # windows would get another lag than the oracle's
    noise = np.random.default_rng(2).standard_normal((60, 3, 64))
    assert_oracle_priors(1e8 + 1e-6 * noise, 8)


def test_screen_with_overlaps_constant_at_some_lags_only(rng):
    # constant but for one point: the overlaps that miss the point are
    # constant and skipped, the others have a small spread
    spike = np.full(40, 0.1)
    spike[3] = 2.0
    late = np.full(40, -0.3)
    late[36] = 0.7
    window = np.stack([spike, late, rng.standard_normal(40), spike[::-1]])
    assert_oracle_priors(window, 36)
    assert_oracle_priors(window, 10)


@pytest.mark.parametrize("period", [2, 3])
def test_screen_ties_periodic_rows_like_the_oracle(rng, period):
    # each pair's |rho| ties at every lag of a period: all stay candidates
    # and the oracle's order picks among them
    cycle = rng.standard_normal(period)
    window = np.stack([np.resize(np.roll(cycle, s), 50) * f
                       for s, f in ((0, 1.0), (1, -1.0), (period - 1, 2.0))])
    window = np.concatenate([window, rng.standard_normal((1, 50))])
    assert_oracle_priors(window, 20)


@pytest.mark.parametrize("length", [MIN_OVERLAP, 9, 33])
def test_screen_at_the_extreme_lag_bounds(rng, length):
    window = np.concatenate([lagged_copies(rng, 3, length, [0, 1, -2]),
                             np.round(rng.standard_normal((2, length)))])
    assert_oracle_priors(window, length - MIN_OVERLAP)
    assert_oracle_priors(window, 0)


def test_screen_batch_with_different_candidates_per_window(rng):
    # noise (one candidate per pair), periodic rows (ties at many lags) and
    # a large offset (most lags) in one batch: each window as on its own
    noise = rng.standard_normal((4, 48))
    periodic = np.stack([np.resize(rng.standard_normal(3), 48)
                         for _ in range(4)])
    offset = 1e8 + 1e-6 * rng.standard_normal((4, 48))
    batch = np.stack([noise, periodic, offset])
    lags = np.arange(-12, 13)
    valid, r, w = delay._screen(batch, lags)
    lo = np.where(valid, r - w, -np.inf)
    cands = (valid & (r + w >= lo.max(axis=-1, keepdims=True))).sum(
        axis=(1, 2, 3))
    assert cands[0] == 12 < cands[1] < cands[2]
    assert_oracle_priors(batch, 12)


def test_screen_at_long_window_shape(rng):
    # the lookback 720 and lag bound 180 of long-horizon inference
    window = lagged_copies(rng, 7, 720, [0, 5, -12, 40, -90, 170, 3])
    window[3] *= -1
    assert_oracle_priors(window, 180)


def test_delay_matrix_overflow_and_underflow_like_the_oracle(rng):
    # 1e200 squared overflows: where both overlaps hold a 1e200 (lag 0
    # only) rho is inf / inf = NaN, and the oracle keeps that first lag, as
    # nothing compares greater than NaN; 1e-170 squared underflows to 0, so
    # every rho of that row is 0 and the first lag wins
    window = rng.standard_normal((4, 30))
    window[:2, 0] = 1e200
    window[2] *= 1e-170
    with np.errstate(over="ignore", invalid="ignore"):
        got = delay_matrix(window, 8, 4)
        for a in range(4):
            for b in range(4):
                if a != b:
                    est = xcorr_delay(window[a], window[b], 8)
                    assert got.tau[a, b] == est.tau, (a, b)
                    np.testing.assert_array_equal(got.rho[a, b], est.rho)
    assert np.isnan(got.rho[0, 1]) and got.tau[0, 1] == 0
    assert got.rho[2, 3] == 0.0 and got.tau[2, 3] == 0


def test_screen_interval_holds_the_oracle_rho(rng):
    # the bound in delay._screen's docstring: the oracle's |rho| at every
    # valid lag lies within the width of the screen's value
    windows = [rng.standard_normal((3, 70)),
               1e8 + 1e-6 * rng.standard_normal((3, 70)),
               1e5 * np.cumsum(rng.standard_normal((3, 70)), axis=-1),
               np.round(3 * rng.standard_normal((3, 70))),
               1e-3 * rng.standard_normal((3, 70)) + 1e4]
    lags = np.arange(-30, 31)
    for window in windows:
        valid, r, w = delay._screen(window[None], lags)
        for _, a, b, i in zip(*np.nonzero(valid)):
            t = lags[i]
            xa, xb = ((window[a, :70 - t], window[b, t:]) if t >= 0
                      else (window[a, -t:], window[b, :70 + t]))
            assert abs(abs(delay._pearson(xa, xb)) - r[0, a, b, i]) \
                <= w[0, a, b, i]


def test_delay_matrix_names_a_non_finite_cell(rng):
    # one NaN would spread over every lag of its row in the FFT
    batch = rng.standard_normal((3, 4, 40))
    batch[2, 1, 17] = np.nan
    with pytest.raises(NumericError,
                       match="window 2, variate 1, time step 17"):
        delay_matrix(batch, 6, 8)
    batch[2, 1, 17] = -np.inf
    with pytest.raises(NumericError,
                       match="window 0, variate 1, time step 17"):
        delay_matrix(batch[2], 6, 8)


def test_delay_matrix_batch_shapes(rng):
    priors = delay_matrix(rng.standard_normal((2, 3, 4, 40)), 6, 8)
    for arr in (priors.tau, priors.rho, priors.delta_tok):
        assert arr.shape == (2, 3, 4, 4)
    assert priors.n_variates == 4


def test_delay_matrix_input_contract_errors(rng):
    # the oracle's limits hold for one variate too, where no pair is searched
    with pytest.raises(ContractError):
        delay_matrix(rng.standard_normal((1, 8)), 8, 8)
    with pytest.raises(ContractError):
        delay_matrix(rng.standard_normal((2, 3)), 1, 8)
    with pytest.raises(ContractError):
        delay_matrix(rng.standard_normal((2, 16)), 4, 0)


def test_rho_weights_clamped():
    priors = DelayPriors(tau=np.zeros((2, 2), dtype=np.int64),
                         rho=np.array([[1.0, -0.4], [1.7, 1.0]]),
                         delta_tok=np.zeros((2, 2), dtype=np.int64), max_lag=4)
    np.testing.assert_array_equal(priors.rho_weights(),
                                  [[1.0, 0.0], [1.0, 1.0]])


def test_identity_priors():
    priors = DelayPriors.identity(3)
    np.testing.assert_array_equal(priors.rho, np.eye(3))
    np.testing.assert_array_equal(priors.tau, 0)
    np.testing.assert_array_equal(priors.delta_tok, 0)


def test_default_max_lag():
    assert default_max_lag(96) == 24
    assert default_max_lag(8) == 2
    assert default_max_lag(5) == 1
