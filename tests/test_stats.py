"""Statistical-test module: KS against a brute-force ECDF oracle and frozen p-values,
Welch's t against hand-computed values, octile splits, and the two bootstrap-driven
diagnostics (parameter sensitivity, model-pair significance)."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from roughvol import stats
from roughvol.model import PARAM_NAMES, MarketEnv, ModelParams
from roughvol.stats import (
    ks_two_sample,
    octile_grouping,
    sensitivity_analysis,
    significance_test,
    welch_t_test,
)
from roughvol.synth import generate_chain

# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def brute_force_ks(x, y):
    """Sup over all pooled points of |F1 - F2| with right-continuous ECDFs."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    best = 0.0
    for v in np.concatenate([x, y]):
        f1 = np.sum(x <= v) / x.size
        f2 = np.sum(y <= v) / y.size
        best = max(best, abs(f1 - f2))
    return best


def test_ks_statistic_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n1, n2 = rng.integers(1, 40, size=2)
        # integer-valued samples force heavy ties across and within samples
        x = rng.integers(0, 12, size=n1).astype(float)
        y = rng.integers(0, 12, size=n2).astype(float)
        result = ks_two_sample(x, y)
        assert result.statistic == brute_force_ks(x, y)


# Integer-shifted samples of equal size n have D = shift/n exactly, which pins the
# p-value to the Kolmogorov limit law at lambda = sqrt(n/2) * D.
@pytest.mark.parametrize("shift,d,p_expected", [
    (30, 0.4, 1.2288424706656417e-5),
    (15, 0.2, 0.099561848314780287),
    (6, 0.08, 0.97004090260758685),
])
def test_ks_frozen_p_values(shift, d, p_expected):
    x = np.arange(75.0)
    result = ks_two_sample(x, x + shift)
    assert result.statistic == pytest.approx(d, abs=1e-15)
    assert result.p_value == pytest.approx(p_expected, rel=1e-9)


def test_ks_identical_samples():
    x = np.linspace(0.0, 1.0, 50)
    result = ks_two_sample(x, x.copy())
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_ks_disjoint_samples():
    result = ks_two_sample(np.arange(75.0), np.arange(100.0, 175.0))
    assert result.statistic == 1.0
    assert result.p_value < 1e-20


def test_ks_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=30), rng.normal(size=45)
    assert ks_two_sample(x, y).statistic == ks_two_sample(y, x).statistic


def test_ks_invariant_under_increasing_transform():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=25), rng.normal(loc=0.5, size=35)
    a = ks_two_sample(x, y)
    b = ks_two_sample(np.exp(x), np.exp(y))
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value


def test_ks_rejects_empty_sample():
    with pytest.raises(ValueError, match="non-empty"):
        ks_two_sample(np.array([]), np.array([1.0]))


# ---------------------------------------------------------------------------
# Welch's t


def test_welch_frozen_oracle():
    x = [1.1, 2.3, 1.9, 2.8, 0.4]
    y = [1.6, 2.0, 1.5, 2.2]
    r = welch_t_test(x, y)
    assert r.statistic == pytest.approx(-0.2725831346329202, rel=1e-12)
    assert r.dof == pytest.approx(5.1299158521060939, rel=1e-12)
    assert r.p_value == pytest.approx(0.79580671519166415, rel=1e-10)
    assert r.mean_x == pytest.approx(np.mean(x), rel=1e-15)
    assert r.mean_y == pytest.approx(np.mean(y), rel=1e-15)


def test_welch_antisymmetric():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=12), rng.normal(size=9)
    a, b = welch_t_test(x, y), welch_t_test(y, x)
    assert a.statistic == -b.statistic
    assert a.dof == b.dof
    assert a.p_value == b.p_value


def test_welch_equal_variances_give_pooled_dof():
    # identical sample variances collapse Welch-Satterthwaite to n1 + n2 - 2
    r = welch_t_test([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    assert r.dof == pytest.approx(4.0, rel=1e-14)


def test_welch_affine_invariance():
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=10), rng.normal(size=14)
    a = welch_t_test(x, y)
    b = welch_t_test(3.0 * x + 7.0, 3.0 * y + 7.0)
    assert b.statistic == pytest.approx(a.statistic, rel=1e-12)
    assert b.dof == pytest.approx(a.dof, rel=1e-12)


def test_welch_p_value_equals_student_t_tail():
    from scipy.stats import t as student_t

    rng = np.random.default_rng(11)
    samples = [(rng.normal(size=12), rng.normal(0.3, 2.0, size=9)),
               ([1.1, 2.3, 1.9, 2.8, 0.4], [1.6, 2.0, 1.5, 2.2]),
               ([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]),
               (rng.normal(0.0, 1e-3, size=40), rng.normal(1.0, 1e-3, size=30))]
    for x, y in samples:
        r = welch_t_test(x, y)
        assert r.p_value == min(1.0, 2.0 * float(student_t.sf(abs(r.statistic), r.dof)))
    # the last pair sits far in the tail
    assert abs(r.statistic) > 100.0


def test_welch_degenerate_inputs():
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="zero variance"):
        welch_t_test([2.0, 2.0, 2.0], [3.0, 3.0])


# ---------------------------------------------------------------------------
# octile grouping


@pytest.mark.parametrize("m,sizes", [(200, (75, 50, 75)), (8, (3, 2, 3)),
                                     (9, (3, 3, 3)), (16, (6, 4, 6))])
def test_octile_group_sizes(m, sizes):
    rng = np.random.default_rng(m)
    g = octile_grouping(rng.normal(size=m))
    assert (g.low.size, g.mid.size, g.high.size) == sizes
    assert sorted(np.concatenate([g.low, g.mid, g.high])) == list(range(m))


def test_octile_groups_are_ordered_by_value():
    rng = np.random.default_rng(11)
    values = rng.normal(size=40)
    g = octile_grouping(values)
    assert values[g.low].max() <= values[g.mid].min()
    assert values[g.mid].max() <= values[g.high].min()


def test_octile_constant_input_splits_by_position():
    g = octile_grouping(np.zeros(8))
    assert list(g.low) == [0, 1, 2]
    assert list(g.mid) == [3, 4]
    assert list(g.high) == [5, 6, 7]


def test_octile_needs_eight_observations():
    with pytest.raises(ValueError, match="at least 8"):
        octile_grouping(np.zeros(7))


# ---------------------------------------------------------------------------
# sensitivity analysis


def test_sensitivity_flags_a_determining_parameter():
    rng = np.random.default_rng(21)
    theta = rng.uniform(size=(200, 5))
    fit = theta[:, 2].copy()  # fit quality is literally parameter 2
    results = sensitivity_analysis(theta, fit)
    assert [r.parameter for r in results] == ["sigma0", "rho", "H", "xi", "alpha"]
    assert results[2].reject
    assert results[2].ks.statistic == 1.0
    assert results[2].ks.p_value < 1e-20
    assert results[2].ks.n1 == results[2].ks.n2 == 75


def test_sensitivity_null_rate_and_p_uniformity():
    # independent fit values: rejections should track the nominal level and the
    # p-values should be roughly uniform
    rng = np.random.default_rng(22)
    p_values, rejections = [], 0
    for _ in range(200):
        theta = rng.uniform(size=(200, 5))
        fit = rng.normal(size=200)
        for r in sensitivity_analysis(theta, fit):
            p_values.append(r.ks.p_value)
            rejections += r.reject
    assert 0.40 < np.mean(p_values) < 0.60
    assert rejections <= 0.085 * len(p_values)  # 1000 tests at the 5% level


def test_sensitivity_results_carry_param_names_and_to_dict():
    rng = np.random.default_rng(23)
    theta = rng.uniform(size=(16, 5))
    results = sensitivity_analysis(theta, rng.normal(size=16))
    assert tuple(r.parameter for r in results) == PARAM_NAMES
    d = results[0].to_dict()
    assert d["parameter"] == "sigma0"
    assert set(d) == {"parameter", "statistic", "p_value", "n_low", "n_high", "reject"}


def test_sensitivity_input_validation():
    rng = np.random.default_rng(24)
    good = rng.uniform(size=(16, 5))
    with pytest.raises(ValueError, match=r"M x 5 .*got shape \(16,\)"):
        sensitivity_analysis(np.zeros(16), rng.normal(size=16))
    with pytest.raises(ValueError, match=r"sigma0, rho, H, xi, alpha, got shape \(16, 3\)"):
        sensitivity_analysis(good[:, :3], rng.normal(size=16))
    with pytest.raises(ValueError, match="one fit value"):
        sensitivity_analysis(good, rng.normal(size=15))
    with pytest.raises(ValueError, match="at least 8"):
        sensitivity_analysis(good[:7], rng.normal(size=7))
    with pytest.raises(ValueError, match="alpha_level"):
        sensitivity_analysis(good, rng.normal(size=16), alpha_level=1.0)


# ---------------------------------------------------------------------------
# significance test


TRUTH = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)


@pytest.fixture(scope="module")
def chain():
    return generate_chain(TRUTH, MarketEnv(spot=100.0), strikes=[95.0, 100.0, 105.0],
                          maturity_days=[91], steps_per_year=12, path_count=2500,
                          seed=5, rel_spread=0.02)


def test_significance_separates_gross_misfit(chain):
    bad = ModelParams(sigma0=0.16, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    result = significance_test(chain, TRUTH, bad, repetitions=8, path_count=2000,
                               steps_per_year=12, base_seed=3)
    assert result.t_test.mean_x < result.t_test.mean_y  # truth fits better
    assert result.t_test.p_value < 1e-3
    assert result.arfv_full.shape == result.arfv_restricted.shape == (8,)
    d = result.to_dict()
    assert d["repetitions"] == 8
    assert d["mean_arfv_full"] == result.t_test.mean_x


def test_significance_handles_differing_hurst(chain):
    other = ModelParams(sigma0=0.08, rho=-0.3, H=0.1, xi=1.0, alpha=1.0)
    result = significance_test(chain, TRUTH, other, repetitions=3, path_count=500,
                               steps_per_year=12, base_seed=1)
    assert np.all(np.isfinite(result.arfv_full))
    assert np.all(np.isfinite(result.arfv_restricted))


def test_significance_deterministic_across_threads(chain):
    bad = ModelParams(sigma0=0.12, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    kwargs = dict(repetitions=4, path_count=600, steps_per_year=12, base_seed=9)
    a = significance_test(chain, TRUTH, bad, **kwargs)
    b = significance_test(chain, TRUTH, bad, **kwargs)
    c = significance_test(chain, TRUTH, bad, threads=3, **kwargs)
    assert np.array_equal(a.arfv_full, b.arfv_full)
    assert np.array_equal(a.arfv_full, c.arfv_full)
    assert np.array_equal(a.arfv_restricted, c.arfv_restricted)
    assert a.t_test.statistic == c.t_test.statistic


def test_significance_needs_two_repetitions(chain):
    with pytest.raises(ValueError, match="at least 2"):
        significance_test(chain, TRUTH, TRUTH, repetitions=1)


def test_significance_checks_path_count_before_any_covariance(chain, monkeypatch):
    # a bad path count fails before either factorization is built, not in the first job
    builds = []
    monkeypatch.setattr(stats, "build_joint_covariance",
                        lambda *args: builds.append(args))
    other = ModelParams(sigma0=0.08, rho=-0.3, H=0.1, xi=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="path_count must be >= 1"):
        significance_test(chain, TRUTH, other, repetitions=2, path_count=0)
    assert builds == []
