"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL line
(written to the real stdout so it survives pytest's capture).  The criteria
are asserted as-is; a FAIL line means the property genuinely does not hold
for this implementation.
"""

import time

import numpy as np
import pytest
from scipy.special import polygamma

from hestonsim.analytic import (
    bs_call_undiscounted,
    price_european_exact,
    price_european_exact_multifactor,
    varswap_strike_discrete,
)
from hestonsim.bessel import log_bessel_iv_scaled
from hestonsim.distributions import (
    bessel_rv_logpmf,
    sample_bessel_rv,
    sample_invgauss,
    sample_poisson,
    sample_std_gamma,
    sample_terminal_variance,
)
from hestonsim.harness import ExperimentSpec, run_experiment
from hestonsim.model import (
    avg_variance_moments,
    cond_laplace_bk,
    cond_laplace_pois,
    eta_moments,
    phi,
    series_coeffs,
    terminal_variance_moments,
)
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream
from hestonsim.schemes import (
    SchemeConfig,
    _batch_moments,
    _forward_and_sigma,
    sample_log_return,
    simulate_multifactor_terminal,
    step_plan,
    step_pois_ge,
    varswap_fair_strike_mc,
)

N_PATHS = 40_000
N_REPS = 20


def _report(criterion: int, ok: bool, detail: str) -> None:
    # pytest shows this captured line in the -rA summary (and on failure)
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. Closed-form oracles reproduce the reference prices and return moments.
# ---------------------------------------------------------------------------

_RETURN_MOMENTS = {
    "I": (0.04, 0.011243),
    "II": (0.04, 0.016118),
    "III": (0.017586, 0.000126),
    "IV": (0.198462, 0.007109),
}


def test_criterion_1_analytic_oracles():
    worst_price = 0.0
    worst_mom = 0.0
    for name, preset in CASE_PRESETS.items():
        price = price_european_exact(preset.model, preset.maturity, preset.strike)
        worst_price = max(worst_price, abs(price - preset.reference_price))
        mean, var = avg_variance_moments(preset.model, preset.maturity)
        mean_ref, var_ref = _RETURN_MOMENTS[name]
        worst_mom = max(worst_mom, abs(round(mean, 6) - mean_ref),
                        abs(round(var, 6) - var_ref))
    ok = worst_price < 1e-6 and worst_mom < 5.1e-7
    _report(1, ok, f"max price error {worst_price:.2e}, "
                   f"max return-moment error {worst_mom:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. The closed-form moment scales equal their infinite gamma series: the
#    1e5-term partial sums plus the leading-order analytic tail.  The mean
#    terms decay like 1/k^2 (lam/gam ~ 2h/(pi^2 k^2), 1/gam ~
#    xi^2 h^2/(2 pi^2 k^2)), so their tails are those constants times
#    psi'(K+1) = sum_{k>K} 1/k^2, leaving an O(K^-3) remainder; the variance
#    terms decay like k^-4 and need no tail.
# ---------------------------------------------------------------------------

def test_criterion_2_series_partial_sums():
    n_terms = 100_000
    k = np.arange(1, n_terms + 1, dtype=float)
    inv_k2_tail = polygamma(1, n_terms + 1)
    worst_raw = 0.0
    worst = 0.0
    worst_at = ""
    for name, preset in CASE_PRESETS.items():
        T = preset.maturity
        xi = preset.model.xi
        for h in (T, T / 8):
            c = series_coeffs(preset.model, h)
            lam, gam = c.lam(k), c.gam(k)
            # label: (partial sum, analytic tail, closed form)
            sums = {
                "mean_x": (np.sum(lam / gam), 2.0 * h / np.pi**2 * inv_k2_tail, c.mean_x),
                "var_x": (2.0 * np.sum(lam / gam**2), 0.0, c.var_x),
                "mean_z": (np.sum(1.0 / gam),
                           xi**2 * h**2 / (2.0 * np.pi**2) * inv_k2_tail, c.mean_z),
                "var_z": (np.sum(1.0 / gam**2), 0.0, c.var_z),
            }
            for label, (partial, tail, ref) in sums.items():
                worst_raw = max(worst_raw, abs(partial - ref) / ref)
                rel = abs(partial + tail - ref) / ref
                if rel > worst:
                    worst, worst_at = rel, f"case {name}, h={h:g}, {label}"
    ok = worst < 1e-10
    _report(2, ok, f"worst relative error {worst:.2e} with tail at {worst_at} "
                   f"(tolerance 1e-10); raw partial sums {worst_raw:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. Count-conditional Laplace transforms mix back to the endpoint-conditional
#    transform under the Bessel count distribution.
# ---------------------------------------------------------------------------

def test_criterion_3_laplace_mixture_identity():
    model = CASE_PRESETS["III"].model
    h = 1.0
    js = np.arange(0, 400)
    worst = 0.0
    for v0, vt in [(0.0102, 0.019), (0.019, 0.019)]:
        z = np.sqrt(v0 * vt) * phi(model.kappa, h, model.xi)
        pmf = np.exp(bessel_rv_logpmf(model.nu, z, js))
        for u in (0.5, 1.0, 2.0, 5.0):
            mixed = np.sum(pmf * cond_laplace_pois(u, v0, vt, js, model, h))
            ref = cond_laplace_bk(u, v0, vt, model, h)
            worst = max(worst, abs(mixed - ref) / ref)
    ok = worst < 1e-10
    _report(3, ok, f"worst relative error {worst:.2e} (tolerance 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 4. Desk-scale reproduction of the single-period option-bias tables, with
#    unbiased spot reconstruction and the expected runtime ordering.
# ---------------------------------------------------------------------------

_POIS_GE_BIAS = {
    "I": {0: 0.153, 4: 0.023, 8: 0.002},
    "II": {0: -0.107, 4: -0.026, 8: -0.003},
    "III": {0: 0.005, 4: -0.000, 8: -0.000},
    "IV": {0: -0.001, 4: -0.000, 8: 0.000},
}
_IG_BIAS = {"I": 0.159, "II": -0.117, "III": 0.007, "IV": -0.001}
_QEM_BIAS = {"I": -0.015, "II": 0.009, "III": -0.009, "IV": -0.045}
_POIS_TD_BIAS = {"I": -0.004, "II": 0.005, "III": -0.045, "IV": -0.007}
_TD_FINEST = {"I": 80, "II": 120, "III": 8, "IV": 8}


def _price_and_spot(model, T, strike, cfg, n_paths, rng):
    """Conditional MC price and spot reconstruction from the same paths.

    One plain two-row merge over the drivers' batches and per-path recipe:
    row 0 is the per-path price that ``price_european_cmc`` regresses on its
    controls, row 1 what ``reconstruct_spot`` averages.  The criterion's
    seeds, sizes and bounds predate the call controls, so its prices stay
    uncontrolled.
    """
    def batch(nb, sub):
        fwd, sigma, _, _ = _forward_and_sigma(model, T, cfg, nb, sub)
        return bs_call_undiscounted(fwd, sigma, T, strike), fwd

    _, (price, spot), _ = _batch_moments(n_paths, rng, batch)
    return np.exp(-model.r * T) * price, np.exp((model.q - model.r) * T) * spot


def _run_rows(preset, configs, seed):
    """Per config: (rep prices, rep spots, wall time excluding warm-up).

    Repetition r of every config runs before repetition r + 1 of any, so a
    slowdown of the host falls on all configs alike instead of on one row.
    """
    runs = [([], [], []) for _ in configs]
    for rep in range(N_REPS):
        for ci, cfg in enumerate(configs):
            prices, spots, walls = runs[ci]
            rng = RngStream(seed, (ci, rep))
            t0 = time.perf_counter()
            price, spot = _price_and_spot(preset.model, preset.maturity,
                                          preset.strike, cfg, N_PATHS, rng)
            walls.append(time.perf_counter() - t0)
            prices.append(price)
            spots.append(spot)
    return [(np.array(prices), np.array(spots), sum(walls[1:]))
            for prices, spots, walls in runs]


def test_criterion_4_option_table_reproduction():
    bias_fail = []
    spot_fail = []
    timing_fail = []
    ratios = []
    n_bias = n_spot = n_timing = 0
    for name, preset in CASE_PRESETS.items():
        nfine = _TD_FINEST[name]
        configs = (
            [SchemeConfig("pois_ge", trunc_k=kk) for kk in (0, 4, 8)]
            + [SchemeConfig("ge", trunc_k=kk) for kk in (0, 4, 8)]
            + [SchemeConfig("ig"),
               SchemeConfig("qem", n_steps=nfine, martingale_mode="price"),
               SchemeConfig("pois_td", n_steps=nfine, martingale_mode="price")]
        )
        rows = _run_rows(preset, configs, seed=401)
        refs = (
            [("POIS-GE", kk, _POIS_GE_BIAS[name][kk], rows[i]) for i, kk in enumerate((0, 4, 8))]
            + [("IG", None, _IG_BIAS[name], rows[6]),
               ("QEM", None, _QEM_BIAS[name], rows[7]),
               ("POIS-TD", None, _POIS_TD_BIAS[name], rows[8])]
        )
        exact = preset.reference_price
        for label, kk, ref_bias, (prices, spots, _) in refs:
            n_bias += 1
            bias = prices.mean() - exact
            if abs(bias - ref_bias) > 3 * prices.std():
                bias_fail.append(f"{name}/{label}/K={kk}")
        for label, kk, _, (prices, spots, _) in refs:
            n_spot += 1
            if abs(spots.mean() - preset.model.s0) > 3 * spots.std():
                spot_fail.append(f"{name}/{label}/K={kk}")
        # runtime ordering: the Poisson-conditioned series beats the Bessel
        # series at equal truncation, and its K=0 form beats the IG scheme.
        walls = [row[2] for row in rows]
        ratios.append(f"{name} " + "/".join(f"{walls[i + 3] / walls[i]:.2f}" for i in range(3))
                      + f" {walls[6] / walls[0]:.2f}")
        for i in range(3):
            n_timing += 1
            if rows[i][2] >= rows[i + 3][2]:
                timing_fail.append(f"{name}/K={i}")
        n_timing += 1
        if rows[0][2] >= rows[6][2]:
            timing_fail.append(f"{name}/IG")
    ok = not (bias_fail or spot_fail or timing_fail)
    _report(4, ok,
            f"{n_bias - len(bias_fail)}/{n_bias} biases within 3 SE of reference, "
            f"{n_spot - len(spot_fail)}/{n_spot} spot reconstructions unbiased, "
            f"{n_timing - len(timing_fail)}/{n_timing} runtime orderings hold "
            f"(wall ratios ge/pois_ge at K=0/4/8, ig/pois_ge at K=0: {', '.join(ratios)})"
            + (f"; failures: {bias_fail + spot_fail + timing_fail}" if not ok else ""))
    assert ok


# ---------------------------------------------------------------------------
# 5. Variance-swap fair strikes match the closed form, and the
#    Poisson-conditioned scheme dominates quadratic-exponential at coarse
#    monitoring.
# ---------------------------------------------------------------------------

def test_criterion_5_variance_swap():
    fails = []
    checks = 0
    for name in ("III", "IV"):
        preset = CASE_PRESETS[name]
        T = preset.maturity
        for n in (2, 4, 12, 52):
            checks += 1
            ref = varswap_strike_discrete(preset.model, T, T / n)
            cfg = SchemeConfig("pois_td", n_steps=n, martingale_mode="return_variance")
            est, se = varswap_fair_strike_mc(preset.model, T, n, cfg, N_PATHS,
                                             RngStream(501, (ord(name[-1]), n)))
            if abs(est - ref) > 3 * se:
                fails.append(f"{name}/N={n}: {est - ref:+.2e} vs SE {se:.2e}")
    preset = CASE_PRESETS["IV"]
    ref = varswap_strike_discrete(preset.model, 1.0, 0.5)
    cfg = SchemeConfig("qem", n_steps=2, martingale_mode="price")
    est, _ = varswap_fair_strike_mc(preset.model, 1.0, 2, cfg, N_PATHS, RngStream(502))
    qem_bias = est - ref
    qem_ok = qem_bias < -0.4e-2
    ok = not fails and qem_ok
    _report(5, ok, f"{checks - len(fails)}/{checks} strikes within 3 SE; "
                   f"coarse QEM bias {qem_bias:+.4f} (expected < -0.004)")
    assert ok


# ---------------------------------------------------------------------------
# 6. Small-step limit of the endpoint-conditional integrated-variance mean:
#    h (V0 + Vh + sqrt(V0 Vh)) / 3 + xi^2 h^2 / 24 + O(h^3).  The h^2 term is
#    the variance of the Brownian bridge that sqrt(V) follows over a short
#    step (diffusion xi/2), integrated over the step.  It comes from
#    delta/2 + 2 E[eta] = z + 1/2 + O(1/z) times mean_z ~ xi^2 h^2 / 12, so an
#    error in the delta/2 term or in the Bessel order would show as slope 1.
# ---------------------------------------------------------------------------

def test_criterion_6_small_step_asymptotics():
    model = CASE_PRESETS["III"].model
    v0, v1 = model.v0, 0.019
    bridge_coef = model.xi**2 / 24.0
    hs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    devs = []
    for h in hs:
        c = series_coeffs(model, h)
        eta_mean, _ = eta_moments(v0, v1, model, h)
        iv_mean = (v0 + v1) * c.mean_x + (0.5 * model.delta + 2.0 * eta_mean) * c.mean_z
        three_point = (v0 + v1 + np.sqrt(v0 * v1)) * h / 3.0
        devs.append(abs(iv_mean / (three_point + bridge_coef * h**2) - 1.0))
        h2_coef = (iv_mean - three_point) / h**2
    slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
    coef_err = abs(h2_coef / bridge_coef - 1.0)
    ok = abs(slope - 2.0) <= 0.2 and coef_err < 1e-3
    _report(6, ok, f"log-log deviation slope {slope:.3f} (expected 2.0 +/- 0.2); "
                   f"h^2 coefficient {h2_coef:.7f} at h={hs[-1]:g} vs xi^2/24 = "
                   f"{bridge_coef:.7f} (relative {coef_err:.1e}, tolerance 1e-3)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Sampler moments at one million draws, plus the Bessel special values.
# ---------------------------------------------------------------------------

def test_criterion_7_sampler_suite():
    n = 1_000_000
    fails = []

    def check(label, draws, mean_ref, var_ref):
        se_mean = draws.std() / np.sqrt(n)
        if abs(draws.mean() - mean_ref) > 3 * se_mean:
            fails.append(f"{label} mean")
        se_var = np.std((draws - draws.mean()) ** 2) / np.sqrt(n)
        if abs(draws.var() - var_ref) > 3 * se_var:
            fails.append(f"{label} variance")

    check("poisson", sample_poisson(np.full(n, 4.0), RngStream(701)).astype(float), 4.0, 4.0)
    check("gamma", sample_std_gamma(np.full(n, 2.0), RngStream(712)), 2.0, 2.0)
    check("invgauss", sample_invgauss(np.full(n, 1.0), np.full(n, 2.0), RngStream(703)), 1.0, 0.5)

    model = CASE_PRESETS["IV"].model
    v_next, _ = sample_terminal_variance(np.full(n, model.v0), 1.0, model, RngStream(704))
    mean, var = terminal_variance_moments(model.v0, 1.0, model)
    check("variance transition", v_next, mean, var)

    m3 = CASE_PRESETS["III"].model
    z = 0.019 * phi(m3.kappa, 1.0, m3.xi)
    draws = sample_bessel_rv(m3.nu, np.full(n, z), RngStream(705)).astype(float)
    bm, bv = eta_moments(0.019, 0.019, m3, 1.0)
    check("bessel count", draws, bm, bv)

    zs = np.linspace(0.1, 30.0, 40)
    pref = np.sqrt(2.0 / (np.pi * zs))
    iv = {nu: np.exp(log_bessel_iv_scaled(nu, zs) + zs) for nu in (0.5, -0.5)}
    half_ok = (np.allclose(iv[0.5], pref * np.sinh(zs), rtol=1e-10)
               and np.allclose(iv[-0.5], pref * np.cosh(zs), rtol=1e-10))
    if not half_ok:
        fails.append("half-integer closed form")
    ok = not fails
    _report(7, ok, "all sampler moments within 3 SE and Bessel closed forms "
                   "within 1e-10" if ok else f"failed: {fails}")
    assert ok


# ---------------------------------------------------------------------------
# 8. Multifactor model: one factor reduces exactly to the scalar kernel and
#    a symmetric two-factor split reprices the merged model.
# ---------------------------------------------------------------------------

def test_criterion_8_multifactor():
    preset = CASE_PRESETS["IV"]
    m, T, X = preset.model, preset.maturity, preset.strike
    n = N_PATHS

    lr, fwd, sigma = simulate_multifactor_terminal([m], T, 1, 4000, RngStream(801))
    rng = RngStream(801)
    res = step_pois_ge(np.full(4000, m.v0), step_plan(m, T, SchemeConfig("pois_ge", 1)), rng)
    z = rng.gen.standard_normal(4000)
    lr_ref = sample_log_return(m.v0, res.v_next, res.iv, T, m, z)
    bitwise = np.array_equal(lr, lr_ref)

    from dataclasses import replace

    half = replace(m, v0=m.v0 / 2, theta=m.theta / 2)
    ref = price_european_exact_multifactor([half, half], T, X)
    _, fwd2, sigma2 = simulate_multifactor_terminal([half, half], T, 1, n, RngStream(802))
    payoffs = np.exp(-m.r * T) * bs_call_undiscounted(fwd2, sigma2 / np.sqrt(T), T, X)
    se = payoffs.std() / np.sqrt(n)
    err = payoffs.mean() - ref
    split_ok = abs(err) < 3 * se
    ok = bitwise and split_ok
    _report(8, ok, f"single-factor bitwise match: {bitwise}; "
                   f"two-factor split error {err:+.2e} vs 3 SE {3 * se:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 9. Thread-count invariance of experiment estimates.
# ---------------------------------------------------------------------------

def test_criterion_9_thread_determinism():
    preset = CASE_PRESETS["III"]
    estimates = []
    for jobs in (1, 2, 4):
        spec = ExperimentSpec(
            case_label="III",
            model=preset.model,
            maturity=preset.maturity,
            product="european_call",
            configs=(SchemeConfig("pois_ge", trunc_k=1),
                     SchemeConfig("qem", n_steps=8, martingale_mode="price")),
            n_paths=20_000,
            n_reps=6,
            seed=901,
            strike=preset.strike,
            benchmark="fourier",
            n_jobs=jobs,
        )
        res = run_experiment(spec)
        estimates.append([tuple(row.rep_estimates) for row in res.rows])
    ok = estimates[0] == estimates[1] == estimates[2]
    _report(9, ok, "estimates bit-identical across 1, 2, and 4 worker threads"
            if ok else "estimates differ across thread counts")
    assert ok
