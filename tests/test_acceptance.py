"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints and records a single PASS/FAIL verdict line (echoed in the
"acceptance criteria" section at the end of the pytest run).  Criteria are
checked at full advertised strength — tolerances, trial counts, and runtime
budgets are the contract, not suggestions.

Known red: criterion 8's third clause (weak-coupling max-product beating the
strong-coupling preset at low SNR) fails under this calibration scheme; the
first two ordering clauses and the false-alarm pinning hold everywhere.
At low SNR the learned couplings dwarf the score spread, so the strong
preset's messages never clip and it degenerates into an equal-gain consensus
sum -- which pools noise over the whole tree and wins.  The expected
inversion does appear, but at the high-SNR end of the grid instead.
"""

import functools
import math
import time

import numpy as np

import conftest
from mpfusion import discrete, pipeline, rng
from mpfusion.discrete import (
    MAX_PRODUCT,
    SUM_PRODUCT,
    coefficient_from_coupling,
    run_messages,
    s_transfer,
)
from mpfusion.graph import MrfParams, chain, hop_distance
from mpfusion.performance import gaussianity_check
from mpfusion.sensing import q_function
from mpfusion.quadratic import EXACT, PAPER, QuadraticInstance, extract_weights, run, verify_linearity
from mpfusion.scenario import (
    ScenarioConfig,
    nominal_templates,
    run_campaign,
    scenario_stats,
)

from helpers import frozen, gfun, mrc_probe, solve_threshold, star, stats_for_weights

BENCH = ScenarioConfig()          # 5-node chain, rho -5 dB, delta 1 dB, K=100
MASTER_SEED = 12345

ALL_PRESETS = ("local",
               "mp0.1", "mp0.3", "mp1.0",
               "bp0.1", "bp0.3", "bp1.0",
               "egc0.1", "egc0.3", "egc1.0",
               "linProp", "linPropB", "linOpt")


def _record(num, name, ok, detail):
    line = f"criterion {num:2d} {name:<22s} {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def _criterion(num, name):
    """Record the verdict line whether the body passes or raises."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                _record(num, name, False, str(exc).splitlines()[0][:110])
                raise
            _record(num, name, True, detail or "")
        return wrapper
    return deco


def _bench_energies():
    return tuple(BENCH.sample_count * nominal_templates(BENCH) ** 2)


def _weak_params(top, energies, seed):
    draw = rng.stream(seed, rng.COUPLING_DRAW)
    scale = 0.05 * float(min(energies))
    return MrfParams(top, {e: float(draw.uniform(-scale, scale))
                           for e in top.edges}, convention="merged")


# ---------------------------------------------------------------------------


@_criterion(1, "linearity")
def test_criterion_01_linearity():
    top = chain(5)
    energies = _bench_energies()
    params = _weak_params(top, energies, seed=1)
    gen = rng.stream(1, rng.PROBES)
    t0 = time.perf_counter()
    worst = 0.0
    for convention in (PAPER, EXACT):
        inst = QuadraticInstance(top, params, energies, convention=convention)
        for iteration in range(1, 5):
            res = verify_linearity(inst, iteration, 100, gen)
            worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"max residual {worst:.3e} >= 1e-9"
    assert elapsed < 5.0, f"took {elapsed:.1f}s >= 5s"
    return f"max residual {worst:.2e} over 800 probes in {elapsed:.2f}s"


@_criterion(2, "locality")
def test_criterion_02_locality():
    gen = rng.stream(2, rng.GENERIC, 0)
    worst = 0.0
    checked = 0
    for top in (chain(6), star(6)):
        energies = tuple(gen.uniform(5.0, 40.0, top.node_count))
        params = _weak_params(top, energies, seed=2)
        hops = np.array([[hop_distance(top, i, j)
                          for i in top.nodes] for j in top.nodes])
        for convention in (PAPER, EXACT):
            inst = QuadraticInstance(top, params, energies,
                                     convention=convention)
            for iteration in range(1, 5):
                w = extract_weights(inst, iteration)
                beyond = hops > iteration - 1
                checked += int(beyond.sum())
                if beyond.any():
                    worst = max(worst, float(np.max(np.abs(w.weights[beyond]))))
    assert worst < 1e-12, f"leaked weight {worst:.3e} beyond the hop bound"
    return f"largest out-of-range weight {worst:.1e} over {checked} entries"


@_criterion(3, "round-2 closed forms")
def test_criterion_03_round2_closed_forms():
    def closed_form(gammas, energies, couplings, k, j, others):
        # long-hand ratio expressions in the first-round (u1, v1) pairs
        def u1(n):
            return 2.0 * gammas[n - 1] / energies[n - 1] - 1.0

        def v1(n, m):
            return 2.0 * couplings[(min(n, m), max(n, m))] / energies[n - 1]

        ek = energies[k - 1]
        den = 1.0 - sum(energies[n - 1] * v1(n, k) ** 2 for n in others) / ek
        num = u1(k) + sum(energies[n - 1] * u1(n) * v1(n, k)
                          for n in others) / ek
        return num / den, v1(k, j) / den

    gen = rng.stream(3, rng.GENERIC, 0)
    cases = [(chain(3), 2, 1, (3,), 500), (star(5, hub=1), 1, 3, (2, 4, 5), 500)]
    worst = 0.0
    for top, k, j, others, sweeps in cases:
        for _ in range(sweeps):
            g = gen.uniform(-3, 3, top.node_count)
            e = gen.uniform(3.0, 40.0, top.node_count)
            jv = float(gen.uniform(-0.5, 0.5))
            couplings = {edge: jv for edge in top.edges}
            inst = QuadraticInstance(top, MrfParams(top, couplings), tuple(e),
                                     convention=PAPER)
            state = run(inst, g, 2)
            u_got, v_got = state.estimates[(k, j)]
            u_want, v_want = closed_form(g, e, couplings, k, j, others)
            worst = max(worst, abs(float(u_got) - u_want), abs(v_got - v_want))
    assert worst < 1e-12, f"closed-form mismatch {worst:.3e}"
    return f"max |recursion - closed form| = {worst:.1e} over 1000 draws"


@_criterion(4, "single-edge bridge")
def test_criterion_04_single_edge_bridge():
    top = chain(2)
    gk, gj = np.meshgrid(np.linspace(-4, 4, 17), np.linspace(-3, 3, 7))
    gamma = np.vstack([gk.ravel(), gj.ravel()])
    worst_max = worst_sum = 0.0
    for jv in (-2.0, -0.5, -0.1, 0.1, 0.5, 2.0):
        params = MrfParams(top, {(1, 2): jv}, convention="merged")
        je = params.effective_coupling(1, 2)

        mp = run_messages(top, gamma, MAX_PRODUCT, 1, params=params)
        delta = np.asarray(mp.delta[(1, 2)])
        clamp = np.sign(je) * np.clip(gamma[0], -abs(je), abs(je))
        worst_max = max(worst_max, float(np.max(np.abs(delta - clamp))))

        # brute force over the four joint configurations
        score = {(a, b): (gamma[0] * (a > 0) + gamma[1] * (b > 0)
                          + je * (a == b))
                 for a in (-1, 1) for b in (-1, 1)}
        lam2_max = (np.maximum(score[(1, 1)], score[(-1, 1)])
                    - np.maximum(score[(1, -1)], score[(-1, -1)]))
        lam_mp = discrete.decision_variables(mp, top, gamma)
        worst_max = max(worst_max, float(np.max(np.abs(lam_mp[1] - lam2_max))))

        sp = run_messages(top, gamma, SUM_PRODUCT, 1, params=params)
        lam2_sum = (np.logaddexp(score[(1, 1)], score[(-1, 1)])
                    - np.logaddexp(score[(1, -1)], score[(-1, -1)]))
        lam_sp = discrete.decision_variables(sp, top, gamma)
        worst_sum = max(worst_sum, float(np.max(np.abs(lam_sp[1] - lam2_sum))))

        # replacing log-sum-exp by max inside the transfer must recreate the
        # max-product message bit for bit
        approx = np.maximum(0.0, je + gamma[0]) - np.maximum(je, gamma[0])
        assert np.array_equal(approx, delta), "max-approximation differs"
    assert worst_max < 1e-12, f"max-product residual {worst_max:.3e}"
    assert worst_sum < 1e-12, f"sum-product residual {worst_sum:.3e}"
    return (f"clamp/enumeration residuals {worst_max:.1e} (max) "
            f"{worst_sum:.1e} (sum); max-approx exact")


@_criterion(5, "linearization quality")
def test_criterion_05_linearization_quality():
    gen = rng.stream(5, rng.GENERIC, 0)
    cs = []
    for jv in (0.1, 0.5, 1.0):
        c = coefficient_from_coupling(jv)
        # independent algebraic form of the same coefficient
        alg = (1.0 - math.exp(-jv)) / (1.0 + math.exp(-jv))
        assert abs(c - alg) < 1e-12, f"coefficient identity off by {abs(c - alg):.2e}"
        h = 1e-6
        fd = (s_transfer(jv, h) - s_transfer(jv, -h)) / (2 * h)
        assert abs(fd - c) < 1e-6, f"slope at 0 off by {abs(fd - c):.2e}"

        b = np.linspace(-1.0, 1.0, 4001)
        b = b[np.abs(b) > 1e-9]
        big_c = float(np.max(np.abs(s_transfer(jv, b) - c * b) / b ** 2))
        probes = gen.uniform(-1.0, 1.0, 10000)
        err = np.abs(s_transfer(jv, probes) - c * probes)
        assert np.all(err <= 1.001 * big_c * probes ** 2 + 1e-15), \
            f"quadratic error bound violated at J={jv}"
        cs.append(big_c)
    return ("fitted C = " + ", ".join(f"{v:.3f}" for v in cs)
            + " for J = 0.1, 0.5, 1.0")


@_criterion(6, "conditioned gaussianity")
def test_criterion_06_gaussianity():
    t0 = time.perf_counter()
    worst = {}
    for mode, bound in (("matched", 0.02), ("energy", 0.03)):
        cfg = ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0, sample_count=100,
                             sensing_mode=mode)
        mode_worst = 0.0
        for algorithm in (MAX_PRODUCT, SUM_PRODUCT):
            lam, _, _ = pipeline.conditioned_samples(
                cfg, algorithm, (1, 0), 10000, seed=2)
            for j in range(cfg.node_count):
                rep = gaussianity_check(lam[j])
                mode_worst = max(mode_worst, rep.ks_statistic)
                assert rep.ks_statistic < bound, \
                    f"{mode}/{algorithm} node {j + 1}: KS {rep.ks_statistic:.4f} >= {bound}"
        worst[mode] = mode_worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s >= 60s"
    return (f"worst KS {worst['matched']:.4f} (matched, bound 0.02), "
            f"{worst['energy']:.4f} (energy, bound 0.03) in {elapsed:.1f}s")


@_criterion(7, "threshold calibration")
def test_criterion_07_calibration():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = pipeline.evaluate_cell(BENCH, ALL_PRESETS, MASTER_SEED,
                                         calibration_slots=20000,
                                         eval_slots=20000)
    fars = {}
    for res in results:
        far = float(np.nanmean(res.report.pf))
        fars[res.label] = far
        assert 0.09 <= far <= 0.11, \
            f"{res.label}: FAR {far:.4f} outside [0.09, 0.11]"

    # closed-form tail probabilities against Monte Carlo, local and fused.
    # The coherent detector's scores are exactly Gaussian (linear in the
    # noise), so the mixture model must match sampling to binomial noise;
    # the energy detector's Gaussian moments are only an approximation (its
    # chi-square skew is absorbed by the FAR band above, not tested here).
    # Sampling is stratified per activity pattern (slots are iid within a
    # pinned pattern) and mixed with the exact stationary weights, so the
    # binomial standard errors below are valid.
    coh = ScenarioConfig(sensing_mode="matched")
    stats = scenario_stats(coh)
    fused = np.eye(5)
    for (a, b) in coh.topology().edges:
        fused[a - 1, b - 1] = fused[b - 1, a - 1] = 0.3
    slots = 20000
    worst_sigma = 0.0
    for rule, w_mat in enumerate((np.eye(5), fused)):
        cond = stats_for_weights(stats, w_mat)
        taus = np.array([solve_threshold(cond[j], -1, coh.far)
                         for j in range(1, 6)])
        # per-pattern tails written out long-hand; their mixture must agree
        # with the library's calculator before it is held against sampling
        comp_mean = w_mat @ stats.gamma_mean
        comp_std = np.sqrt(w_mat ** 2 @ stats.gamma_var)
        tails = q_function((taus[:, None] - comp_mean) / comp_std)
        hit = np.empty((len(stats.patterns), 5))
        for c, pattern in enumerate(stats.patterns):
            camp = run_campaign(frozen(coh, pattern), slots, MASTER_SEED,
                                index=10 * rule + c)
            lam = w_mat @ camp.gamma
            hit[c] = np.mean(lam > taus[:, None], axis=1)
        for j in range(1, 6):
            for v in (-1, +1):
                sel = stats.x_table[j - 1] == v
                w = stats.probs[sel] / stats.probs[sel].sum()
                pred = gfun(taus[j - 1], v, cond[j])
                assert abs(pred - float(w @ tails[j - 1, sel])) < 1e-12
                rate = float(w @ hit[sel, j - 1])
                se = math.sqrt(float(
                    w ** 2 @ (tails[j - 1, sel] * (1 - tails[j - 1, sel]))) / slots)
                gap = abs(rate - pred)
                worst_sigma = max(worst_sigma, gap / max(se, 1.0 / slots))
                assert gap <= 3.0 * se + 2.0 / slots, \
                    f"node {j} v={v:+d}: model {pred:.4f} vs MC {rate:.4f} (se {se:.2g})"
    lo, hi = min(fars.values()), max(fars.values())
    return (f"FAR in [{lo:.4f}, {hi:.4f}] over {len(fars)} presets; "
            f"model-vs-MC worst gap {worst_sigma:.1f} se")


@_criterion(8, "detection ordering")
def test_criterion_08_detection_ordering():
    grid = (-12.0, -9.0, -6.0, -3.0, 0.0)
    low_snr = (-12.0, -9.0)
    methods = ("mp0.1", "mp1.0", "bp0.1", "linProp", "linOpt")
    t0 = time.perf_counter()
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = pipeline.sweep_rho(
            BENCH, methods, grid, MASTER_SEED,
            delta_rule="proportional", proportional_factor=0.1,
            calibration_slots=20000, eval_slots=20000)
    elapsed = time.perf_counter() - t0

    pd_mean, se_mean = {}, {}
    for res in results:
        pd = np.asarray(res.report.pd, dtype=float)
        se = np.asarray(res.report.stderr_pd, dtype=float)
        ok = ~np.isnan(pd)
        key = (res.label, res.rho_db)
        pd_mean[key] = float(np.mean(pd[ok]))
        se_mean[key] = float(np.sqrt(np.sum(se[ok] ** 2)) / ok.sum())

    def margin(a, b, rho):
        slack = 2.0 * math.sqrt(se_mean[(a, rho)] ** 2 + se_mean[(b, rho)] ** 2)
        return pd_mean[(a, rho)] - pd_mean[(b, rho)] + slack

    assert elapsed < 900.0, f"sweep took {elapsed:.0f}s >= 15min"
    for rho in grid:
        assert margin("linOpt", "linProp", rho) >= 0.0, \
            f"rho={rho}: linOpt {pd_mean[('linOpt', rho)]:.4f} < linProp"
        assert margin("linProp", "mp0.1", rho) >= 0.0, \
            f"rho={rho}: linProp {pd_mean[('linProp', rho)]:.4f} < mp0.1"
        assert margin("linProp", "bp0.1", rho) >= 0.0, \
            f"rho={rho}: linProp {pd_mean[('linProp', rho)]:.4f} < bp0.1"
    for rho in low_snr:
        weak, strong = pd_mean[("mp0.1", rho)], pd_mean[("mp1.0", rho)]
        assert weak > strong, \
            (f"rho={rho}: Pd(mp0.1)={weak:.4f} <= Pd(mp1.0)={strong:.4f} "
             f"(unclipped messages make the strong preset a consensus sum)")
    return f"all ordering clauses hold; sweep in {elapsed:.0f}s"


@_criterion(9, "energy-weighted damping")
def test_criterion_09_mrc_damping():
    energies = _bench_energies()
    sweep = (4.0, 8.0, 16.0, 32.0, 64.0)
    checked = 0
    for top, k, j in ((chain(5), 3, 4), (star(5, hub=1), 1, 2)):
        params = _weak_params(top, energies, seed=9)
        inst = QuadraticInstance(top, params, energies, convention=PAPER)
        others, mags = mrc_probe(inst, k, j, sweep)
        assert others, "probe found no competing neighbors"
        diffs = np.diff(mags, axis=0)
        assert np.all(diffs <= 0.0), \
            f"neighbor weight grew with node energy on {top.edges}"
        checked += mags.size
    return f"neighbor-weight magnitudes non-increasing over {checked} probes"


@_criterion(10, "weak-coupling approximation")
def test_criterion_10_weak_coupling_approximation():
    top = chain(5)
    camp = run_campaign(BENCH, 300, seed=7)
    gamma = camp.gamma
    errs = []
    for j_mag in (0.1, 0.03, 0.01):
        params = MrfParams(top, {e: j_mag for e in top.edges},
                           convention="merged")
        state = run_messages(top, gamma, MAX_PRODUCT, 2, params=params)
        lam = discrete.decision_variables(state, top, gamma)
        approx = gamma.copy()
        for (a, b) in top.edges:
            approx[a - 1] += j_mag * gamma[b - 1]
            approx[b - 1] += j_mag * gamma[a - 1]
        errs.append(float(np.max(np.abs(lam - approx)) / np.max(np.abs(lam))))
    assert errs[0] > errs[1] > errs[2], \
        f"relative error not monotone: {[f'{e:.4f}' for e in errs]}"
    return ("relative error " + " > ".join(f"{e:.4f}" for e in errs)
            + " at |J| = 0.1, 0.03, 0.01")
