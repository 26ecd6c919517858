"""Correctness checks on workload outputs, computed apart from the program.

Every check returns failures as (operation, check, detail) triples, where an
operation is one (cell, preset) evaluation, named "label@rho", or one
quadratic extraction, named "quadratic/convention/iteration".  Mixture
tails, thresholds, model detection probabilities, exact engine marginals
and hop distances are all recomputed here with scipy.stats.norm, brentq and
brute-force enumeration; the library supplies only the per-pattern score
moments (`scenario_stats`) the mixtures are built from.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp
from scipy.stats import norm

import workloads

FAR_BAND = (0.09, 0.11)          # criterion 7, on the mean over nodes
THRESHOLD_TOL = 1e-8             # false-alarm error at a returned threshold
PD_TOL = 1e-8                    # model Pd agreement and design ordering
ENGINE_TOL = 1e-9
QUAD_TOL = 1e-9
LOCALITY_TOL = 1e-12


def op_name(res: dict) -> str:
    return f"{res['label']}@{res['rho_db']:g}"


# ---------------------------------------------------------------------------
# exact mixtures of linear rules


class Mixtures:
    """Exact Gaussian mixtures of linear rules lambda = W gamma, per cell."""

    def __init__(self, workload: str):
        self.workload = workload
        self._stats = {}

    def stats(self, rho_db: float, delta_rho_db: float):
        key = (rho_db, delta_rho_db)
        if key not in self._stats:
            from mpfusion.scenario import scenario_stats
            self._stats[key] = scenario_stats(
                workloads.cell_config(self.workload, rho_db, delta_rho_db))
        return self._stats[key]

    def components(self, res: dict, row, node: int) -> dict:
        st = self.stats(res["rho_db"], res["delta_rho_db"])
        row = np.asarray(row, float)
        mean = row @ st.gamma_mean
        std = np.sqrt(row ** 2 @ st.gamma_var)
        out = {}
        for v in (-1, 1):
            sel = (st.probs > 0) & (st.x_table[node - 1] == v)
            out[v] = (st.probs[sel] / st.probs[sel].sum(), mean[sel], std[sel])
        return out


def tail(comp, tau: float) -> float:
    weights, mean, std = comp
    return float(weights @ norm.sf((tau - mean) / std))


def exact_threshold(comp, far: float) -> float:
    _, mean, std = comp
    span = 12.0 * float(np.max(std)) + 1.0
    return brentq(lambda t: tail(comp, t) - far, float(np.min(mean)) - span,
                  float(np.max(mean)) + span, xtol=1e-14, rtol=1e-15,
                  maxiter=500)


def model_pd(mix: Mixtures, res: dict, row, node: int, far: float) -> float:
    comps = mix.components(res, row, node)
    return tail(comps[1], exact_threshold(comps[-1], far))


# ---------------------------------------------------------------------------
# checks


def check_far_band(results) -> list:
    out = []
    for res in results:
        far = float(np.nanmean(res["pf"]))
        if not FAR_BAND[0] <= far <= FAR_BAND[1]:
            out.append((op_name(res), "far-band",
                        f"mean FAR {far:.4f} outside [{FAR_BAND[0]}, {FAR_BAND[1]}]"))
    return out


def check_thresholds(results, mix: Mixtures, far: float) -> list:
    """Linear rules: the returned threshold pins the exact-mixture FAR."""
    out = []
    for res in results:
        if res["weights"] is None:
            continue
        worst = 0.0
        for j in range(1, res["weights"].shape[0] + 1):
            comps = mix.components(res, res["weights"][j - 1], j)
            worst = max(worst, abs(tail(comps[-1], res["thresholds"][j - 1]) - far))
        if not worst <= THRESHOLD_TOL:
            out.append((op_name(res), "threshold",
                        f"exact-mixture FAR off target by {worst:.3e}"))
    return out


def check_designs(results, mix: Mixtures, far: float) -> list:
    """Model Pd of linProp/linOpt as reported, and linOpt >= linProp >= local
    per node (the optimizer's never-worse guarantees)."""
    out = []
    by_cell = {}
    for res in results:
        by_cell.setdefault(res["rho_db"], {})[res["label"]] = res
    for cell in by_cell.values():
        prop, opt = cell.get("linProp"), cell.get("linOpt")
        if prop is None or opt is None:
            continue
        n = prop["weights"].shape[0]
        for res in (prop, opt):
            worst = max(abs(model_pd(mix, res, res["weights"][j - 1], j, far)
                            - res["model_pd"][j - 1]) for j in range(1, n + 1))
            if not worst <= PD_TOL:
                out.append((op_name(res), "model-pd",
                            f"reported model Pd off by {worst:.3e}"))
        for j in range(1, n + 1):
            local = model_pd(mix, prop, np.eye(n)[j - 1], j, far)
            p_prop = model_pd(mix, prop, prop["weights"][j - 1], j, far)
            p_opt = model_pd(mix, opt, opt["weights"][j - 1], j, far)
            if not p_prop - local >= -PD_TOL:
                out.append((op_name(prop), "design-order",
                            f"node {j}: linProp Pd {p_prop:.9f} < local {local:.9f}"))
            if not p_opt - p_prop >= -PD_TOL:
                out.append((op_name(opt), "design-order",
                            f"node {j}: linOpt Pd {p_opt:.9f} < linProp {p_prop:.9f}"))
    return out


def check_detection_order(results) -> list:
    """Criterion 8's first two clauses, with its 2-sigma slack."""
    stats = {}
    for res in results:
        ok = ~np.isnan(res["pd"])
        stats[(res["label"], res["rho_db"])] = (
            float(np.mean(res["pd"][ok])),
            float(np.sqrt(np.sum(res["stderr_pd"][ok] ** 2)) / ok.sum()))
    out = []
    for rho in sorted({res["rho_db"] for res in results}):
        for a, b in (("linOpt", "linProp"), ("linProp", "mp0.1"),
                     ("linProp", "bp0.1")):
            if (a, rho) not in stats or (b, rho) not in stats:
                continue
            (pa, sa), (pb, sb) = stats[(a, rho)], stats[(b, rho)]
            if not pa - pb + 2.0 * math.sqrt(sa ** 2 + sb ** 2) >= 0.0:
                out.append((f"{a}@{rho:g}", "detection-order",
                            f"Pd {pa:.4f} below {b} {pb:.4f} beyond 2 sigma"))
    return out


class Enumeration:
    """All 2^N states of a binary field, for exact marginals."""

    def __init__(self, n: int):
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        self.on = bits.astype(float)                 # (2^N, N) 1 where x = +1
        self.states = 2 * bits - 1

    def decision_variables(self, couplings: dict, gamma, kind: str) -> np.ndarray:
        """Exact log-odds ("bp") or max-marginal differences ("mp") of
        p(x) ~ exp(sum_j gamma_j [x_j = +1] + sum_ij J_ij [x_i = x_j])."""
        pair = np.zeros(self.states.shape[0])
        for (i, j), c in couplings.items():
            pair += c * (self.states[:, i - 1] == self.states[:, j - 1])
        score = self.on @ gamma + pair[:, None]
        n = self.on.shape[1]
        lam = np.empty((n, gamma.shape[1]))
        for j in range(n):
            up = self.on[:, j] == 1.0
            if kind == "bp":
                lam[j] = logsumexp(score[up], axis=0) - logsumexp(score[~up], axis=0)
            else:
                lam[j] = score[up].max(axis=0) - score[~up].max(axis=0)
        return lam


def check_engines(results, engines, enum: Enumeration) -> list:
    by_label = {res["label"]: res for res in results}
    out = []
    for eng in engines:
        res = by_label[eng["label"]]
        if eng["kind"] in ("mp", "bp"):
            want = enum.decision_variables(res["couplings"], eng["gamma"], eng["kind"])
            name = "engine-exact"
        else:
            want = res["weights"] @ eng["gamma"]
            name = "engine-linear"
        err = float(np.max(np.abs(eng["lam"] - want)))
        if not err <= ENGINE_TOL:
            out.append((op_name(res), name, f"decision variables off by {err:.3e}"))
    return out


def hop_matrix(n: int, edges) -> np.ndarray:
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    hops = np.full((n, n), np.inf)
    for src in range(1, n + 1):
        hops[src - 1, src - 1] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if hops[src - 1, v - 1] == np.inf:
                        hops[src - 1, v - 1] = hops[src - 1, u - 1] + 1
                        nxt.append(v)
            frontier = nxt
    return hops


def check_quadratic(extractions, probes, hops) -> list:
    out = []
    for ex in extractions:
        op = f"quadratic/{ex['convention']}/{ex['iteration']}"
        predicted = ex["weights"] @ probes + ex["offset"][:, None]
        err = float(np.max(np.abs(ex["lam"] - predicted)))
        if not err <= QUAD_TOL:
            out.append((op, "quadratic-reproduce",
                        f"probe residual {err:.3e}"))
        beyond = hops > ex["iteration"] - 1
        leak = float(np.max(np.abs(ex["weights"][beyond]), initial=0.0))
        if not leak <= LOCALITY_TOL:
            out.append((op, "quadratic-locality",
                        f"weight {leak:.3e} beyond {ex['iteration'] - 1} hops"))
    return out


class Checker:
    """Runs every check that applies to a workload's round outputs."""

    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.mix = Mixtures(workload)
        cfg = workloads.base_config(workload)
        self.far = cfg.far
        if workload == "tree-engines":
            top = cfg.topology()
            self.enum = Enumeration(top.node_count)
            self.hops = hop_matrix(top.node_count, top.edges)

    def __call__(self, outputs: dict) -> list:
        results = outputs["results"]
        fails = check_far_band(results)
        fails += check_thresholds(results, self.mix, self.far)
        fails += check_designs(results, self.mix, self.far)
        if self.workload == "snr-sweep":
            fails += check_detection_order(results)
        if self.workload == "tree-engines":
            fails += check_engines(results, outputs["engines"], self.enum)
            fails += check_quadratic(outputs["quadratic"], self.inputs["probes"],
                                     self.hops)
        return fails

    def complete(self, outputs: dict) -> bool:
        """Every operation of the round produced an output."""
        results = outputs["results"]
        ops = {op_name(r) for r in results}
        if self.workload == "tree-engines":
            ops |= {f"quadratic/{e['convention']}/{e['iteration']}"
                    for e in outputs["quadratic"]}
            engines = {r["label"] for r in results
                       if workloads.preset_kind(r["label"]) in workloads.ENGINE_KINDS}
            if {e["label"] for e in outputs["engines"]} != engines:
                return False
        return len(ops) == workloads.operations(self.workload)
