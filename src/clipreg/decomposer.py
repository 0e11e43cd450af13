"""Greedy energy-increment decomposition.

Each stage asks the adversary for the dictionary element best correlated with
the current residual, scales it optimally within [-q, q], and accepts the pick
only if the squared-residual decrease exceeds eps^2.  Since the initial energy
is at most 1, at most ceil(1/eps^2) stages can be accepted, independently of
the target and the dimension.  The accepted elements are assembled into one
network by block composition with a final clip, and the residual is audited
adversarially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from clipreg.netcore import (ClipregError, NetError, RepCert, RepNet, compose_parallel,
                             net_from_dict, net_to_dict, zero_net)
from clipreg.measure import FunctionOracle, Quadrature, oracle_from_values
from clipreg.adversary import Budget, DictSpec, best_gain_element, fit, invisibility_audit
# a stage's correlation search, pruned by successive halving; it keeps the name
# `ascend` here, under which perfbench/tracer.py times the stage ascent
from clipreg.adversary import _stage_ascend as ascend

_STAGE_SEED_STRIDE = 7919
_AUDIT_SEED_OFFSET = 104729
# certify_split accepts an audit value up to epsilon + this slack
_AUDIT_SLACK = 0.05


class DecomposeError(ClipregError):
    pass


def _non_increasing(levels) -> bool:
    return all(a >= b for a, b in zip(levels, levels[1:])) and levels[-1] >= -1e-12


def m_budget_for(epsilon: float) -> int:
    if not (0 < epsilon <= 1):
        raise DecomposeError(f"epsilon must lie in (0, 1], got {epsilon}", "epsilon")
    eps_sq = epsilon ** 2
    if eps_sq == 0 or math.isinf(1.0 / eps_sq):  # eps^2 underflows; ceil(inf) would raise
        raise DecomposeError(f"epsilon {epsilon} gives a stage budget 1/eps^2 that is not "
                             f"finite", "epsilon")
    return math.ceil(1.0 / eps_sq)


@dataclass(frozen=True)
class StagePick:
    k: int               # stage index, 1-based
    element: RepNet
    lam: float           # coefficient in [-q, q]
    gain: float          # energy decrease achieved, > eps^2 when accepted
    t_after: float       # squared residual norm after acceptance

    def to_dict(self) -> dict:
        return {"k": self.k, "lambda": self.lam, "gain": self.gain,
                "t_after": self.t_after, "element": net_to_dict(self.element)}


@dataclass(frozen=True)
class EnergyTrace:
    t0: float
    picks: tuple

    def levels(self) -> list:
        return [self.t0] + [p.t_after for p in self.picks]

    def is_monotone(self) -> bool:
        return _non_increasing(self.levels())

    def to_dict(self) -> dict:
        return {"t0": self.t0, "picks": [p.to_dict() for p in self.picks]}


@dataclass(frozen=True)
class DecompositionReport:
    g: RepNet
    m_prime: int
    m_budget: int
    epsilon: float
    trace: EnergyTrace
    residual_l2_sq: float
    residual_l1: float
    audit: dict                      # invisibility_audit output
    constructive_cert: RepCert
    conservative_cert: RepCert       # worst-case bound (2^m' d | r + m')
    budget_exhausted: bool
    seed: int
    config_echo: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "epsilon": self.epsilon,
            "m_prime": self.m_prime,
            "m_budget": self.m_budget,
            "budget_exhausted": self.budget_exhausted,
            "seed": self.seed,
            "trace": self.trace.to_dict(),
            "residual_l2_sq": self.residual_l2_sq,
            "residual_l1": self.residual_l1,
            "constructive_cert": {"d": self.constructive_cert.d, "r": self.constructive_cert.r},
            "conservative_cert": {"d": self.conservative_cert.d, "r": self.conservative_cert.r},
            "audit": {
                "invisible_up_to_budget": self.audit["invisible_up_to_budget"],
                "note": self.audit["note"],
                "result": self.audit["result"].to_dict(),
            },
            "g": net_to_dict(self.g),
            "config_echo": self.config_echo,
        }


def stage_solve(quad: Quadrature, spec: DictSpec, residual: FunctionOracle,
                budget: Budget, seed: int, threads: int = 1):
    """Best single dictionary step against the residual.

    Returns (element, its values at the nodes, lambda, gain).  The
    correlation search (`adversary._stage_ascend`: `ascend` with successive
    halving of its restarts) finds the element best correlated with the
    residual; the polish climbs the clamped gain from it and fresh starts,
    every restart to the end, ranks its candidates, the correlation witness
    among them, by the same gain, and its winner is the element.  lambda and
    gain are `fit`'s: the clamped minimizer of ||residual - lam*h||^2 and the
    exact decrease it achieves, the one the loop accepts on.
    """
    res = ascend(quad, spec, residual, budget, seed, threads=threads)
    # polish: the correlation maximizer points along the residual but may fit
    # it poorly; re-ascend on the clamped gain from the witness and fresh
    # starts (fewer of them — the warm start already carries the search)
    polish_budget = replace(budget, restarts=max(8, budget.restarts // 4))
    element = best_gain_element(quad, spec, residual, polish_budget, seed + 1,
                                threads=threads, warm_start=res.witness)
    hv = element.eval_batch(quad.nodes)
    lam, gain = fit(hv, quad.weights, residual.values(quad), spec.domain.q)
    return element, hv, float(lam), float(gain)


def decompose(quad: Quadrature, spec: DictSpec, f: FunctionOracle, epsilon: float,
              budget: Budget, seed: int, stage_dict: str = "fixed",
              threads: int = 1, config_echo: dict | None = None) -> DecompositionReport:
    """Run the energy-increment loop and audit the residual.

    stage_dict="fixed" searches F(d,r) at every stage; "growing" expands the
    dictionary to (2^{k-1} d | r+k-1) at stage k, as in the existence proof.
    """
    if stage_dict not in ("fixed", "growing"):
        raise DecomposeError(f"stage_dict must be 'fixed' or 'growing', got {stage_dict!r}",
                             "stage_dict")
    m_budget = m_budget_for(epsilon)
    eps_sq = epsilon ** 2

    fvals = f.values(quad)
    t0 = float(np.dot(quad.weights, fvals * fvals))
    if t0 > 1.0 + 1e-9:
        raise DecomposeError(f"target energy {t0} exceeds 1 (target not bounded by 1?)")

    picks = []
    resvals = fvals.copy()
    t_current = t0
    budget_exhausted = True
    for k in range(1, m_budget + 1):
        if stage_dict == "growing":
            stage_spec = DictSpec(2 ** (k - 1) * spec.d, spec.r + k - 1, spec.domain)
        else:
            stage_spec = spec
        residual = oracle_from_values(quad, resvals, f"residual-stage-{k}")
        element, hv, lam, gain = stage_solve(
            quad, stage_spec, residual, budget, seed + _STAGE_SEED_STRIDE * k, threads=threads)
        if gain <= eps_sq:  # strict improvement required; ties reject
            budget_exhausted = False
            break
        t_current -= gain
        resvals = resvals - lam * hv
        picks.append(StagePick(k=k, element=element, lam=lam, gain=gain, t_after=t_current))

    m_prime = len(picks)
    if m_prime == 0:
        g = zero_net(spec.domain)
    else:
        g = compose_parallel([p.element for p in picks], [p.lam for p in picks], spec.domain)

    gvals = g.eval_batch(quad.nodes)
    diff = fvals - gvals
    residual_l2_sq = float(np.dot(quad.weights, diff * diff))
    residual_l1 = float(np.dot(quad.weights, np.abs(diff)))

    audit = invisibility_audit(
        quad, spec, oracle_from_values(quad, diff, "f-g"), epsilon,
        budget, seed + _AUDIT_SEED_OFFSET, threads=threads)

    conservative = RepCert(2 ** m_prime * spec.d, spec.r + m_prime)
    return DecompositionReport(
        g=g,
        m_prime=m_prime,
        m_budget=m_budget,
        epsilon=epsilon,
        trace=EnergyTrace(t0=t0, picks=tuple(picks)),
        residual_l2_sq=residual_l2_sq,
        residual_l1=residual_l1,
        audit=audit,
        constructive_cert=g.cert,
        conservative_cert=conservative,
        budget_exhausted=budget_exhausted,
        seed=seed,
        config_echo=config_echo or {},
    )


def _built(field: str, build, *args, **kwargs):
    """Build a value from a report field; a range check that `build` fails
    becomes a DecomposeError naming the field."""
    try:
        return build(*args, **kwargs)
    except NetError as e:
        raise DecomposeError(str(e), f"{field}.{e.param}" if e.param else field) from e


def certify_split(report: dict, quad: Quadrature, f: FunctionOracle, epsilon: float,
                  spec: DictSpec) -> dict:
    """Pure re-verification of a report in its written form (``to_dict()`` or
    the parsed ``report.json``) against the run's epsilon and dictionary: its
    epsilon and stage budget, g rebuilt from the stored picks and their
    coefficients, the residual, stage bound, monotone trace, certificates,
    and the audit threshold.

    A field of the right JSON type but out of range (a net, pick or
    certificate that cannot be built, or g on another dimension than the
    quadrature or in another weight box than [-q, q]) raises DecomposeError
    naming the field."""
    checks = []
    q, m_budget = spec.domain.q, m_budget_for(epsilon)

    if report["g"]["n"] != quad.n:
        raise DecomposeError(f"net dimension {report['g']['n']} != quadrature dimension "
                             f"{quad.n}", "g.n")
    if report["g"]["q"] != q:
        raise DecomposeError(f"net weight box q={report['g']['q']} != configured q={q}", "g.q")
    g = _built("g", net_from_dict, report["g"])
    picks = report["trace"]["picks"]
    elements = [_built(f"trace.picks[{i}].element", net_from_dict, p["element"])
                for i, p in enumerate(picks)]
    rebuilt = (_built("trace.picks", compose_parallel, elements, [p["lambda"] for p in picks],
                      spec.domain) if picks else zero_net(spec.domain))
    checks.append(("epsilon", report["epsilon"] == epsilon,
                   f"reported {report['epsilon']} vs configured {epsilon}"))
    checks.append(("m_budget", report["m_budget"] == m_budget,
                   f"reported {report['m_budget']} vs ceil(1/eps^2) = {m_budget}"))
    checks.append(("g_from_picks", net_to_dict(rebuilt) == report["g"],
                   "g is the composition of the stored picks with their lambdas"))

    diff = f.values(quad) - g.eval_batch(quad.nodes)
    res_sq = float(np.dot(quad.weights, diff * diff))
    checks.append(("residual_l2_sq", abs(res_sq - report["residual_l2_sq"]) <= 1e-10,
                   f"recomputed {res_sq} vs reported {report['residual_l2_sq']}"))

    checks.append(("stage_bound", report["m_prime"] <= m_budget,
                   f"m'={report['m_prime']} vs budget {m_budget}"))
    checks.append(("m_prime_picks", report["m_prime"] == len(picks),
                   f"m'={report['m_prime']} vs {len(picks)} stored picks"))

    t0 = report["trace"]["t0"]
    checks.append(("trace_monotone", _non_increasing([t0] + [p["t_after"] for p in picks]),
                   "energy levels non-increasing"))
    checks.append(("gains_exceed_eps_sq", all(p["gain"] > epsilon ** 2 for p in picks),
                   "every accepted gain > eps^2"))
    checks.append(("trace_t0", t0 <= 1.0 + 1e-9, f"t0={t0}"))

    conservative = RepCert(2 ** len(picks) * spec.d, spec.r + len(picks))
    constructive = _built("constructive_cert", RepCert, **report["constructive_cert"])
    checks.append(("cert_conservative",
                   report["conservative_cert"] == {"d": conservative.d, "r": conservative.r},
                   f"reported {report['conservative_cert']} vs (2^m' d | r + m') {conservative}"))
    checks.append(("cert_dominance", conservative.dominates(constructive),
                   f"{conservative} dominates {constructive}"))
    checks.append(("cert_constructive", g.satisfies(constructive),
                   "assembled net satisfies its constructive certificate"))

    audit = report["audit"]["result"]
    ok_audit = audit["value"] <= epsilon + _AUDIT_SLACK
    detail = f"audit value {audit['value']} vs eps+slack {epsilon + _AUDIT_SLACK}"
    if not ok_audit:
        detail += "; witness: " + str(audit["witness"])
    checks.append(("audit_threshold", ok_audit, detail))

    return {"ok": all(ok for _, ok, _ in checks),
            "details": [{"check": name, "ok": ok, "detail": d} for name, ok, d in checks]}
