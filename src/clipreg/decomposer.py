"""Greedy energy-increment decomposition.

Each stage asks the adversary for the dictionary element best correlated with
the current residual, scales it optimally within [-q, q], and accepts the pick
only if the squared-residual decrease exceeds eps^2.  Since the initial energy
is at most 1, at most ceil(1/eps^2) stages can be accepted, independently of
the target and the dimension.  No stage gains more than the energy left, so
the loop stops without a search once that energy is at most eps^2: the stage
it skips could not be accepted.  The accepted elements are assembled into one
network by block composition with a final clip, and the residual is audited
adversarially.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from clipreg.netcore import (ClipregError, NetError, RepCert, RepNet, compose_parallel,
                             net_from_dict, net_to_dict, zero_net)
from clipreg.measure import FunctionOracle, Quadrature, oracle_from_values
from clipreg.adversary import (AdversaryResult, Budget, DictSpec, ascend, audit_verdict,
                               best_gain_element, correlation, fit, invisibility_audit)

SCHEMA_VERSION = 1
_STAGE_SEED_STRIDE = 7919
_AUDIT_SEED_OFFSET = 104729
# certify_split accepts an audit value up to epsilon + this slack
_AUDIT_SLACK = 0.05
# decompose stops before a stage once the level is at most eps^2 * (1 - this).
# fit's gain exceeds the energy left by a few ulps at most (its docstring), so
# the margin leaves every level at which a search could still be accepted searched.
_ENERGY_STOP_MARGIN = 1e-9


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
    audit: AdversaryResult           # the residual audit's search
    constructive_cert: RepCert
    conservative_cert: RepCert       # worst-case bound (2^m' d | r + m')
    budget_exhausted: bool
    seed: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "epsilon": self.epsilon,
            "m_prime": self.m_prime,
            "m_budget": self.m_budget,
            "budget_exhausted": self.budget_exhausted,
            "seed": self.seed,
            "trace": self.trace.to_dict(),
            "residual_l2_sq": self.residual_l2_sq,
            "residual_l1": self.residual_l1,
            "constructive_cert": asdict(self.constructive_cert),
            "conservative_cert": asdict(self.conservative_cert),
            "audit": {**audit_verdict(self.audit.value, self.epsilon),
                      "result": self.audit.to_dict()},
            "g": net_to_dict(self.g),
        }


def stage_dictionary(spec: DictSpec, stage_dict: str):
    """Stage k's dictionary as a function of k: `spec` at every stage when
    stage_dict is "fixed", (2^{k-1} d | r+k-1) when "growing", as in the
    existence proof."""
    if stage_dict == "fixed":
        return lambda k: spec
    if stage_dict == "growing":
        return lambda k: DictSpec(2 ** (k - 1) * spec.d, spec.r + k - 1, spec.domain)
    raise DecomposeError(f"stage_dict must be 'fixed' or 'growing', got {stage_dict!r}",
                         "stage_dict")


def target_values(quad: Quadrature, f: FunctionOracle):
    """f's values at the nodes; f must map W_n into [-1, 1], so t0 <= 1."""
    fvals = f.values(quad)
    outside = ~(np.abs(fvals) <= 1.0)  # NaN lies outside too
    if outside.any():
        raise DecomposeError(f"target values lie outside [-1, 1] at {int(outside.sum())} of "
                             f"{len(fvals)} nodes", "target")
    return fvals


def stage_solve(quad: Quadrature, spec: DictSpec, residual, budget: Budget, seed: int,
                threads: int = 1):
    """Best single dictionary step against the residual's (N,) node values.

    Returns (element, its values at the nodes by `RepNet.eval_batch`,
    lambda, gain).  The correlation search (`adversary.ascend` with
    successive halving of its restarts) finds the element best correlated
    with the residual; the polish climbs the clamped gain from it and
    fresh starts, every restart to the end, ranks its candidates, the
    correlation witness among them, by the same gain, and its winner is the
    element.  lambda and gain are `fit`'s: the clamped minimizer of
    ||residual - lam*h||^2 and the exact decrease it achieves, the one the
    loop accepts on.
    """
    res = ascend(quad, spec, residual, budget, seed, threads=threads, prune=True)
    # polish: the correlation maximizer points along the residual but may fit
    # it poorly; re-ascend on the clamped gain from the witness and fresh
    # starts (fewer of them — the warm start already carries the search)
    polish_budget = replace(budget, restarts=max(8, budget.restarts // 4))
    element = best_gain_element(quad, spec, residual, polish_budget, seed + 1,
                                threads=threads, warm_start=res.witness)
    hv = element.eval_batch(quad.nodes)
    lam, gain = fit(hv, quad.weights, residual, spec.domain.q)
    return element, hv, float(lam), float(gain)


def decompose(quad: Quadrature, spec: DictSpec, f: FunctionOracle, epsilon: float,
              budget: Budget, seed: int, stage_dict: str = "fixed",
              threads: int = 1) -> DecompositionReport:
    """Run the energy-increment loop and audit the residual.

    Stage k searches `stage_dictionary(spec, stage_dict)(k)`: F(d,r) at
    every stage when fixed, (2^{k-1} d | r+k-1) when growing.

    The loop ends after m_budget accepted stages (budget_exhausted), at the
    first stage whose gain is at most eps^2, or, without searching stage k,
    when the level before it is at most eps^2 * (1 - _ENERGY_STOP_MARGIN):
    a gain never exceeds the energy left, so that stage would be rejected.
    The report's last level tells the two rejections apart.
    """
    stage_spec = stage_dictionary(spec, stage_dict)
    m_budget = m_budget_for(epsilon)
    eps_sq = epsilon ** 2

    fvals = target_values(quad, f)
    t0 = quad.integral(fvals * fvals)

    picks = []
    resvals = fvals.copy()
    t_current = t0
    for k in range(1, m_budget + 1):
        if t_current <= eps_sq * (1.0 - _ENERGY_STOP_MARGIN):
            break
        element, hv, lam, gain = stage_solve(
            quad, stage_spec(k), resvals, budget, seed + _STAGE_SEED_STRIDE * k, threads=threads)
        if gain <= eps_sq:  # strict improvement required; ties reject
            break
        t_current -= gain
        resvals = resvals - lam * hv
        picks.append(StagePick(k=k, element=element, lam=lam, gain=gain, t_after=t_current))

    g, diff, residual_l2_sq, residual_l1 = _assemble(
        quad, fvals, [p.element for p in picks], [p.lam for p in picks], spec.domain)
    audit = invisibility_audit(
        quad, spec, oracle_from_values(quad, diff, "f-g"), epsilon,
        budget, seed + _AUDIT_SEED_OFFSET, threads=threads)["result"]
    return DecompositionReport(
        g=g,
        epsilon=epsilon,
        trace=EnergyTrace(t0=t0, picks=tuple(picks)),
        residual_l2_sq=residual_l2_sq,
        residual_l1=residual_l1,
        audit=audit,
        seed=seed,
        **_bookkeeping(len(picks), m_budget, spec, g),
    )


def _assemble(quad: Quadrature, fvals, elements, lams, domain):
    """g, the elements composed with their coefficients (the zero net
    without any), and f - g's node values, squared L2 norm and L1 norm."""
    g = compose_parallel(elements, lams, domain) if elements else zero_net(domain)
    diff = fvals - g.eval_batch(quad.nodes)
    return g, diff, quad.integral(diff * diff), quad.integral(np.abs(diff))


def _bookkeeping(m_prime: int, m_budget: int, spec: DictSpec, g: RepNet) -> dict:
    """The report's stage counts and certificates by field name; the
    conservative certificate is (2^m' d | r + m') from the dictionary's (d|r)."""
    return {"m_prime": m_prime, "m_budget": m_budget, "budget_exhausted": m_prime == m_budget,
            "constructive_cert": g.cert,
            "conservative_cert": RepCert(2 ** m_prime * spec.d, spec.r + m_prime)}


def _built(field: str, build, *args, **kwargs):
    """Build a value from a report field; a range check that `build` fails
    becomes a DecomposeError naming the field."""
    try:
        return build(*args, **kwargs)
    except NetError as e:
        raise DecomposeError(str(e), f"{field}.{e.param}" if e.param else field) from e


def _stored_net(field: str, obj: dict, spec: DictSpec) -> RepNet:
    """The net that report field `field` stores, built on spec's domain; one
    that cannot be built there or is not a net of the dictionary `spec`
    raises a DecomposeError naming the field."""
    net = _built(field, net_from_dict, obj, spec.domain)
    if not spec.holds(net):
        raise DecomposeError(f"net of hidden widths {net.widths} is not in the dictionary "
                             f"{spec}", field)
    return net


def certify_split(report: dict, quad: Quadrature, f: FunctionOracle, cfg) -> dict:
    """Pure re-verification of a report in its written form (``to_dict()`` or
    the parsed ``report.json``) against the run `cfg`, a `config.RunConfig`.

    g is rebuilt from the stored picks as `decompose` builds it and must be
    the stored g (g_from_picks).  Each field that `decompose` derives or
    takes from the run is derived again and checked under its JSON path
    (trace.t0, residual_l1, m_prime, trace.picks.k, seed, audit.result.value
    from the stored witness, audit.note, ...).
    The other checks: stage_bound, trace_monotone, gains_exceed_eps_sq,
    audit_threshold.

    A field of the right JSON type but out of range raises DecomposeError
    naming the field: a net, pick or certificate that cannot be built, a net
    off the run's domain, or a pick k not of stage k's dictionary
    (`stage_dictionary`) or an audit witness not of the run's.  So does a
    target outside [-1, 1] at a node ("target")."""
    spec, epsilon, seed = cfg.dict_spec, cfg.epsilon, cfg.solver_seed
    stage_spec, m_budget = stage_dictionary(spec, cfg.stage_dict), m_budget_for(epsilon)

    # g is held to the run's domain only: g_from_picks compares it with the rebuilt g
    _built("g", net_from_dict, report["g"], spec.domain)
    picks, audit = report["trace"]["picks"], report["audit"]["result"]
    # the fields that are re-derived, by JSON path; the certificates built
    stated = {**report, "trace.t0": report["trace"]["t0"],
              "trace.picks.k": [p["k"] for p in picks],
              **{f"audit.result.{key}": audit[key] for key in ("value", "seed", "budget")},
              **{f"audit.{key}": v for key, v in report["audit"].items()},
              **{name: _built(name, RepCert, **report[name])
                 for name in ("constructive_cert", "conservative_cert")}}
    elements = [_stored_net(f"trace.picks[{i}].element", p["element"], stage_spec(i + 1))
                for i, p in enumerate(picks)]
    witness = _stored_net("audit.result.witness", audit["witness"], spec)
    fvals = target_values(quad, f)
    rebuilt, diff, residual_l2_sq, residual_l1 = _built(
        "trace.picks", _assemble, quad, fvals, elements, [p["lambda"] for p in picks],
        spec.domain)
    checks = [("g_from_picks", net_to_dict(rebuilt) == report["g"],
               "g is the composition of the stored picks with their lambdas")]

    # node sums in a fixed order, but of net values from BLAS products,
    # which another machine's kernels may round otherwise
    for path, got in (("trace.t0", quad.integral(fvals * fvals)),
                      ("residual_l2_sq", residual_l2_sq), ("residual_l1", residual_l1),
                      ("audit.result.value", correlation(quad, witness, diff))):
        checks.append((path, abs(got - stated[path]) <= 1e-10,
                       f"recomputed {got} vs reported {stated[path]}"))
    derived = {"schema_version": SCHEMA_VERSION, "epsilon": epsilon, "seed": seed,
               **_bookkeeping(len(picks), m_budget, spec, rebuilt),
               "trace.picks.k": list(range(1, len(picks) + 1)),
               "audit.result.seed": seed + _AUDIT_SEED_OFFSET,
               "audit.result.budget": asdict(cfg.budget),
               **{f"audit.{key}": v for key, v in audit_verdict(audit["value"], epsilon).items()}}
    for path, want in derived.items():
        checks.append((path, stated[path] == want,
                       f"reported {stated[path]!r} vs derived {want!r}"))

    checks.append(("stage_bound", report["m_prime"] <= m_budget,
                   f"m'={report['m_prime']} vs budget {m_budget}"))
    checks.append(("trace_monotone",
                   _non_increasing([report["trace"]["t0"]] + [p["t_after"] for p in picks]),
                   "energy levels non-increasing"))
    checks.append(("gains_exceed_eps_sq", all(p["gain"] > epsilon ** 2 for p in picks),
                   "every accepted gain > eps^2"))

    ok_audit = audit["value"] <= epsilon + _AUDIT_SLACK
    detail = f"audit value {audit['value']} vs eps+slack {epsilon + _AUDIT_SLACK}"
    if not ok_audit:
        detail += "; witness: " + str(audit["witness"])
    checks.append(("audit_threshold", ok_audit, detail))

    return {"ok": all(ok for _, ok, _ in checks),
            "details": [{"check": name, "ok": ok, "detail": d} for name, ok, d in checks]}
