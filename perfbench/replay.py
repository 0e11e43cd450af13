"""Independent replay of a clipreg decomposition report.

Nothing here imports clipreg.  The quadrature is rebuilt with
``scipy.stats.qmc`` and every stored network is evaluated with a plain numpy
forward pass, so a fault shared by clipreg's own evaluator and its own
verifier still shows.  ``check_report`` returns a list of problems; an empty
list means the report is what the stored picks and the quadrature imply.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.stats import qmc

# Recomputed sums run in another order than clipreg's, so values that pass
# through a dot product over 2^14 nodes are compared to this tolerance.
TOL = 1e-9
AUDIT_SLACK = 0.05


def sobol_nodes(n: int, size: int, seed: int) -> np.ndarray:
    """First `size` points of the seeded scrambled Sobol sequence, on [-1,1]^n."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sizes that are not powers of two
        u = qmc.Sobol(d=n, scramble=True, seed=seed).random(size)
    return 2.0 * u - 1.0


def forward(net: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate a serialized net {n, q, layers: [[{w, b}, ...], ...]} at X (N, n)."""
    A = X
    for units in net["layers"]:
        W = np.array([u["w"] for u in units], dtype=np.float64)
        b = np.array([u["b"] for u in units], dtype=np.float64)
        A = np.clip(A @ W.T + b, -1.0, 1.0)
    return A[:, 0]


def sign_product(X: np.ndarray) -> np.ndarray:
    return np.prod(np.where(X >= 0, 1.0, -1.0), axis=1)


def grid_problems(X: np.ndarray, fvals: np.ndarray, k: int) -> list:
    """A random-grid target must lie in [-1,1] and be constant on each grid cell.

    The cell values themselves come from a hash that the program may change,
    so only these two properties are checked.
    """
    problems = []
    if not np.all(np.abs(fvals) <= 1.0):
        problems.append("random-grid target leaves [-1,1]")
    cells = 2 ** k
    bins = np.clip(((X + 1.0) / 2.0 * cells).astype(np.int64), 0, cells - 1)
    _, inv = np.unique(bins, axis=0, return_inverse=True)
    inv = inv.ravel()
    lo = np.full(inv.max() + 1, np.inf)
    hi = np.full(inv.max() + 1, -np.inf)
    np.minimum.at(lo, inv, fvals)
    np.maximum.at(hi, inv, fvals)
    if np.any(hi != lo):
        problems.append(f"random-grid target varies inside {int(np.sum(hi != lo))} grid cells")
    return problems


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_report(report: dict, witness: dict, cfg: dict, X: np.ndarray,
                 fvals: np.ndarray) -> list:
    """Replay the greedy loop from the stored picks and check every number.

    `X` are the quadrature nodes (equal weights), `fvals` the target there.
    """
    problems = []
    w = np.full(X.shape[0], 1.0 / X.shape[0])
    eps = float(cfg["epsilon"])
    q = float(cfg["domain"]["q"])
    picks = report["trace"]["picks"]

    t0 = float(w @ (fvals * fvals))
    if not _close(t0, report["trace"]["t0"]):
        problems.append(f"t0: replayed {t0!r}, reported {report['trace']['t0']!r}")

    resvals = fvals.copy()
    t = t0
    gsum = np.zeros_like(fvals)
    for p in picks:
        hv = forward(p["element"], X)
        c = float(w @ (hv * resvals))
        h2 = float(w @ (hv * hv))
        lam = float(np.clip(c / h2, -q, q)) if h2 >= 1e-14 else 0.0
        gain = 2.0 * lam * c - lam * lam * h2
        t -= gain
        for name, mine, theirs in (("lambda", lam, p["lambda"]), ("gain", gain, p["gain"]),
                                   ("t_after", t, p["t_after"])):
            if not _close(mine, theirs):
                problems.append(f"pick {p['k']} {name}: replayed {mine!r}, reported {theirs!r}")
        resvals = resvals - lam * hv
        gsum += lam * hv

    gvals = forward(report["g"], X)
    if picks:
        err = float(np.max(np.abs(gvals - np.clip(gsum, -1.0, 1.0))))
        if err > 1e-12:
            problems.append(f"g differs from clip(sum lambda_k h_k) by {err!r}")
    elif np.any(gvals != 0.0):
        problems.append("g is not zero although no pick was accepted")

    diff = fvals - gvals
    res_sq = float(w @ (diff * diff))
    if not _close(res_sq, report["residual_l2_sq"]):
        problems.append(f"residual_l2_sq: replayed {res_sq!r}, "
                        f"reported {report['residual_l2_sq']!r}")

    audit = report["audit"]["result"]
    if witness != audit:
        problems.append("witness.json differs from the audit result in report.json")
    audit_value = abs(float(w @ (forward(audit["witness"], X) * diff)))
    if not _close(audit_value, audit["value"]):
        problems.append(f"audit value: replayed {audit_value!r}, reported {audit['value']!r}")

    # properties the method guarantees
    m_budget = math.ceil(1.0 / eps ** 2)
    if report["m_prime"] != len(picks):
        problems.append(f"m_prime {report['m_prime']} but {len(picks)} picks stored")
    if len(picks) > m_budget:
        problems.append(f"{len(picks)} picks exceed the stage budget {m_budget}")
    for p in picks:
        if not p["gain"] > eps ** 2:
            problems.append(f"pick {p['k']} gain {p['gain']!r} is not above eps^2")
    levels = [report["trace"]["t0"]] + [p["t_after"] for p in picks]
    if any(b > a for a, b in zip(levels, levels[1:])):
        problems.append("energy trace is not monotone")
    if report["residual_l2_sq"] > levels[-1] + 1e-12:
        problems.append("residual_l2_sq exceeds the last trace level")
    if audit["value"] > eps + AUDIT_SLACK:
        problems.append(f"audit value {audit['value']!r} exceeds eps + {AUDIT_SLACK}")
    return problems


def check_trace_csv(text: str, report: dict) -> list:
    """trace.csv must hold exactly the picks of report.json."""
    rows = [line.split(",") for line in text.strip().splitlines()]
    want = [["k", "t_after", "lambda", "gain"]] + [
        [str(p["k"]), repr(p["t_after"]), repr(p["lambda"]), repr(p["gain"])]
        for p in report["trace"]["picks"]]
    return [] if rows == want else ["trace.csv differs from the picks in report.json"]
