"""The normalized measure on [-1,1]^n as deterministic quadrature, plus the
inner product, L2 norm, and normalized L1 distance built on it.

One Quadrature object is shared across an entire experiment so that every
norm and inner product lives on the same nodes; the monotonicity of the
energy trace then holds exactly, not up to sampling noise.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from clipreg.netcore import ClipregError, DomainSpec, RepNet

SCHEMES = ("tensor-grid", "low-discrepancy", "seeded-uniform")
_TENSOR_GRID_MAX_DIM = 4


class MeasureError(ClipregError):
    pass


@dataclass(frozen=True)
class Quadrature:
    nodes: np.ndarray  # (N, n), inside [-1,1]^n
    weights: np.ndarray  # (N,), positive, sums to 1
    scheme_id: str
    seed: int

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if nodes.ndim != 2 or weights.shape != (nodes.shape[0],):
            raise MeasureError("nodes must be (N, n) with matching weights (N,)")
        if np.any(weights <= 0):
            raise MeasureError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise MeasureError("weights must sum to 1 (probability measure)")
        if np.max(np.abs(nodes)) > 1.0 + 1e-12:
            raise MeasureError("nodes must lie inside the hypercube")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def build_quadrature(spec: DomainSpec, scheme: str, size: int, seed: int = 0) -> Quadrature:
    """Deterministic nodes/weights for the uniform probability measure.

    tensor-grid: Gauss-Legendre with `size` nodes per axis (n <= 4 only).
    low-discrepancy: first `size` points of a seeded scrambled Sobol sequence.
    seeded-uniform: pseudo-random uniform points, equal weights.
    """
    if size < 1:
        raise MeasureError(f"size must be >= 1, got {size}", "size")
    if scheme == "tensor-grid":
        if spec.n > _TENSOR_GRID_MAX_DIM:
            raise MeasureError(f"tensor-grid rejected for n={spec.n} > {_TENSOR_GRID_MAX_DIM} "
                               "(node count explosion)", "scheme")
        x, w = np.polynomial.legendre.leggauss(size)
        w = w / 2.0  # normalize per axis: weights on [-1,1] sum to 2
        axes = np.meshgrid(*([x] * spec.n), indexing="ij")
        nodes = np.stack([a.ravel() for a in axes], axis=1)
        wts = np.ones(size ** spec.n)
        for a in np.meshgrid(*([w] * spec.n), indexing="ij"):
            wts = wts * a.ravel()
        wts = wts / wts.sum()
        return Quadrature(nodes, wts, scheme_id="tensor-grid", seed=seed)
    if scheme == "low-discrepancy":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non power-of-two sizes
            sampler = qmc.Sobol(d=spec.n, scramble=True, seed=seed)
            u = sampler.random(size)
        nodes = 2.0 * u - 1.0
        return Quadrature(nodes, np.full(size, 1.0 / size), "low-discrepancy", seed)
    if scheme == "seeded-uniform":
        rng = np.random.default_rng(seed)
        nodes = rng.uniform(-1.0, 1.0, size=(size, spec.n))
        return Quadrature(nodes, np.full(size, 1.0 / size), "seeded-uniform", seed)
    raise MeasureError(f"unknown quadrature scheme {scheme!r}; expected one of {SCHEMES}", "scheme")


class FunctionOracle:
    """A function on the hypercube, evaluated batch-wise and cached per quadrature.

    Values are expected in [-1,1]; out-of-range values are clamped and counted
    (set clamp=False for differences, which live in [-2,2]).  A NaN or
    infinite value is an error.
    """

    def __init__(self, fn, descriptor: str = "", clamp: bool = True):
        self._fn = fn
        self.descriptor = descriptor
        self.clamp = clamp
        self.clamp_events = 0
        self._cache = {}

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        vals = np.asarray(self._fn(np.asarray(X, dtype=np.float64)), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise MeasureError(f"function {self.descriptor!r} has a non-finite value")
        if self.clamp:
            over = np.abs(vals) > 1.0 + 1e-12
            if np.any(over):
                self.clamp_events += int(over.sum())
            vals = np.clip(vals, -1.0, 1.0)
        return vals

    def values(self, quad: Quadrature) -> np.ndarray:
        hit = self._cache.get(id(quad))
        if hit is not None:
            return hit[1]
        vals = self.evaluate(quad.nodes)
        vals.setflags(write=False)
        self._cache[id(quad)] = (quad, vals)  # keep quad alive so id stays valid
        return vals


def oracle_from_net(net: RepNet, descriptor: str = "") -> FunctionOracle:
    return FunctionOracle(net.eval_batch, descriptor or "repnet", clamp=False)


def oracle_from_values(quad: Quadrature, vals: np.ndarray, descriptor: str = "") -> FunctionOracle:
    """Oracle backed by precomputed node values; valid only on `quad`."""
    vals = np.asarray(vals, dtype=np.float64)

    def fn(X):
        if X.shape != quad.nodes.shape or X is not quad.nodes and not np.array_equal(X, quad.nodes):
            raise MeasureError("value-backed oracle queried off its quadrature")
        return vals

    return FunctionOracle(fn, descriptor or "values", clamp=False)


def inner(quad: Quadrature, a: FunctionOracle, b: FunctionOracle) -> float:
    """<a, b> = sum_i weight_i a(node_i) b(node_i); fixed node order."""
    return float(np.dot(quad.weights, a.values(quad) * b.values(quad)))


def l2_norm_sq(quad: Quadrature, f: FunctionOracle) -> float:
    v = f.values(quad)
    return float(np.dot(quad.weights, v * v))


def sigma_l1(quad: Quadrature, f: FunctionOracle, g: FunctionOracle) -> float:
    """Normalized L1 distance; exact metric at the quadrature level."""
    return float(np.dot(quad.weights, np.abs(f.values(quad) - g.values(quad))))


def export_nodes_csv(quad: Quadrature, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(quad.n)] + ["weight"])
        for node, w in zip(quad.nodes, quad.weights):
            writer.writerow([repr(float(x)) for x in node] + [repr(float(w))])
