"""The normalized measure on [-1,1]^n as deterministic quadrature, plus the
inner product, L2 norm, and normalized L1 distance built on it.

One Quadrature object is shared across an entire experiment so that every
norm and inner product lives on the same nodes; the monotonicity of the
energy trace then holds exactly, not up to sampling noise.
"""

from __future__ import annotations

import functools
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clipreg.netcore import NODE_BLOCK, ClipregError, DomainSpec, RepNet, check_seed

SCHEMES = ("tensor-grid", "low-discrepancy", "seeded-uniform")
_TENSOR_GRID_MAX_DIM = 4
_SOBOL_BITS = 30
_SOBOL_MAX_POINTS = 2 ** _SOBOL_BITS  # the most points a 30-bit Sobol sequence has
# the largest float64 array any scheme may allocate: 2**30 values, 8 GiB
_MAX_BYTES = 8 * 2 ** 30
# Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 2008), the table scipy ships
_SOBOL_TABLE = Path(__file__).with_name("_sobol_direction_numbers.npz")
_SOBOL_MAX_DIM = 21201  # rows of the table


class MeasureError(ClipregError):
    pass


@dataclass(frozen=True)
class Quadrature:
    nodes: np.ndarray  # (N, n), inside [-1,1]^n: the transposed view of `XT`
    weights: np.ndarray  # (N,), positive, sums to 1
    scheme_id: str
    seed: int

    def __post_init__(self):
        # held once, as one C-ordered (n, N) array: nodes that view one are not copied
        XT = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64).T)
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if XT.ndim != 2 or weights.shape != (XT.shape[1],):
            raise MeasureError("nodes must be (N, n) with matching weights (N,)")
        # written so that NaN fails each check, as it fails every comparison
        if not np.all(weights > 0):
            raise MeasureError("weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise MeasureError("weights must sum to 1 (probability measure)")
        # min and max copy nothing, as np.abs would; the empty (N, 0) nodes pass
        if not (XT.min(initial=0.0) >= -1.0 - 1e-12 and XT.max(initial=0.0) <= 1.0 + 1e-12):
            raise MeasureError("nodes must lie inside the hypercube")
        XT.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", XT.T)
        object.__setattr__(self, "weights", weights)

    @property
    def XT(self) -> np.ndarray:
        """The nodes as the one C-ordered (n, N) array that `nodes` views."""
        return self.nodes.T

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def integral(self, values) -> float:
        """sum_i weight_i values_i of (N,) node values: every weighted node
        sum, the `node_sum` of the products, so no BLAS thread count moves
        its bits."""
        return float(node_sum(self.weights * values))


def block_total(parts):
    """The node sum from its block partials: `parts` holds, in
    `netcore.node_blocks`' order, np.add.reduce over each block's nodes,
    each (...,), and the total is np.add.reduce over them.

    Every float64 node sum adds in this one order, whether its blocks are
    slices of one array (`node_sum`) or made one at a time (the adversary's
    rescore), and no thread count or batch shape moves its bits: a row of a
    stack sums as that row alone."""
    return np.add.reduce(np.stack(parts, axis=-1), axis=-1)


def node_sum(values):
    """The sum over the last axis, the nodes, of `values` (..., N), in
    `block_total`'s fixed order: the full blocks reduce as one reshape, the
    short last block on its own."""
    v = np.ascontiguousarray(values)  # a reduce over a strided axis adds in another order
    full = v.shape[-1] - v.shape[-1] % NODE_BLOCK
    parts = [np.add.reduce(v[..., :full].reshape(*v.shape[:-1], -1, NODE_BLOCK), axis=-1)]
    if full < v.shape[-1]:
        parts.append(np.add.reduce(v[..., full:], axis=-1, keepdims=True))
    return np.add.reduce(np.concatenate(parts, axis=-1), axis=-1)


def _table_rows(member: str, n: int, columns: int = 1) -> np.ndarray:
    """Rows [0, n) of the first `columns` columns of one array of the table.

    Decompresses only the prefix of the member that holds them, not the whole
    array.  Both arrays are stored column-major (`vinit` in Fortran order,
    `poly` 1-D), so column j starts at value j * rows."""
    with zipfile.ZipFile(_SOBOL_TABLE) as zf, zf.open(member + ".npy") as fh:
        np.lib.format.read_magic(fh)  # the vendored file is format 1.0
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        rows = shape[0]
        flat = np.frombuffer(fh.read(((columns - 1) * rows + n) * dtype.itemsize), dtype)
    return np.stack([flat[j * rows:j * rows + n] for j in range(columns)], axis=1)


@functools.cache
def _sobol_directions(n: int) -> np.ndarray:
    """(n, 30) direction numbers of the first n Sobol dimensions, expanded from
    the table by the Bratley-Fox recurrence, as scipy's `_initialize_v` does."""
    poly = _table_rows("poly", n)[:, 0]
    degree = np.frexp(poly.astype(np.float64))[1] - 1
    vinit = _table_rows("vinit", n, max(1, int(degree.max())))
    v = np.ones((n, _SOBOL_BITS), dtype=np.uint32)  # dimension 0 has degree 0: all ones
    for m in range(1, int(degree.max()) + 1):  # not np.unique, which imports numpy.ma
        rows = np.flatnonzero(degree == m)
        block = np.zeros((rows.size, _SOBOL_BITS), dtype=np.uint32)
        block[:, :m] = vinit[rows, :m]
        taps = [((poly[rows] >> (m - 1 - k)) & 1).astype(np.uint32) << (k + 1) for k in range(m)]
        for j in range(m, _SOBOL_BITS):
            new = block[:, j - m].copy()
            for k, tap in enumerate(taps):
                new ^= tap * block[:, j - k - 1]
            block[:, j] = new
        v[rows] = block
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    v.setflags(write=False)
    return v


def _sobol(n: int, size: int, seed: int) -> np.ndarray:
    """The first `size` points of scipy's `qmc.Sobol(d=n, scramble=True,
    seed=seed)`, bit for bit: Matousek's LMS scramble plus a digital shift,
    drawn in scipy's order, and the points in Gray-code order as columns, (n, size)."""
    rng = np.random.default_rng(seed)
    pow2 = np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, (n, _SOBOL_BITS), dtype=np.uint32) @ pow2
    ltm = np.tril(rng.integers(0, 2, (n, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    # each direction number as a bit vector, top bit first, times ltm over GF(2)
    top_first = pow2[::-1]
    bits = ((_sobol_directions(n)[:, :, None] & top_first) != 0).astype(np.uint32)
    v = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ top_first
    # point i is the XOR of v[:, k] over the bits k of gray(i); the Gray code
    # of [m, 2m) is that of [0, m) reflected, with bit log2(m) set
    Y = np.zeros((n, size), dtype=np.uint32)
    for k in range((size - 1).bit_length()):
        m = 1 << k
        c = min(m, size - m)
        np.bitwise_xor(Y[:, m - 1::-1][:, :c], v[:, k, None], out=Y[:, m:m + c])
    Y ^= shift[:, None]
    return np.multiply(Y, 2.0 ** -_SOBOL_BITS)


def build_quadrature(spec: DomainSpec, scheme: str, size: int, seed: int = 0) -> Quadrature:
    """Deterministic nodes/weights for the uniform probability measure.

    tensor-grid: Gauss-Legendre with `size` nodes per axis (n <= 4 only).
    low-discrepancy: first `size` points of a seeded scrambled Sobol sequence.
    seeded-uniform: pseudo-random uniform points, equal weights.
    The largest array each scheme allocates is checked against 8 GiB before
    anything is allocated, and a Sobol sequence has at most 2**30 points.
    """
    if scheme not in SCHEMES:
        raise MeasureError(f"unknown quadrature scheme {scheme!r}; expected one of {SCHEMES}",
                           "scheme")
    if size < 1:
        raise MeasureError(f"size must be >= 1, got {size}", "size")
    check_seed(seed)
    if scheme == "tensor-grid" and spec.n > _TENSOR_GRID_MAX_DIM:
        raise MeasureError(f"tensor-grid rejected for n={spec.n} > {_TENSOR_GRID_MAX_DIM} "
                           "(node count explosion)", "scheme")
    if scheme == "low-discrepancy" and spec.n > _SOBOL_MAX_DIM:
        raise MeasureError(f"low-discrepancy rejected for n={spec.n} > {_SOBOL_MAX_DIM} "
                           "(the Sobol direction numbers end there)", "scheme")
    if scheme == "low-discrepancy" and size > _SOBOL_MAX_POINTS:
        raise MeasureError(f"low-discrepancy with size {size} exceeds the 2**{_SOBOL_BITS} "
                           "points of the Sobol sequence", "size")
    # tensor grid: the size x size Gauss-Legendre companion matrix or the
    # nodes; sampled schemes: the nodes
    largest = 8 * (max(size * size, size ** spec.n * spec.n) if scheme == "tensor-grid"
                   else size * spec.n)
    if largest > _MAX_BYTES:
        raise MeasureError(f"{scheme} with size {size} at n={spec.n} needs a {largest}-byte "
                           f"array, more than {_MAX_BYTES}", "size")
    if scheme == "tensor-grid":
        x, w = np.polynomial.legendre.leggauss(size)
        w = w / 2.0  # normalize per axis: weights on [-1,1] sum to 2
        axes = np.meshgrid(*([x] * spec.n), indexing="ij")
        nodes = np.stack([a.ravel() for a in axes]).T
        wts = np.ones(size ** spec.n)
        for a in np.meshgrid(*([w] * spec.n), indexing="ij"):
            wts = wts * a.ravel()
        wts = wts / wts.sum()
        return Quadrature(nodes, wts, scheme_id="tensor-grid", seed=seed)
    if scheme == "low-discrepancy":
        # in place, so the Quadrature keeps this one array: 2x - 1 is exact
        XT = _sobol(spec.n, size, seed)
        np.subtract(np.multiply(XT, 2.0, out=XT), 1.0, out=XT)
        return Quadrature(XT.T, np.full(size, 1.0 / size), "low-discrepancy", seed)
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(-1.0, 1.0, size=(size, spec.n))
    return Quadrature(nodes, np.full(size, 1.0 / size), "seeded-uniform", seed)


class FunctionOracle:
    """A function on the hypercube, evaluated batch-wise and cached per quadrature.

    Values are taken as they come (a difference of two targets lives in
    [-2,2]); a NaN or infinite value is an error.
    """

    def __init__(self, fn, descriptor: str = ""):
        self._fn = fn
        self.descriptor = descriptor
        self._cache = {}

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        vals = np.asarray(self._fn(np.asarray(X, dtype=np.float64)), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise MeasureError(f"function {self.descriptor!r} has a non-finite value")
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
    return FunctionOracle(net.eval_batch, descriptor or "repnet")


def oracle_from_values(quad: Quadrature, vals: np.ndarray, descriptor: str = "") -> FunctionOracle:
    """Oracle backed by a copy of precomputed node values; valid only on `quad`."""
    vals = np.array(vals, dtype=np.float64)

    def fn(X):
        if X.shape != quad.nodes.shape or X is not quad.nodes and not np.array_equal(X, quad.nodes):
            raise MeasureError("value-backed oracle queried off its quadrature")
        return vals

    return FunctionOracle(fn, descriptor or "values")


def inner(quad: Quadrature, a: FunctionOracle, b: FunctionOracle) -> float:
    """<a, b> = sum_i weight_i a(node_i) b(node_i)."""
    return quad.integral(a.values(quad) * b.values(quad))


def l2_norm_sq(quad: Quadrature, f: FunctionOracle) -> float:
    v = f.values(quad)
    return quad.integral(v * v)


def sigma_l1(quad: Quadrature, f: FunctionOracle, g: FunctionOracle) -> float:
    """Normalized L1 distance; exact metric at the quadrature level."""
    return quad.integral(np.abs(f.values(quad) - g.values(quad)))
