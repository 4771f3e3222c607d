"""Population statistics and error norms for paired real sequences.

All moments divide by N (population convention, no Bessel correction) and come
from one two-pass kernel, :func:`_moments`. It scales each sequence, as the
error means scale x - y, by the power of two that brings its largest magnitude
into [0.5, 1). That rounds nothing, so results are the plain formulas' bit for
bit wherever those neither overflow nor underflow, and the ratios (``pearson``,
``ccc``, ...) hold for any finite float64 input unless their own value is below
the normal float64 range. ``mean`` scales its input the same way. ``lp_norm``
divides by max |e_i|, so that its largest term is exactly 1 at any p; it can
differ from the plain formula in the last bits. A reported statistic that
does not fit in float64 raises :class:`InvalidInput` naming it. Every function
is pure.

The kernel is two halves: :func:`_gold_moments` scales and centres x once, and
:func:`_row_moments` scores one row or an (R, n) batch of rows against it in
caller-owned scratch, so that the ordering extremes and the oracles take the gold's
side once per call and allocate nothing per row or block; :func:`_row_cov`, its first half,
scales, centres and scores a row or a batch for cov alone. :func:`_ccc` serves one row and a
batch alike; the even-k solver takes only the gold's side from it.

Every module checks its inputs with the helpers here, one per rule, each refusal naming the
argument: :func:`_real` and :func:`_reals` for real numbers, alone and in arrays of any kind
(:func:`as_sequence` adds a nonempty 1-D shape), :func:`_count` and :func:`_counts` for
counts, :func:`_instance` for an object of a library type or a callable, and
:func:`_prepared_gold` for the gold that rows are scored against, a :class:`CenteredGold`.

The sampled searches share two more private pieces: :func:`_block_rows`, the rows of
one cache-sized block, and :func:`_sphere_rows`, which draws a block of Gaussian rows
and scales each onto an L_p sphere. Its row norms come from :func:`_lp_norm`, the plain
formula row by row, except that a row whose plain norm underflows to 0 or overflows is
recomputed as ``lp_norm`` does.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, InvalidInput


def as_sequence(values, name: str) -> np.ndarray:
    """values as a 1-D, nonempty float64 array by the rule of :func:`_reals`."""
    arr = _reals(values, name)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput(f"{name} must be a nonempty 1-D sequence, got shape {arr.shape}")
    return arr


def _real(value, name: str, sign: str = "") -> float:
    """value as a Python float; InvalidInput naming it unless it is a real number (numpy's
    bool too) finite in float64, and positive or nonnegative where ``sign`` says so."""
    if not isinstance(value, (numbers.Real, np.bool_)):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    if sys.float_info.max < abs(value) < math.inf:  # an int, fraction or longdouble
        raise InvalidInput(f"{name} has a value beyond float64")
    x = float(value)
    above = {"": True, "nonnegative": x >= 0.0, "positive": x > 0.0}[sign]
    if not (math.isfinite(x) and above):
        raise InvalidInput(f"{name} must be finite{' and ' + sign if sign else ''}, got {value}")
    return x


def _reals(values, name: str, sign: str = "") -> np.ndarray:
    """values as a float64 array, not copied where it is one; InvalidInput naming it unless its
    entries pass :func:`_real`: of a bool, integer or float array the least and greatest (the
    first NaN, if any), of an object array (a list holding an int past int64) each one."""
    if isinstance(values, getattr(sys.modules.get("numpy.ma"), "MaskedArray", ())):
        raise InvalidInput(f"{name} must not be a masked array")  # np.asarray drops the mask
    try:
        arr = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        raise InvalidInput(f"{name} must be real numbers, got a ragged nesting") from None
    if arr.dtype.kind == "O":
        return np.array([_real(v, name, sign) for v in arr.flat]).reshape(arr.shape)
    if arr.dtype.kind not in "biuf":  # complex, text, dates: not real numbers
        raise InvalidInput(f"{name} must be real numbers, got dtype {arr.dtype}")
    for i in (arr.argmin(), arr.argmax()) if arr.size else ():
        _real(arr.item(i), name, sign)  # checked before the cast, which cannot overflow then
    return arr.astype(np.float64, copy=False)


def _instance(value, kind: type, name: str):
    """value; InvalidInput naming it unless it is a ``kind`` (``Callable``: any callable)."""
    if not isinstance(value, kind):
        raise InvalidInput(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _count(value, name: str, least: int) -> int:
    """value as an int; InvalidInput naming it unless an integer (numpy's bool too) >= ``least``."""
    try:
        value = operator.index(value.item() if isinstance(value, np.bool_) else value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidInput(f"{name} must be at least {least}, got {value}")
    return value


def _counts(values, name: str) -> np.ndarray:
    """values as int64: an integer array, within int64, that :func:`_reals` takes as nonnegative."""
    _reals(values, name, "nonnegative")
    if (arr := np.asarray(values)).dtype.kind not in "iu":
        raise InvalidInput(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.size and arr.max() > np.iinfo(np.int64).max:
        raise InvalidInput(f"{name} has a value beyond int64")
    return arr.astype(np.int64)


def _as_pair(x, y, names=("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    xv, yv = as_sequence(x, names[0]), as_sequence(y, names[1])
    if xv.size != yv.size:
        raise InvalidInput(f"length mismatch: {names[0]} {xv.size} vs {names[1]} {yv.size}")
    return xv, yv


def _span(v: np.ndarray):
    """(e, whether v is constant) along the last axis, e with max |v_i| in [2**(e-1), 2**e)
    (0 for zeros), from one max and one min: Python scalars for a 1-D v, an int32 and a bool
    array over an (R, n) batch; InvalidInput when v holds NaN or Inf."""
    hi, lo = v.max(axis=-1), v.min(axis=-1)
    top = np.maximum(hi, -lo)
    if not (top < math.inf).all():
        raise InvalidInput("sequence contains NaN or Inf")
    e, constant = np.frexp(top)[1], hi == lo
    return (int(e), bool(constant)) if v.ndim == 1 else (e, constant)


def _moments(xv: np.ndarray, yv: np.ndarray):
    """(ex, ey, mu_x, mu_y, var_x, var_y, cov) of x / 2**ex and y / 2**ey, each array
    scaled by its own power of two: means in units of 2**ex and 2**ey, variances in
    4**ex and 4**ey, cov in 2**(ex + ey). It composes the kernel's two halves,
    :func:`_gold_moments` and :func:`_row_moments`, which also serve callers that score
    many rows against one x. It takes two full-length buffers: x is centred in its
    scaled copy, which then holds products."""
    b = np.empty(xv.size)  # x's squares, then y's scaled copy
    ex, mu_x, var_x, a = _gold_moments(xv, b)
    ey, mu_y, var_y, cov = _row_moments(a, yv, b, a)  # the products overwrite x's copy
    return ex, ey, mu_x, mu_y, var_x, var_y, cov


def _gold_moments(xv: np.ndarray, out: np.ndarray | None = None):
    """(ex, mu_x, var_x, a) of a 1-D x: the power of two of :func:`_span`, the mean and
    variance of x / 2**ex, and a, a new array holding x / 2**ex - mu_x. ``out``, if given,
    is x-length scratch that receives the squares. It is :func:`_row_cov` of x against its
    own centred copy, whose cov is the variance."""
    ex, constant = _span(xv)
    a = np.empty(xv.size)
    mu_x, var_x = _row_cov(a, xv, ex, constant, a, out)
    return ex, float(mu_x), float(var_x), a


def _row_moments(a: np.ndarray, yv: np.ndarray, b: np.ndarray, c: np.ndarray):
    """(ey, mu_y, var_y, cov) of y against the centred x ``a`` of :func:`_gold_moments`, in
    the units of :func:`_moments`: floats for one row, arrays over an (R, n) batch, each
    row with its own power of two and each element the bits that row alone gives. b and
    c are caller-owned scratch of y's shape; for one row c may be ``a`` itself, when a is
    not needed again. InvalidInput when y holds NaN or Inf."""
    ey, constant = _span(yv)
    mu_y, cov = _row_cov(a, yv, ey, constant, b, c)
    var_y = np.add.reduce(np.multiply(b, b, out=c), axis=-1) / a.size
    return (ey, mu_y, var_y, cov) if yv.ndim > 1 else (ey, float(mu_y), float(var_y), float(cov))


def _row_cov(a: np.ndarray, yv: np.ndarray, ey, constant, b: np.ndarray, c: np.ndarray):
    """(mu_y, cov) of a row or an (R, n) batch y against the centred x ``a``, the first half
    of :func:`_row_moments`: (ey, constant) is :func:`_span` of y, which a caller may take from
    fewer values than y, a constant row takes its first scaled value as its mean, so it centres
    to exactly 0, and b, scratch as c is, is left holding y / 2**ey - mu_y."""
    np.ldexp(yv, -np.int32(ey)[..., None], out=b)  # int32: fast loop
    # np.add.reduce(b, axis=-1) / n is b.mean(axis=-1) bit for bit, and cheaper
    mu_y = np.where(constant, b[..., 0], np.add.reduce(b, axis=-1) / a.size)
    b -= mu_y[..., None]
    return mu_y, np.add.reduce(np.multiply(b, a, out=c), axis=-1) / a.size


@dataclass(frozen=True, eq=False)
class CenteredGold:
    """A gold standard prepared once by :func:`_prepared_gold`: ``e``, ``mu``, ``var`` > 0 and
    ``a`` = gold / 2**e - mu from :func:`_gold_moments`. ``mu_g``, ``var_g``, ``sigma_g`` and
    ``centered`` = g_i - mu_g are unscaled on each read: the plain formula's bits wherever they
    are normal float64, and none lost to a subnormal var_g; var_g past float64 is InvalidInput."""

    gold: np.ndarray
    e: int
    mu: float
    var: float
    a: np.ndarray

    @property
    def n(self) -> int:
        return int(self.gold.size)

    @property
    def mu_g(self) -> float:
        return math.ldexp(self.mu, self.e)

    @property
    def var_g(self) -> float:
        return _unscale(self.var, 2 * self.e, "var_g")

    @property
    def sigma_g(self) -> float:
        return math.ldexp(math.sqrt(self.var), self.e)

    @property
    def centered(self) -> np.ndarray:
        return np.ldexp(self.a, self.e)


def _prepared_gold(gold, n: int | None = None, out: np.ndarray | None = None) -> CenteredGold:
    """The gold that rows are scored against, of length ``n`` where given, its squares taken
    in ``out``, gold-length scratch the caller may reuse; DegenerateVariance when it is
    constant, the one gold it refuses."""
    g = as_sequence(gold, "gold")
    if n is not None and g.size != n:
        raise InvalidInput(f"length mismatch: gold {g.size} vs errors {n}")
    prepared = CenteredGold(g, *_gold_moments(g, out))
    if prepared.var == 0.0:
        raise DegenerateVariance("gold standard is constant")
    return prepared


def _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y):
    """(e, mu_x - mu_y, var_x + var_y + (mu_x - mu_y)**2) of :func:`_moments` output in units
    of 2**e and 4**e, e = max(ex, ey); elementwise over a batch, Python floats for one row."""
    batch = isinstance(ey, np.ndarray)
    e, ldexp = (np.maximum(ex, ey), np.ldexp) if batch else (max(ex, ey), math.ldexp)
    dmu = ldexp(mu_x, ex - e) - ldexp(mu_y, ey - e)
    return e, dmu, ldexp(var_x, 2 * (ex - e)) + ldexp(var_y, 2 * (ey - e)) + dmu * dmu


def _ldexp(value: float, e: float) -> float:
    """value * 2**e for a real e; OverflowError when that exceeds float64."""
    whole = math.floor(e)
    return math.ldexp(value * 2.0 ** (e - whole), whole)


def _unscale(value: float, e: float, name: str) -> float:
    """value * 2**e; InvalidInput naming the statistic when that overflows float64."""
    with contextlib.suppress(OverflowError):
        if abs(value) < math.inf:  # a quotient of Python floats overflows to inf silently
            return _ldexp(value, e)
    raise InvalidInput(f"{name} overflows float64")


def _pearson(var_x: float, var_y: float, cov: float) -> float:
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateVariance("pearson undefined for constant input")
    return min(1.0, max(-1.0, cov / math.sqrt(var_x * var_y)))  # clamp rounding spill past +-1


def _ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov):
    """ccc of :func:`_moments` output: a float for one row, an array over a batch scored by
    :func:`_row_moments`."""
    if var_x == 0.0 and np.any(var_y == 0.0):
        raise DegenerateVariance("ccc undefined when both sequences are constant")
    e, _, denom = _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y)
    ldexp = np.ldexp if isinstance(ey, np.ndarray) else math.ldexp
    # exactly 0 where cov is: only there can the scaled denominator underflow to 0
    return ldexp(2.0 * cov / (denom + (cov == 0.0)), ex + ey - 2 * e)


def _scaled_errors(xv: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, int]:
    """(d, u) with x - y == d * 2**u elementwise, max |d_i| in [0.5, 1); exact where x - y is."""
    e = max(_span(xv)[0], _span(yv)[0])
    d = np.ldexp(xv, -e)
    d -= np.ldexp(yv, -e)
    u = _span(d)[0]
    return np.ldexp(d, -u, out=d), e + u


def _error_mean(d: np.ndarray, u: float, k: float, name: str) -> float:
    """(1/N) sum |d_i|**k * 2**(k*u) for (d, u) from :func:`_scaled_errors`; overwrites d
    with |d| unless k is 2, whose square needs no sign."""
    if k != 2:
        np.abs(d, out=d)
    mean = float((d**k).mean())
    if mean < 2.0**-1022 and d.any():  # k past about 1074: the largest term underflowed
        top = float(d.max())  # as _max_scaled_norm does: the largest term is exactly 1
        mean = float(((d / top) ** k).mean())
        # past 2**-4096 the mean is 0 at any N; k * log2 may be -inf
        return _unscale(mean, max(k * (u + math.log2(top)), -4096.0), name)
    return _unscale(mean, k * u, name)


def mean(s) -> float:
    e, mu, _, _ = _gold_moments(as_sequence(s, "s"))
    return math.ldexp(mu, e)


def population_variance(s) -> float:
    e, _, var, _ = _gold_moments(as_sequence(s, "s"))
    return _unscale(var, 2 * e, "variance")


def covariance(x, y) -> float:
    ex, ey, *_, cov = _moments(*_as_pair(x, y))
    return _unscale(cov, ex + ey, "covariance")


def pearson(x, y) -> float:
    """Normalized covariance; both inputs must be nonconstant."""
    return _pearson(*_moments(*_as_pair(x, y))[4:])


def ccc(x, y) -> float:
    """Concordance correlation: 2*cov / (var_x + var_y + (mu_x - mu_y)^2).

    Penalizes departure from the identity line, unlike pearson. Returns
    exactly 0.0 when the covariance is zero and the denominator is positive.
    """
    return _ccc(*_moments(*_as_pair(x, y)))


def variance_identity_residual(x, y) -> float:
    """Left minus right of var_x + var_y + (mu_x-mu_y)^2 == mse + 2*cov.

    Zero in exact arithmetic; the float residual stays below 1e-12 relative.
    """
    xv, yv = _as_pair(x, y)
    ex, ey, mu_x, mu_y, var_x, var_y, cov = _moments(xv, yv)
    e, _, left = _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y)
    d, u = _scaled_errors(xv, yv)
    right = _error_mean(d, u - e, 2, "mse") + 2.0 * math.ldexp(cov, ex + ey - 2 * e)
    return _unscale(left - right, 2 * e, "variance identity residual")


def _lp_norm(arr: np.ndarray, p: float, out: np.ndarray | None = None):
    """(sum |arr_i|^p)^(1/p) along the last axis, unvalidated; ``out``, if given, is scratch
    of arr's shape for the powers. A row whose plain norm underflows to 0 or overflows is
    recomputed by :func:`_max_scaled_norm`, inf where even that exceeds float64; every
    other row keeps the plain formula's bits."""
    m = np.abs(arr, out=out)
    with np.errstate(over="ignore"):
        m **= p  # m**p bit for bit, in place
        norm = np.add.reduce(m, axis=-1) ** (1.0 / p)  # np.sum's bits, without its overhead
    if norm.ndim == 0:
        return _max_scaled_norm(np.abs(arr), p) if norm == 0.0 or norm == math.inf else norm
    bad = (norm == 0.0) | (norm == math.inf)
    if bad.any():
        norm[bad] = [_max_scaled_norm(row, p) for row in np.abs(arr[bad])]
    return norm


def _max_scaled_norm(m: np.ndarray, p: float) -> float:
    """(sum m_i^p)^(1/p) of a nonnegative 1-D m, computed on m / max m_i, whose largest term
    is exactly 1, so that the sum lies in [1, N] for every p; inf when the norm exceeds
    float64."""
    top = float(m.max())
    if top == 0.0:
        return 0.0
    total = float(np.sum((m / top) ** p))
    mant, u = math.frexp(top)
    try:
        root = total ** (1.0 / p)  # inf without an exception when 1/p overflows
    except OverflowError:
        root = math.inf
    try:
        if root < math.inf:
            return _ldexp(mant * root, u)
        # tiny p: the root alone exceeds float64, the norm may not
        return _ldexp(mant, u + math.log2(total) / p)
    except OverflowError:
        return math.inf


def lp_norm(e, p: float) -> float:
    """(sum |e_i|^p)^(1/p) for finite p > 0, computed on e / max |e_i| as
    :func:`_max_scaled_norm` does; InvalidInput when the norm exceeds float64."""
    arr = np.abs(as_sequence(e, "e"))
    norm = _max_scaled_norm(arr, _real(p, "p", "positive"))
    if norm == math.inf:
        raise InvalidInput("lp_norm overflows float64")
    return norm


#: The sampled searches (the oracles) draw and score their rows in blocks of about this
#: many float64 values, small enough to stay in cache.
_BLOCK = 1 << 16


def _block_rows(n: int) -> int:
    """Rows of length n in one block of a sampled search."""
    return max(1, _BLOCK // n)


def _sphere_rows(
    rng: np.random.Generator, out: np.ndarray, p: float, radius: float, scratch: np.ndarray
) -> np.ndarray:
    """``out``, an (R, n) array, filled with the next R rows of standard normals from
    ``rng`` and each row scaled to L_p norm ``radius``; ``scratch``, of out's shape, takes
    the norms' powers. Consecutive blocks hold the rows of one larger draw bit for bit. A
    radius of 0 gives all-zero rows. InvalidInput naming the sampled norm when it
    overflows, or when a scaled row overflows or, at a positive radius, underflows to
    zero."""
    rng.standard_normal(out=out)
    norm = _lp_norm(out, p, scratch)
    if not np.all(norm < math.inf):
        raise InvalidInput(f"the L_{p:g} norm of a sampled row overflows float64")
    with np.errstate(over="ignore", divide="ignore"):
        scale = radius / norm
    # a huge radius over a norm below 1: no entry of the scaled row exceeds the radius, so
    # those rows alone are divided by their norm first
    wide = np.flatnonzero((scale == math.inf) & (norm > 0.0))
    out[wide] /= norm[wide, None]
    scale[wide] = radius
    if np.all(scale < math.inf):
        with np.errstate(over="ignore"):  # an entry passes the radius only by rounding
            out *= scale[:, None]
        # a scaled row's largest entry is at least radius / n**(1/p): only below the normal
        # range can a row have underflowed to zero
        if (radius < 2.0**1020 or np.all(np.abs(out) < math.inf)) and (
            radius == 0.0
            or radius * out.shape[-1] ** (-1.0 / p) >= 2.0**-1021
            or np.all(np.any(out, axis=-1))
        ):
            return out
    raise InvalidInput(f"a sampled row scaled to L_{p:g} norm {radius:g} leaves float64")


def mse(x, y) -> float:
    return _error_mean(*_scaled_errors(*_as_pair(x, y)), 2, "mse")


def mae(x, y) -> float:
    return _error_mean(*_scaled_errors(*_as_pair(x, y)), 1, "mae")


def mke(x, y, k: float) -> float:
    """Mean k-powered error: (1/N) sum |x_i - y_i|^k; k=2 gives mse, k=1 mae."""
    xv, yv = _as_pair(x, y)
    return _error_mean(*_scaled_errors(xv, yv), _real(k, "k", "positive"), "mke")


@dataclass(frozen=True)
class PairStats:
    """All pairwise population statistics of two equal-length sequences."""

    n: int
    mu_x: float
    mu_y: float
    var_x: float
    var_y: float
    cov_xy: float
    pearson: float
    c_b: float
    ccc: float
    mse: float
    mae: float
    shift_penalty: float
    scale_penalty: float


def pair_stats(x, y) -> PairStats:
    """Compute the full statistics block; requires both sequences nonconstant.

    Raises InvalidInput naming the first reported statistic that overflows float64.
    """
    xv, yv = _as_pair(x, y)
    ex, ey, mu_x, mu_y, var_x, var_y, cov = _moments(xv, yv)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateVariance("pair statistics need nonconstant sequences")
    e, dmu, denom = _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y)
    sig_x, sig_y = math.sqrt(var_x), math.sqrt(var_y)
    h = (ex + ey) >> 1  # sig_x * sig_y is in units of 2**(ex + ey), its root in 2**h
    root = math.sqrt(math.ldexp(sig_x * sig_y, ex + ey - 2 * h))
    d, u = _scaled_errors(xv, yv)
    return PairStats(
        n=int(xv.size),
        mu_x=_unscale(mu_x, ex, "mu_x"),
        mu_y=_unscale(mu_y, ey, "mu_y"),
        var_x=_unscale(var_x, 2 * ex, "var_x"),
        var_y=_unscale(var_y, 2 * ey, "var_y"),
        cov_xy=_unscale(cov, ex + ey, "cov_xy"),
        pearson=_pearson(var_x, var_y, cov),
        c_b=math.ldexp(2.0 * sig_x * sig_y / denom, ex + ey - 2 * e),
        ccc=_ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov),
        mse=_error_mean(d, u, 2, "mse"),
        mae=_error_mean(d, u, 1, "mae"),
        shift_penalty=_unscale(dmu / root, e - h, "shift_penalty"),
        scale_penalty=_unscale(sig_x / sig_y, ex - ey, "scale_penalty"),
    )
