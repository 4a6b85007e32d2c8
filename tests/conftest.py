"""Shared generators for randomized instances across the model families."""

import numpy as np

from nlcs.measurements import (
    Clip,
    GeneralLinear,
    Identity,
    Mask,
    OneBit,
    UniformQuantizer,
    apply_measurement,
)
from nlcs.pipeline import uniform_quantizer_for_bits

FAMILIES = ("identity", "mask", "clip", "quant", "gquant", "onebit", "linear")
SEPARABLE_FAMILIES = tuple(f for f in FAMILIES if f != "linear")


def random_model(family, rng, n):
    if family == "identity":
        return Identity()
    if family == "mask":
        reliable = rng.random(n) < 0.6
        return Mask(reliable)
    if family == "clip":
        return Clip(0.5, -0.5)
    if family == "quant":
        return UniformQuantizer(0.5)
    if family == "gquant":
        return uniform_quantizer_for_bits(3)
    if family == "onebit":
        return OneBit()
    if family == "linear":
        m = rng.standard_normal((max(1, n // 2), n))
        return GeneralLinear(m)
    raise ValueError(family)


def random_observation(family, rng, n=12):
    """An observation of a random clean signal, plus the signal itself."""
    x = rng.standard_normal(n)
    if family == "gquant":
        x = np.tanh(x)  # keep most mass inside the nominal [-1, 1] range
    model = random_model(family, rng, n)
    return apply_measurement(model, x), x


def random_sparse_problem(family, rng, n=16, m=32, k=3):
    """Dictionary, true sparse code, clean signal and its observation."""
    d = rng.standard_normal((n, m))
    d /= np.linalg.norm(d, axis=0)
    alpha = np.zeros(m)
    support = rng.choice(m, size=k, replace=False)
    alpha[support] = rng.standard_normal(k)
    x = d @ alpha
    peak = np.max(np.abs(x))
    x = x / peak
    alpha = alpha / peak
    model = random_model(family, rng, n)
    return d, alpha, x, apply_measurement(model, x)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0 and NaN apart
