"""Helpers that only the tests use: the free-propagation matrix, the
scattering-to-transfer conversion with its matrix product (the reverse of
the package's transfer_to_smatrix path) and amplitudes whose squared
modulus numpy rounds differently from CPython."""

import numpy as np

from scatterchain import (
    MODULUS_FLOOR,
    ScatteringMatrix,
    SingularConversionError,
    TransferMatrix,
    WaveNumber,
)


def identity_smatrix(k: WaveNumber) -> ScatteringMatrix:
    """Free propagation: t = 1 and no reflection."""
    return ScatteringMatrix(t=1.0 + 0.0j, l=0.0 + 0.0j, r=0.0 + 0.0j, k=k)


def smatrix_to_transfer(s: ScatteringMatrix) -> TransferMatrix:
    """Inverse of transfer_to_smatrix; requires |t| > 0.

    Deep-gap composite chains with underflowed t cannot be converted, which
    is why chain composition works in scattering form throughout.
    """
    if abs(s.t) < MODULUS_FLOOR:
        raise SingularConversionError("cannot build transfer matrix: |t| below floor")
    # m11 follows from det = 1.
    return TransferMatrix(
        m11=s.t - s.l * s.r / s.t,
        m12=s.r / s.t,
        m21=-s.l / s.t,
        m22=1.0 / s.t,
        k=s.k,
    )


def matmul(a: TransferMatrix, b: TransferMatrix) -> TransferMatrix:
    """Matrix product a @ b (b acts first, i.e. sits to the left)."""
    if a.k.k != b.k.k:
        raise ValueError("transfer matrices must share the same wave number")
    return TransferMatrix(
        m11=a.m11 * b.m11 + a.m12 * b.m21,
        m12=a.m11 * b.m12 + a.m12 * b.m22,
        m21=a.m21 * b.m11 + a.m22 * b.m21,
        m22=a.m21 * b.m12 + a.m22 * b.m22,
        k=a.k,
    )


def pow_square_mismatches(count: int, seed: int) -> np.ndarray:
    """count complex values whose modulus m has m ** 2 != m * m.

    CPython squares a float with libm pow, numpy's ** 2 with a product; an
    array form that should equal a scalar abs(t) ** 2 fails on these values
    if it squares the numpy way.
    """
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        z = complex(*rng.uniform(-1.0, 1.0, 2).tolist())
        if abs(z) ** 2 != abs(z) * abs(z):
            found.append(z)
    return np.array(found)
