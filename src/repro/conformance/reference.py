"""Reference GEMM and convolution kernels: the oracles of the golden corpus.

``reference_gemm`` is a thin wrapper over NumPy; ``blocked_gemm`` reproduces
the two-level tiled loop nest in plain Python/NumPy so the corpus can check
the controller's tile schedule bit for bit in FP64 (DESIGN.md section 10.2).
``im2col_patches``/``conv2d_reference`` provide the
convolution lowering and its direct golden model: the patch matrix realises
exactly the GEMM geometry :func:`repro.workloads.layers.conv2d_gemm` assumes
(SAME padding, ``ceil(input / stride)`` output), while the reference computes
the same convolution without im2col so the conformance harness can check the
lowering against an independent implementation.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.gemm.precision import Precision
from repro.gemm.tiling import PAPER_LEVEL1, PAPER_LEVEL2, TileConfig, TwoLevelTiling
from repro.gemm.workloads import GEMMShape


def reference_gemm(
    a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None
) -> np.ndarray:
    """Compute ``C + A @ B`` (or ``A @ B`` when C is omitted) in float64."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("reference_gemm expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    result = np.matmul(a.astype(np.float64), b.astype(np.float64))
    if c is not None:
        if c.shape != result.shape:
            raise ValueError(f"C has shape {c.shape}, expected {result.shape}")
        result = result + c.astype(np.float64)
    return result


def blocked_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: Optional[np.ndarray] = None,
    level1: TileConfig = PAPER_LEVEL1,
    level2: TileConfig = PAPER_LEVEL2,
) -> np.ndarray:
    """Two-level blocked GEMM following the MACO schedule.

    Numerically equivalent to :func:`reference_gemm` (up to floating point
    reassociation); exists so the tiling iteration itself is under test.
    """
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    shape = GEMMShape(m, n, k, Precision.FP64)
    tiling = TwoLevelTiling(shape, level1, level2)
    out = np.zeros((m, n), dtype=np.float64)
    if c is not None:
        out += c.astype(np.float64)
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    for tile1 in tiling.level1_tiles():
        for tile2 in tiling.level2_tiles(tile1):
            a_block = a64[tile2.row_start : tile2.row_end, tile2.k_start : tile2.k_end]
            b_block = b64[tile2.k_start : tile2.k_end, tile2.col_start : tile2.col_end]
            out[tile2.row_start : tile2.row_end, tile2.col_start : tile2.col_end] += (
                a_block @ b_block
            )
    return out


def _same_padding(input_size: int, kernel: int, stride: int) -> Tuple[int, int, int]:
    """SAME-padding bookkeeping: ``(out_size, pad_before, pad_after)``.

    Output spatial size is ``ceil(input / stride)`` — the convention
    :func:`repro.workloads.layers.conv2d_gemm` sizes its im2col GEMM with —
    and the asymmetric remainder pads after (TensorFlow SAME semantics).
    """
    out_size = math.ceil(input_size / stride)
    total_pad = max((out_size - 1) * stride + kernel - input_size, 0)
    pad_before = total_pad // 2
    return out_size, pad_before, total_pad - pad_before


def im2col_patches(images: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Lower NCHW ``images`` to the im2col patch matrix of the conv GEMM.

    Rows are output positions in ``(batch, out_y, out_x)`` order; columns are
    the receptive field flattened in ``(channel, ky, kx)`` order, matching a
    weight tensor of shape ``(out_c, in_c, k, k)`` reshaped to
    ``(out_c, in_c * k * k)``.  The result has shape
    ``(batch * out * out, in_c * k * k)`` — exactly the ``M x K`` of
    :func:`repro.workloads.layers.conv2d_gemm` for a square input.
    """
    if images.ndim != 4:
        raise ValueError(f"expected NCHW images, got shape {images.shape}")
    if kernel <= 0 or stride <= 0:
        raise ValueError("kernel and stride must be positive")
    batch, channels, height, width = images.shape
    if height != width:
        raise ValueError(f"expected a square spatial input, got {height}x{width}")
    out_size, pad_before, pad_after = _same_padding(height, kernel, stride)
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad_before, pad_after), (pad_before, pad_after))
    )
    patches = np.empty(
        (batch, out_size, out_size, channels, kernel, kernel), dtype=images.dtype
    )
    for oy in range(out_size):
        for ox in range(out_size):
            window = padded[:, :, oy * stride : oy * stride + kernel,
                            ox * stride : ox * stride + kernel]
            patches[:, oy, ox] = window
    return patches.reshape(batch * out_size * out_size, channels * kernel * kernel)


def conv2d_reference(images: np.ndarray, weights: np.ndarray, stride: int) -> np.ndarray:
    """Direct SAME-padded convolution in float64 (no im2col).

    ``images`` is NCHW, ``weights`` is ``(out_c, in_c, k, k)``.  Returns the
    output activations flattened to ``(batch * out * out, out_c)`` in the same
    row order as :func:`im2col_patches`, so the result is directly comparable
    to ``im2col_patches(images) @ weights.reshape(out_c, -1).T``.
    """
    if images.ndim != 4 or weights.ndim != 4:
        raise ValueError("expected NCHW images and (out_c, in_c, k, k) weights")
    batch, channels, height, width = images.shape
    out_channels, in_channels, kernel, kernel_w = weights.shape
    if in_channels != channels or kernel != kernel_w:
        raise ValueError(
            f"weights {weights.shape} do not match images {images.shape}"
        )
    if height != width:
        raise ValueError(f"expected a square spatial input, got {height}x{width}")
    out_size, pad_before, pad_after = _same_padding(height, kernel, stride)
    padded = np.pad(
        images.astype(np.float64),
        ((0, 0), (0, 0), (pad_before, pad_after), (pad_before, pad_after)),
    )
    w64 = weights.astype(np.float64)
    output = np.zeros((batch, out_size, out_size, out_channels), dtype=np.float64)
    for oy in range(out_size):
        for ox in range(out_size):
            window = padded[:, :, oy * stride : oy * stride + kernel,
                            ox * stride : ox * stride + kernel]
            # (batch, in_c, k, k) x (out_c, in_c, k, k) summed over the field.
            output[:, oy, ox, :] = np.einsum("bikl,oikl->bo", window, w64)
    return output.reshape(batch * out_size * out_size, out_channels)
