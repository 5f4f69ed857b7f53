"""Fine-resolution Brownian increment lattices with exact coarsening.

Every estimator in this package evaluates reference and numerical solutions
on coarsenings of one fine lattice, so that errors compare like-for-like
across step sizes (common random numbers).  Paths are keyed by
``(master_seed, path_index)`` through a counter-based Philox stream and can
therefore be regenerated, in any order and on any worker, bit-for-bit.

Gaussian variates come from numpy's ``Generator.standard_normal`` (ziggurat);
the method is fixed here once and bit-reproducible within one numpy build.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DUMP_MAGIC = b"SPCA"
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<4sIdQI")
#: Fewest normals per path in a unit block that :func:`increment_blocks`
#: draws block by block.  One draw costs a few microseconds of fixed cost,
#: which a smaller block does not repay in memory saved.
_MIN_STREAMED_BLOCK = 1024


def _is_power_of_two(x: float) -> bool:
    if x <= 0.0 or not math.isfinite(x):
        return False
    mantissa, _ = math.frexp(x)
    return mantissa == 0.5


@dataclass(frozen=True)
class BrownianGrid:
    """An immutable lattice of i.i.d. N(0, fine_step) increment vectors."""

    fine_step: float
    horizon: float
    dim_noise: int
    increments: np.ndarray
    master_seed: int
    path_index: int

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]


def _validate_lattice(horizon: float, fine_step: float) -> int:
    if not _is_power_of_two(fine_step):
        raise ValueError(f"fine_step must be a power of two, got {fine_step}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    ratio = horizon / fine_step
    if ratio != round(ratio):
        raise ValueError(
            f"horizon/fine_step must be an exact integer, got {horizon}/{fine_step}"
        )
    return int(round(ratio))


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Deterministic per-path generator keyed by (master_seed, path_index)."""
    if master_seed < 0 or path_index < 0:
        raise ValueError("master_seed and path_index must be nonnegative")
    key = np.array([master_seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_increments(
    master_seed: int,
    path_index: int,
    horizon: float,
    fine_step: float,
    dim_noise: int = 1,
) -> np.ndarray:
    """Raw (n_steps, dim_noise) increment array for one path."""
    n = _validate_lattice(horizon, fine_step)
    if dim_noise < 1:
        raise ValueError(f"dim_noise must be positive, got {dim_noise}")
    rng = path_rng(master_seed, path_index)
    return rng.standard_normal((n, dim_noise)) * math.sqrt(fine_step)


def unit_blocks(increments: np.ndarray, m: int, K: int):
    """Iterator over the first K unit blocks, (n_paths, m, r) views, of a
    (n_paths, >= K*m, r) lattice at step 1/m."""
    if increments.shape[1] < K * m:
        raise ValueError(
            f"grid too short: need {K * m} steps of size 1/{m}, have {increments.shape[1]}"
        )
    return (increments[:, k * m : (k + 1) * m] for k in range(K))


def increment_blocks(
    master_seed: int,
    lo: int,
    hi: int,
    K: int,
    fine_step: float,
    dim_noise: int = 1,
):
    """Iterator over the increments of paths lo..hi-1, one unit block at a time.

    Yields K fresh arrays (hi - lo, 1/fine_step, dim_noise).  Joined along
    the step axis they equal each path's :func:`generate_increments` over
    the horizon K, byte for byte: a path's Philox stream drawn one block at
    a time continues where the previous draw stopped.  A unit block of
    fewer than ``_MIN_STREAMED_BLOCK`` normals per path is cut from the
    whole lattice, drawn at once.
    """
    m = _validate_lattice(1.0, fine_step)
    if dim_noise < 1:
        raise ValueError(f"dim_noise must be positive, got {dim_noise}")
    if K < 1:
        return iter(())
    if m * dim_noise < _MIN_STREAMED_BLOCK:
        whole = np.stack(
            [generate_increments(master_seed, i, float(K), fine_step, dim_noise) for i in range(lo, hi)]
        )
        return unit_blocks(whole, m, K)
    rngs = [path_rng(master_seed, i) for i in range(lo, hi)]
    return (_draw_block(rngs, m, dim_noise, math.sqrt(fine_step)) for _ in range(K))


def _draw_block(rngs, m: int, dim_noise: int, scale: float) -> np.ndarray:
    """The next unit block of each generator's stream, (len(rngs), m, dim_noise)."""
    block = np.empty((len(rngs), m, dim_noise))
    for row, rng in zip(block, rngs):
        rng.standard_normal(out=row)
    block *= scale
    return block


def generate_path(
    master_seed: int,
    path_index: int,
    horizon: float,
    fine_step: float,
    dim_noise: int = 1,
) -> BrownianGrid:
    """Generate one fine lattice; same arguments always give the same grid."""
    increments = generate_increments(master_seed, path_index, horizon, fine_step, dim_noise)
    return BrownianGrid(
        fine_step=fine_step,
        horizon=horizon,
        dim_noise=dim_noise,
        increments=increments,
        master_seed=master_seed,
        path_index=path_index,
    )


def coarsen_array(increments: np.ndarray, factor: int) -> np.ndarray:
    """Group-sum increments along the step axis, left to right within groups.

    ``increments`` has shape (..., n_steps, r); the step axis is -2.  Each
    output entry is the strict left-to-right sum of its ``factor``
    consecutive fine increments, so the result is bit-reproducible.
    """
    if factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    n = increments.shape[-2]
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide the grid length {n}")
    if factor == 1:
        return increments.copy()
    grouped = increments.reshape(increments.shape[:-2] + (n // factor, factor) + increments.shape[-1:])
    out = grouped[..., 0, :].copy()
    for i in range(1, factor):
        out += grouped[..., i, :]
    return out


def coarsen(grid: BrownianGrid, factor: int) -> np.ndarray:
    """Coarse (n_steps/factor, r) increment array from a fine grid."""
    return coarsen_array(grid.increments, factor)


def block_increment(coarse: np.ndarray, m: int, k: int, l: int) -> np.ndarray:
    """The increment driving step l of block k, i.e. coarse[k*m + l]."""
    if m < 1 or k < 0 or l < 0 or l >= m:
        raise IndexError(f"invalid block coordinates m={m}, k={k}, l={l}")
    n = k * m + l
    if n >= coarse.shape[0]:
        raise IndexError(
            f"index k*m+l = {n} out of range for {coarse.shape[0]} increments"
        )
    return coarse[n]


def write_path(grid: BrownianGrid, path: str | Path) -> None:
    """Dump a grid to the binary path format (little-endian f64 payload)."""
    header = _DUMP_HEADER.pack(
        _DUMP_MAGIC, _DUMP_VERSION, grid.fine_step, grid.n_steps, grid.dim_noise
    )
    data = np.ascontiguousarray(grid.increments, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_path(path: str | Path) -> tuple[float, np.ndarray]:
    """Read a binary path dump; returns (fine_step, increments)."""
    with open(path, "rb") as fh:
        raw = fh.read(_DUMP_HEADER.size)
        magic, version, fine_step, length, r = _DUMP_HEADER.unpack(raw)
        if magic != _DUMP_MAGIC:
            raise ValueError(f"not a path dump (magic {magic!r})")
        if version != _DUMP_VERSION:
            raise ValueError(f"unsupported path dump version {version}")
        payload = fh.read(length * r * 8)
    increments = np.frombuffer(payload, dtype="<f8").reshape(length, r).copy()
    return fine_step, increments
