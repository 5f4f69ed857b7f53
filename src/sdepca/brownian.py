"""Fine-resolution Brownian increment lattices with exact coarsening.

Every estimator in this package evaluates reference and numerical solutions
on coarsenings of one fine lattice, so that errors compare like-for-like
across step sizes (common random numbers).  Paths are keyed by
``(master_seed, path_index)`` through a counter-based Philox stream and can
therefore be regenerated, in any order and on any worker, bit-for-bit.
A span of paths is drawn as one flat stream of step-major pieces
(:func:`increment_pieces`); the pieces know nothing of unit blocks, which
the runner cuts them into.

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
#: Fine steps per path in one draw of :func:`increment_pieces`.  A path's
#: draw of 256 normals takes about 5.2 us, 20 ns a normal, and the draw
#: costs about 0.8 us per path besides; so shorter pieces cost time, and
#: longer ones hold more noise at once, and a wider span pays more.
_PIECE_STEPS = 256
#: Paths drawn into one path-major tile by :func:`_draw_block` before it is
#: transposed into the step-major piece: 128 KB at 256 normals per path.
_DRAW_TILE = 64


def steps_per_unit(step: float, name: str = "fine_step") -> int:
    """2^k for a step of 2^-k, 0 <= k <= 1023: every step size is one, so a
    coarse increment is an exact sum of fine ones and 1/step is finite.
    Anything else raises a ValueError that names ``name``."""
    mantissa, exponent = math.frexp(step)
    if mantissa != 0.5 or not 0 <= 1 - exponent <= 1023:
        raise ValueError(f"{name} must be a power of two 2^-k with 0 <= k <= 1023, got {step!r}")
    return 1 << (1 - exponent)


@dataclass(frozen=True)
class BrownianGrid:
    """An immutable lattice of i.i.d. N(0, fine_step) increments, (n_steps, dim_noise)."""

    fine_step: float
    increments: np.ndarray
    path_index: int


#: Generators that no live iterator of :func:`increment_pieces` holds.
#: Philox is counter-based, so a used one set to counter 0, key
#: (master_seed, i) and an empty buffer draws what a new one on that key
#: would, in 0.5 us instead of 11-21 us.  Threads may share the list.
_FREE_RNGS: list[np.random.Generator] = []


def _keyed_rngs(master_seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """Generators of paths lo..hi-1, keyed (master_seed, i), taken from
    ``_FREE_RNGS`` or built; each key word must lie in [0, 2^64)."""
    for name, value in (("master_seed", master_seed), ("path_index", lo), ("path_index", hi - 1)):
        if hi > lo and not 0 <= value < 1 << 64:
            raise ValueError(f"{name} must be a nonnegative integer below 2^64, got {value}")
    key = [master_seed, 0]
    state = dict(bit_generator="Philox", state=dict(counter=[0] * 4, key=key), buffer=[0] * 4,
                 buffer_pos=4, has_uint32=0, uinteger=0)
    rngs = []
    for i in range(lo, hi):
        try:  # one atomic pop: another thread may empty the list meanwhile
            rng = _FREE_RNGS.pop()
        except IndexError:
            rng = np.random.Generator(np.random.Philox(0))
        key[1] = i
        rng.bit_generator.state = state
        rngs.append(rng)
    return rngs


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Deterministic per-path generator keyed by (master_seed, path_index),
    each an integer in [0, 2^64): the two words of a Philox key."""
    return _keyed_rngs(master_seed, path_index, path_index + 1)[0]


def generate_increments(
    master_seed: int,
    path_index: int,
    horizon: float,
    fine_step: float,
    dim_noise: int = 1,
) -> np.ndarray:
    """Raw (n_steps, dim_noise) increment array for one path over
    ``horizon``, a positive whole number of fine steps."""
    n = horizon * steps_per_unit(fine_step)
    if not (n > 0 and float(n).is_integer()):
        raise ValueError(f"horizon {horizon} is not a positive multiple of fine_step {fine_step}")
    if dim_noise < 1:
        raise ValueError(f"dim_noise must be positive, got {dim_noise}")
    rngs = _keyed_rngs(master_seed, path_index, path_index + 1)
    return _draw_block(rngs, int(n), dim_noise, math.sqrt(fine_step), True)[:, 0]


def piece_steps(factor: int) -> int:
    """Fine steps in a piece of :func:`increment_pieces`: ``_PIECE_STEPS``
    rounded up to a multiple of ``factor``."""
    return -(-_PIECE_STEPS // factor) * factor


def increment_pieces(
    master_seed: int,
    lo: int,
    hi: int,
    n_steps: int,
    fine_step: float,
    dim_noise: int = 1,
    factor: int = 1,
):
    """Iterator over the first n_steps increments of paths lo..hi-1, in
    consecutive step-major pieces (s, hi - lo, dim_noise): row l of a piece
    holds its step l of every path.

    Each draw takes :func:`piece_steps` of ``factor`` fine steps per path,
    or what is left, so every piece but the last holds whole steps of
    ``factor`` fine steps.  Joined along the step axis the pieces equal each
    path's :func:`generate_increments` over n_steps, byte for byte: a
    path's Philox stream drawn in pieces continues where the previous draw
    stopped.  The arguments are checked at once; the draws are lazy.

    The paths' generators come from a free list and go back to it once the
    last piece is drawn; an iterator dropped before then keeps its own.
    """
    steps_per_unit(fine_step)
    if dim_noise < 1:
        raise ValueError(f"dim_noise must be positive, got {dim_noise}")
    rngs = _keyed_rngs(master_seed, lo, hi)
    scale = math.sqrt(fine_step)
    piece = piece_steps(factor)
    # an expression, not a generator function, so that no frame holds a
    # piece the runner has let go of while it takes the next
    return (
        _draw_block(rngs, min(piece, n_steps - start), dim_noise, scale, start + piece >= n_steps)
        for start in range(0, n_steps, piece)
    )


def _draw_block(rngs, s: int, dim_noise: int, scale: float, release: bool) -> np.ndarray:
    """The next s steps of each generator's stream, step-major
    (s, len(rngs), dim_noise), scaled by ``scale``: the one drawer of
    :func:`increment_pieces` and :func:`generate_increments`.  With
    ``release`` the generators go back to ``_FREE_RNGS`` once drawn.

    Each stream fills one row of a path-major tile of ``_DRAW_TILE`` paths,
    which is scaled into its columns of the piece; so no second piece is
    ever held.
    """
    piece = np.empty((s, len(rngs), dim_noise))
    tile = np.empty((min(_DRAW_TILE, len(rngs)), s, dim_noise))
    for lo in range(0, len(rngs), _DRAW_TILE):
        part = rngs[lo : lo + _DRAW_TILE]
        for row, rng in zip(tile, part):
            rng.standard_normal(out=row)
        np.multiply(tile[: len(part)].swapaxes(0, 1), scale, out=piece[:, lo : lo + len(part)])
    if release:
        _FREE_RNGS.extend(rngs)
    return piece


def generate_path(
    master_seed: int,
    path_index: int,
    horizon: float,
    fine_step: float,
    dim_noise: int = 1,
) -> BrownianGrid:
    """Generate one fine lattice; same arguments always give the same grid."""
    increments = generate_increments(master_seed, path_index, horizon, fine_step, dim_noise)
    return BrownianGrid(fine_step=fine_step, increments=increments, path_index=path_index)


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


def write_path(grid: BrownianGrid, path: str | Path) -> None:
    """Dump a grid to the binary path format (little-endian f64 payload)."""
    n_steps, dim_noise = grid.increments.shape
    header = _DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION, grid.fine_step, n_steps, dim_noise)
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
