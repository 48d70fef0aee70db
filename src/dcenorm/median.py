"""Kernels of ``volume.median_filter``, which documents them.

``volume.median_filter`` imports this module on its first call, so a
process that never filters does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# Output voxels per block of the median filter, so that a block's
# work rows stay in cache.
_BLOCK_VOXELS = 2 ** 14


def _merge(a: list[int], b: list[int], comparators: list[tuple[int, int]]) -> list[int]:
    """Batcher's odd-even merge of two ascending wire lists of any lengths.

    Appends its compare-exchanges as (low wire, high wire) pairs to
    ``comparators`` and returns the wires in ascending order of their
    values once those have run.
    """
    if not a or not b:
        return a + b
    if len(a) == len(b) == 1:
        comparators.append((a[0], b[0]))
        return a + b
    even = _merge(a[::2], b[::2], comparators)
    odd = _merge(a[1::2], b[1::2], comparators)
    comparators.extend(zip(odd, even[1:]))
    return [w for pair in zip(even, odd) for w in pair] + even[len(odd):]


@dataclass(frozen=True)
class _MergeProgram:
    """A pruned merging network, compiled to ufunc calls over registers.

    Registers ``0 .. n_inputs-1`` hold the inputs, ascending runs of
    ``length`` values laid end to end; a program reads only the input
    registers in ``reads``. The next ``n_work`` registers are
    work rows. After the ``steps`` (ufunc, a, b, out) have run,
    ``outputs[i]`` holds the value of rank ``ranks[i]``.
    """

    length: int
    n_inputs: int
    n_work: int
    steps: tuple
    ranks: tuple[int, ...]
    outputs: tuple[int, ...]
    reads: tuple[int, ...]


def _merge_program(runs: int, length: int, ranks: tuple[int, ...]) -> _MergeProgram:
    """Merge ``runs`` ascending runs of ``length`` values, keeping ``ranks``.

    The runs are merged pairwise with Batcher's odd-even merge. Walking
    the comparators backwards from the wanted ranks drops every one
    whose outputs nothing reads, and keeps only the min or the max of a
    comparator when only that one is read. Work registers are then
    assigned so that an output overwrites an input that no later step
    reads; a comparator that keeps both outputs writes its min to a free
    register first, since its max still reads both inputs.
    """
    n_inputs = runs * length
    comparators: list[tuple[int, int]] = []
    order = [list(range(k * length, (k + 1) * length)) for k in range(runs)]
    while len(order) > 1:
        pairs = [_merge(order[k], order[k + 1], comparators) for k in range(0, len(order) - 1, 2)]
        order = pairs + order[2 * len(pairs):]
    wanted = {order[0][r] for r in ranks}
    kept = []
    for lo, hi in reversed(comparators):
        keep_lo, keep_hi = lo in wanted, hi in wanted
        if keep_lo or keep_hi:
            kept.append((lo, hi, keep_lo, keep_hi))
            wanted |= {lo, hi}
    reads = tuple(sorted(wanted))

    register = list(range(n_inputs))  # wire -> register holding its value
    free: list[int] = []
    n_work = 0

    def fresh() -> int:
        nonlocal n_work
        if free:
            return free.pop()
        n_work += 1
        return n_inputs + n_work - 1

    steps = []
    for lo, hi, keep_lo, keep_hi in reversed(kept):
        a, b = register[lo], register[hi]
        spent = [r for r in (a, b) if r >= n_inputs]  # work rows that no later step reads
        if keep_lo and keep_hi:
            register[lo] = fresh()
            register[hi] = spent.pop() if spent else fresh()
        else:
            wire = lo if keep_lo else hi
            register[wire] = spent.pop() if spent else fresh()
            register[hi if keep_lo else lo] = None
        if keep_lo:
            steps.append((np.minimum, a, b, register[lo]))
        if keep_hi:
            steps.append((np.maximum, a, b, register[hi]))
        free.extend(spent)
    outputs = tuple(register[order[0][r]] for r in ranks)
    return _MergeProgram(length, n_inputs, n_work, tuple(steps), ranks, outputs, reads)


# Few keys: a radius and the ranks of the window sizes in one block.
@functools.lru_cache(maxsize=None)
def _median_programs(side: int, ranks: tuple[int, ...]) -> tuple[_MergeProgram, ...]:
    """The z, y and x merge programs that select ``ranks`` of a side**3 window.

    The z program sorts each run of ``side`` voxels along z, the y
    program merges ``side`` neighbouring z-runs along y into a sorted
    ``side**2`` run, and the x program merges ``side`` of those along x,
    pruned to ``ranks``. Each program keeps only the ranks that the next
    one reads.
    """
    x = _merge_program(side, side * side, ranks)
    y = _merge_program(side, side, tuple(sorted({w % x.length for w in x.reads})))
    z = _merge_program(side, 1, tuple(sorted({w % y.length for w in y.reads})))
    return z, y, x


def _run(
    program: _MergeProgram, source: dict[int, np.ndarray], stride: int, work: np.ndarray, n: int
) -> dict[int, np.ndarray]:
    """Run ``program`` over ``n`` voxels; return its outputs by rank.

    Input wire ``shift * length + rank`` reads ``source[rank]`` shifted
    by ``shift * stride`` voxels.
    """
    registers = [None] * program.n_inputs + [row[:n] for row in work[: program.n_work]]
    for wire in program.reads:
        shift, rank = divmod(wire, program.length)
        registers[wire] = source[rank][shift * stride : shift * stride + n]
    for ufunc, a, b, out in program.steps:
        ufunc(registers[a], registers[b], out=registers[out])
    return {rank: registers[r] for rank, r in zip(program.ranks, program.outputs)}


def _pieces(
    box: tuple[int, int, int, int], shape: tuple[int, int, int], radius: int
) -> list[tuple[slice, slice, slice, int]]:
    """Split the voxels of planes [z0, z1), rows [y0, y1) by window rank.

    Every voxel within ``radius`` of a face gets the slices of its own
    along that axis; the rest share one. Each piece carries the index,
    ceil(n/2) - 1, of the nearest-rank median of its clipped windows of
    n voxels.
    """

    def slices(lo: int, hi: int, n: int) -> list[tuple[slice, int]]:
        faces = (*range(1, radius + 1), *range(n - radius, n))
        cuts = sorted({lo, hi, *(c for c in faces if lo < c < hi)})
        return [
            (slice(a, b), min(a + radius, n - 1) - max(a - radius, 0) + 1) for a, b in zip(cuts, cuts[1:])
        ]

    (z0, z1, y0, y1), (nz, ny, nx) = box, shape
    return [
        (zs, ys, xs, (cz * cy * cx + 1) // 2 - 1)
        for zs, cz in slices(z0, z1, nz)
        for ys, cy in slices(y0, y1, ny)
        for xs, cx in slices(0, nx, nx)
    ]


def _padded(data: np.ndarray, radius: int, tail: int) -> tuple[np.ndarray, np.ndarray]:
    """``data`` inside a margin of ``radius`` +inf voxels.

    Returns the flat buffer, which ends in ``tail`` more +inf voxels,
    and the padded volume's 3-D view of it.
    """
    nz, ny, nx = data.shape
    shape = (nz + 2 * radius, ny + 2 * radius, nx + 2 * radius)
    flat = np.full(math.prod(shape) + tail, np.inf, dtype=np.float32)
    padded = flat[: math.prod(shape)].reshape(shape)
    padded[radius : radius + nz, radius : radius + ny, radius : radius + nx] = data
    return flat, padded


def _network_median(data: np.ndarray, radius: int) -> np.ndarray:
    nz, ny, nx = data.shape
    side, pad = 2 * radius + 1, 2 * radius
    row, plane = nx + pad, (ny + pad) * (nx + pad)
    # The window of output voxel (z, y, x) starts at the flat index of
    # padded[z, y, x], so every shifted input is a contiguous 1-D slice.
    # Blocks run over whole padded rows, pad columns included, and a
    # block of whole planes includes their pad rows; those outputs are
    # never stored. The tail keeps the last block's shifts in bounds.
    tail = pad * row + pad
    flat, padded = _padded(data, radius, tail)

    if plane <= _BLOCK_VOXELS:
        planes = min(nz, _BLOCK_VOXELS // plane)
        boxes = [(z0, min(z0 + planes, nz), 0, ny + pad) for z0 in range(0, nz, planes)]
    else:
        rows = max(1, _BLOCK_VOXELS // row)
        boxes = [(z, z + 1, y0, min(y0 + rows, ny)) for z in range(nz) for y0 in range(0, ny, rows)]
    blocks = []
    for z0, z1, y0, y1 in boxes:
        pieces = _pieces((z0, z1, y0, min(y1, ny)), data.shape, radius)
        programs = _median_programs(side, tuple(sorted({rank for *_, rank in pieces})))
        blocks.append(((z0, z1, y0, y1), pieces, programs))

    # The z and x programs share work rows: the x program reads only
    # the y program's outputs, which all lie in the y program's rows.
    zx_rows = max(p.n_work for _, _, (z, _, x) in blocks for p in (z, x))
    y_rows = max(y.n_work for _, _, (_, y, _) in blocks)
    n_max = max((z1 - z0 - 1) * plane + (y1 - y0) * row for (z0, z1, y0, y1), _, _ in blocks)
    work = np.empty((zx_rows + y_rows, n_max + tail), dtype=np.float32)
    for (z0, z1, y0, y1), pieces, (z_program, y_program, x_program) in blocks:
        start = z0 * plane + y0 * row
        n = (z1 - z0 - 1) * plane + (y1 - y0) * row
        runs = _run(z_program, {0: flat[start:]}, plane, work[:zx_rows], n + tail)
        runs = _run(y_program, runs, row, work[zx_rows:], n + pad)
        ranked = _run(x_program, runs, 1, work[:zx_rows], n)
        # Later blocks read the padded volume only from their own start
        # on, so each block stores its outputs over its own inputs.
        for zs, ys, xs, rank in pieces:
            block = ranked[rank].reshape(z1 - z0, y1 - y0, row)
            padded[zs, ys, xs] = block[zs.start - z0 : zs.stop - z0, ys.start - y0 : ys.stop - y0, xs]
    return padded[:nz, :ny, :nx]


def _sorted_median(data: np.ndarray, radius: int) -> np.ndarray:
    nz, ny, nx = data.shape
    side = 2 * radius + 1
    _, padded = _padded(data, radius, 0)
    windows = sliding_window_view(padded, (side, side, side))
    slab = max(1, _BLOCK_VOXELS // (ny * nx))
    buf = np.empty((min(slab, nz), ny, nx, side ** 3), dtype=np.float32)
    for z0 in range(0, nz, slab):
        z1 = min(z0 + slab, nz)
        work = buf[: z1 - z0]
        np.copyto(work.reshape(windows[z0:z1].shape), windows[z0:z1])
        work.sort(axis=-1)  # the +inf padding sorts after every voxel
        # As in _network_median, later slabs read only from plane z1 on.
        for zs, ys, xs, rank in _pieces((z0, z1, 0, ny), data.shape, radius):
            padded[zs, ys, xs] = work[zs.start - z0 : zs.stop - z0, ys, xs, rank]
    return padded[:nz, :ny, :nx]


def median_of_windows(data: np.ndarray, radius: int) -> np.ndarray:
    """Nearest-rank median of the clipped cubic window around each voxel.

    Returns a float32 array of ``data``'s shape, a view into the padded
    copy; radius 1 runs the comparator network, larger radii sort
    gathered windows.
    """
    median = _network_median if radius == 1 else _sorted_median
    return median(data, radius)
