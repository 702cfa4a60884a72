"""Chip geometry: tiles, channels, bandwidth, and communication capacity.

A chip of ``m1 x m2`` physical qubits is carved into square tile slots
(side ``5d`` for the double-defect model, ``ceil(sqrt(2) d)`` for lattice
surgery).  The data qubits occupy an ``r x c`` sub-array of slots; everything
else is communication fabric, bookkept as the widths of the ``r+1`` horizontal
and ``c+1`` vertical channel lines running between and around the data rows
and columns (boundary channels included).

Double defect: a braiding lane needs ``2.5d`` qubits of width.  Abutting tiles
still expose one lane along the tile pitch (the tile carries its own routing
margin), so a channel of extra physical width ``W`` has bandwidth
``1 + floor(W / 2.5d)``.  An unused slot row contributes ``5d`` of width, i.e.
two extra lanes — which is why widening every channel by one slot row raises
the chip capacity by exactly one.

Lattice surgery: channels are made of whole ancilla tiles, so widths are
counted in tiles and the bandwidth of a channel is its tile width; abutting
data tiles have no channel between them (bandwidth 0), long-range CNOTs there
are impossible and only neighbor merges remain.  The tile grid is bipartite,
so a circuit whose communication graph has an odd cycle cannot run on a chip
without fabric; that is why the data array never fills the whole slot grid
of a lattice-surgery ``min`` chip (see ``config_dims``).

There is one kind of layout: ``derive_layout`` deals every unused slot row
and column (and, for double defect, the leftover physical width) to the
channels.  Double-defect bandwidth adjusting re-deals the same total width by
traffic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate

from .errors import InfeasibleError


class ChipModel(Enum):
    DOUBLE_DEFECT = "dd"
    LATTICE_SURGERY = "ls"


def tile_side(model: ChipModel, d: int) -> int:
    if model is ChipModel.DOUBLE_DEFECT:
        return 5 * d
    return math.isqrt(2 * d * d) + 1  # ceil(sqrt(2) * d); sqrt(2)*d is never integral


@dataclass(frozen=True)
class ChipSpec:
    model: ChipModel
    m1: int
    m2: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InfeasibleError("code distance d must be >= 1")
        if min(self.m1, self.m2) < tile_side(self.model, self.d):
            raise InfeasibleError(
                f"chip {self.m1}x{self.m2} too small for one {tile_side(self.model, self.d)}-wide tile"
            )


def channel_bandwidth(width: int, d: int, model: ChipModel) -> int:
    """Lanes afforded by a channel of ``width`` physical qubits (raw floor formula)."""
    if width < 0:
        raise InfeasibleError("channel width must be >= 0")
    if model is ChipModel.DOUBLE_DEFECT:
        return (2 * width) // (5 * d)  # floor(width / 2.5d) without fractions
    return width // tile_side(model, d)


def chip_capacity(bandwidth: int) -> int:
    """Largest gate count guaranteed simultaneously routable on a chip of this
    bandwidth; 0 means no routing at all (kept distinct from the b>=1 regime)."""
    if bandwidth < 0:
        raise InfeasibleError("bandwidth must be >= 0")
    if bandwidth == 0:
        return 0
    return (bandwidth - 1) // 2 + 3


def minimal_perimeter_shape(n: int, max_r: int, max_c: int) -> tuple[int, int]:
    """Smallest-perimeter r x c with r*c >= n that wastes less than a full
    row/column (r*c - n < min(r, c)); ties favor squareness, then fewer rows."""
    if n == 0:
        return (0, 0)
    if max_r * max_c < n or max_r < 1 or max_c < 1:
        raise InfeasibleError(f"{max_r}x{max_c} tile grid cannot hold {n} qubits")
    strict: list[tuple[int, int]] = []
    for r in range(1, max_r + 1):
        c = -(-n // r)  # smallest c with r*c >= n
        if c <= max_c and r * c - n < min(r, c):
            strict.append((r, c))
    return min(strict, key=lambda rc: (2 * (rc[0] + rc[1]), abs(rc[0] - rc[1]), rc[0]))


def _gap_order(r: int) -> list[int]:
    """Deal order for distributing spare rows/cols among the r+1 channel lines:
    interior lines first (centermost first), then the two boundary lines."""
    interior = sorted(range(1, r), key=lambda i: (abs(2 * i - r), i))
    return interior + [0, r] if r >= 1 else [0]


def _round_robin(total: int, order: list[int], size: int) -> list[int]:
    out = [0] * size
    i = 0
    while total > 0:
        out[order[i % len(order)]] += 1
        total -= 1
        i += 1
    return out


def _tracks(widths: tuple[int, ...]) -> tuple[int, ...]:
    """The tile track of each data line after the channels ``widths``: line
    ``i`` lies past ``widths[0..i]`` and the ``i`` lines before it."""
    return tuple(i + s for i, s in enumerate(accumulate(widths)))


@dataclass(frozen=True)
class ChipLayout:
    """Tile-array layout with per-channel widths.

    ``h_widths[i]`` is the width of the horizontal channel above data row ``i``
    (index r = below the last row); ``v_widths`` likewise for columns.  Widths
    are physical qubits for double defect and whole tiles for lattice surgery;
    the array and its channels must fit on the chip.  The bandwidths, the
    capacity and the tile tracks are computed on first use and then kept, as
    the layout never changes (``dataclasses.replace`` builds a re-dealt one).
    """

    model: ChipModel
    d: int
    m1: int
    m2: int
    array_r: int
    array_c: int
    h_widths: tuple[int, ...]
    v_widths: tuple[int, ...]

    def __post_init__(self):
        assert len(self.h_widths) == self.array_r + 1
        assert len(self.v_widths) == self.array_c + 1
        side = self.side
        if self.model is ChipModel.DOUBLE_DEFECT:
            used_r = self.array_r * side + sum(self.h_widths)
            used_c = self.array_c * side + sum(self.v_widths)
        else:
            used_r = (self.array_r + sum(self.h_widths)) * side
            used_c = (self.array_c + sum(self.v_widths)) * side
        if used_r > self.m1 or used_c > self.m2:
            raise InfeasibleError(
                f"layout footprint {used_r}x{used_c} exceeds chip {self.m1}x{self.m2}"
            )

    @property
    def side(self) -> int:
        return tile_side(self.model, self.d)

    def _line_bandwidth(self, width: int) -> int:
        if self.model is ChipModel.DOUBLE_DEFECT:
            return 1 + channel_bandwidth(width, self.d, self.model)
        return width

    @cached_property
    def bw_h(self) -> tuple[int, ...]:
        return tuple(self._line_bandwidth(w) for w in self.h_widths)

    @cached_property
    def bw_v(self) -> tuple[int, ...]:
        return tuple(self._line_bandwidth(w) for w in self.v_widths)

    @cached_property
    def bandwidth(self) -> int:
        """Chip bandwidth: the minimum over all channels."""
        return min(self.bw_h + self.bw_v)

    @cached_property
    def capacity(self) -> int:
        return chip_capacity(self.bandwidth)

    @property
    def total_bandwidth(self) -> int:
        return sum(self.bw_h) + sum(self.bw_v)

    # -- lattice-surgery tile geometry -------------------------------------
    @property
    def grid_rows(self) -> int:
        """Tile rows of the full grid (lattice surgery)."""
        return self.array_r + sum(self.h_widths)

    @property
    def grid_cols(self) -> int:
        return self.array_c + sum(self.v_widths)

    @cached_property
    def row_tracks(self) -> tuple[int, ...]:
        """Array row -> absolute tile row (lattice surgery)."""
        return _tracks(self.h_widths[:self.array_r])

    @cached_property
    def col_tracks(self) -> tuple[int, ...]:
        return _tracks(self.v_widths[:self.array_c])

    def describe(self) -> dict:
        return {
            "model": self.model.value,
            "d": self.d,
            "chip": [self.m1, self.m2],
            "array": [self.array_r, self.array_c],
            "h_bandwidths": list(self.bw_h),
            "v_bandwidths": list(self.bw_v),
            "bandwidth": self.bandwidth,
            "capacity": self.capacity,
        }


def derive_layout(spec: ChipSpec, mapped_tiles: int) -> ChipLayout:
    """Carve the chip into the maximal slot grid, reserve a minimal-perimeter
    data array for ``mapped_tiles`` qubits and hand every unused slot row and
    leftover physical width to the channels round-robin (centermost interior
    channels first).  This uniform layout is the one the capacity guarantees
    reason about and the one every compile maps onto; double-defect
    limited-resource compiles then re-deal its width by traffic
    (``placement.adjust_bandwidth``)."""
    side = tile_side(spec.model, spec.d)
    slots_r, slots_c = spec.m1 // side, spec.m2 // side
    r, c = minimal_perimeter_shape(mapped_tiles, slots_r, slots_c)
    if spec.model is ChipModel.DOUBLE_DEFECT:
        # whole slot rows first (two lanes each), then the sub-lane leftover
        h = [g * side for g in _round_robin(slots_r - r, _gap_order(r), r + 1)]
        v = [g * side for g in _round_robin(slots_c - c, _gap_order(c), c + 1)]
        for widths, leftover, size in (
            (h, spec.m1 - slots_r * side, r),
            (v, spec.m2 - slots_c * side, c),
        ):
            for i, add in enumerate(_round_robin(leftover, _gap_order(size), size + 1)):
                widths[i] += add
        h_widths, v_widths = tuple(h), tuple(v)
    else:
        h_widths = tuple(_round_robin(slots_r - r, _gap_order(r), r + 1))
        v_widths = tuple(_round_robin(slots_c - c, _gap_order(c), c + 1))
    return ChipLayout(
        model=spec.model, d=spec.d, m1=spec.m1, m2=spec.m2,
        array_r=r, array_c=c, h_widths=h_widths, v_widths=v_widths,
    )


def _explicit_dims(kind: str) -> tuple[int, int] | None:
    m1, _, m2 = kind.partition("x")
    return (int(m1), int(m2)) if m1.isdigit() and m2.isdigit() else None


def check_chip_kind(kind: str) -> str:
    """Return ``kind`` if it names a chip size, else raise InfeasibleError."""
    if kind in ("min", "4x", "sufficient") or _explicit_dims(kind):
        return kind
    raise InfeasibleError(f"chip {kind!r}: expected min, 4x, sufficient or <m1>x<m2>")


def config_dims(
    kind: str,
    n: int,
    d: int,
    model: ChipModel,
    pm: int | None = None,
) -> tuple[int, int]:
    """Chip dimensions for a configuration kind: ``<m1>x<m2>`` as given, or
    a square for the standard configurations.

    ``min``: smallest square slot grid holding n qubits.  For lattice surgery
    the side grows by one slot when the data array would fill that whole grid
    (n > s*(s-1) for s = ceil(sqrt(n)), e.g. n = 13..16): with no free slot
    every channel has bandwidth 0, only tile-adjacent qubits could ever
    interact, and any circuit with an odd communication cycle would be
    unschedulable.  The extra slot row and column become fabric, as they
    already are whenever the array leaves slots over.
    ``4x``: for lattice surgery the 5d-pitch square (the quadrupled-qubit
    budget); for double defect, twice the minimum side.  ``sufficient``:
    smallest square whose uniformly-distributed bandwidth gives capacity >= pm.
    A negative qubit count or parallelism is rejected whatever the kind.
    """
    if n < 0:
        raise InfeasibleError(f"qubit count {n} must be >= 0")
    if pm is not None and pm < 0:
        raise InfeasibleError(f"parallelism {pm} must be >= 0")
    explicit = _explicit_dims(check_chip_kind(kind))
    if explicit:
        return explicit
    s = math.isqrt(n - 1) + 1 if n > 1 else 1  # ceil(sqrt(n))
    side = tile_side(model, d)
    if kind == "min":
        if model is ChipModel.LATTICE_SURGERY and minimal_perimeter_shape(n, s, s) == (s, s):
            s += 1
        l = s * side
    elif kind == "4x":
        l = s * 5 * d if model is ChipModel.LATTICE_SURGERY else 2 * s * 5 * d
    else:  # sufficient
        if pm is None:
            raise InfeasibleError("sufficient configuration requires the parallelism estimate")
        if model is ChipModel.DOUBLE_DEFECT:
            gap = max(0, pm - 3)  # capacity(1 + 2*gap) = gap + 3
            l = (s + (s + 1) * gap) * side
        else:
            b = 1 if pm <= 3 else 2 * (pm - 3) + 1
            l = (s + (s + 1) * b) * side
    return (l, l)


def dims_for_avg_bandwidth(n: int, d: int, model: ChipModel, b_avg: int) -> tuple[int, int]:
    """Square chip whose channels average the requested bandwidth, used by the
    scalability sweeps.  Double defect distributes whole slot rows (each worth
    two lanes) round-robin; lattice surgery gives every channel b_avg tiles."""
    if b_avg < 1:
        raise InfeasibleError("average bandwidth must be >= 1")
    s = math.isqrt(n - 1) + 1 if n > 1 else 1
    side = tile_side(model, d)
    if model is ChipModel.DOUBLE_DEFECT:
        spare = -(-(s + 1) * (b_avg - 1) // 2)  # ceil: rows worth 2 lanes each
        l = (s + spare) * side
    else:
        l = (s + (s + 1) * b_avg) * side
    return (l, l)
