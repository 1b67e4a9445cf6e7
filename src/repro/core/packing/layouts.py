"""Ciphertext slot layouts for packed tensors.

A :class:`MultiplexedLayout` generalizes the raster-scan layout with a
*gap* parameter g (paper Section 4.3 / Figure 5): the spatial grid has
g x g sub-blocks per logical pixel, holding g^2 interleaved channels.
A fresh image is gap 1 (plain raster scan); every stride-s convolution
multiplies the gap by s while keeping the ciphertext densely packed.
Tensors larger than one ciphertext span multiple ciphertexts in
contiguous slot order (Section 4.3, "Multi-ciphertext").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.intmath import ceil_div, conv_output_size


@dataclass(frozen=True)
class MultiplexedLayout:
    """Placement of a (channels, height, width) tensor into slots.

    Attributes:
        channels, height, width: logical tensor dimensions.
        gap: multiplexing factor g; g^2 channels interleave per spatial
            sub-block.
        slots: slot count n of one ciphertext.
    """

    channels: int
    height: int
    width: int
    gap: int
    slots: int

    # -- geometry -----------------------------------------------------
    @property
    def grid_height(self) -> int:
        return self.height * self.gap

    @property
    def grid_width(self) -> int:
        return self.width * self.gap

    @property
    def channels_per_block(self) -> int:
        return self.gap * self.gap

    @property
    def num_channel_blocks(self) -> int:
        return ceil_div(self.channels, self.channels_per_block)

    @property
    def total_slots(self) -> int:
        return self.num_channel_blocks * self.grid_height * self.grid_width

    @property
    def num_ciphertexts(self) -> int:
        return max(1, ceil_div(self.total_slots, self.slots))

    @property
    def logical_length(self) -> int:
        return self.channels * self.height * self.width

    @property
    def tensor_shape(self) -> tuple:
        """Shape of the tensor :meth:`pack` expects."""
        return (self.channels, self.height, self.width)

    def global_pool_kernel(self, name: str) -> int:
        """The k x k, stride-k kernel that global average pooling of this
        layout lowers to (``name`` labels the layer in the error).

        One gap serves both axes, so only a square map has such a
        kernel; a non-square one is refused rather than pooled over a
        height x height window.
        """
        if self.height != self.width:
            raise ValueError(
                f"{name}: global average pooling of a {self.height}x"
                f"{self.width} map; the packed lowering needs a square map"
            )
        return self.height

    # -- index mapping ---------------------------------------------------
    def slot(self, c, y, x):
        """Global slot index of logical element (c, y, x) (vectorized).

        slot = t*(G_h*G_w) + (y*g + uy)*G_w + (x*g + ux), where
        t = c // g^2 and (uy, ux) locate c % g^2 inside the sub-block.
        """
        c = np.asarray(c)
        y = np.asarray(y)
        x = np.asarray(x)
        g = self.gap
        t = c // self.channels_per_block
        u = c % self.channels_per_block
        uy = u // g
        ux = u % g
        return (
            t * (self.grid_height * self.grid_width)
            + (y * g + uy) * self.grid_width
            + (x * g + ux)
        )

    def slot_of_logical(self, index):
        """Slot of a raster-scan logical index c*(h*w) + y*w + x."""
        index = np.asarray(index)
        hw = self.height * self.width
        c = index // hw
        rem = index % hw
        return self.slot(c, rem // self.width, rem % self.width)

    # -- tensor <-> slot vectors --------------------------------------------
    def pack(self, tensor: np.ndarray) -> list:
        """Pack a (C,H,W) tensor into ``num_ciphertexts`` slot vectors."""
        if tensor.shape != (self.channels, self.height, self.width):
            raise ValueError(
                f"tensor shape {tensor.shape} does not match layout "
                f"({self.channels},{self.height},{self.width})"
            )
        flat = np.zeros(self.num_ciphertexts * self.slots)
        c, y, x = np.meshgrid(
            np.arange(self.channels),
            np.arange(self.height),
            np.arange(self.width),
            indexing="ij",
        )
        flat[self.slot(c, y, x).ravel()] = tensor.ravel()
        return [
            flat[i * self.slots : (i + 1) * self.slots]
            for i in range(self.num_ciphertexts)
        ]

    def unpack(self, vectors: list) -> np.ndarray:
        """Inverse of :meth:`pack`."""
        flat = np.concatenate(vectors)
        c, y, x = np.meshgrid(
            np.arange(self.channels),
            np.arange(self.height),
            np.arange(self.width),
            indexing="ij",
        )
        return flat[self.slot(c, y, x).ravel()].reshape(
            self.channels, self.height, self.width
        )

    def __repr__(self) -> str:
        return (
            f"MultiplexedLayout(c={self.channels}, h={self.height}, "
            f"w={self.width}, gap={self.gap}, cts={self.num_ciphertexts})"
        )


def conv_output_layout(
    in_layout: MultiplexedLayout,
    channels: int,
    kernel,
    stride,
    padding,
    dilation,
) -> MultiplexedLayout:
    """The layout a convolution or pool over ``in_layout`` writes.

    Each spatial size is :func:`conv_output_size` of its axis, and the
    gap grows by the stride (paper Figure 5b).  One gap serves both
    axes, so a stride that differs between them is refused here, the
    one place every packing path (materialize and analyze modes, the
    sibling-fusion gate, the Lee et al. baseline) gets its output layout.
    """
    (kh, kw), (sh, sw) = kernel, stride
    if sh != sw:
        raise ValueError(
            f"anisotropic strides are not supported: stride {tuple(stride)} "
            "needs one gap per axis, and a multiplexed layout has one"
        )
    return MultiplexedLayout(
        channels=channels,
        height=conv_output_size(in_layout.height, kh, sh, padding[0], dilation[0]),
        width=conv_output_size(in_layout.width, kw, sw, padding[1], dilation[1]),
        gap=in_layout.gap * sh,
        slots=in_layout.slots,
    )


@dataclass(frozen=True)
class VectorLayout:
    """A flat vector occupying the first ``length`` slots."""

    length: int
    slots: int

    @property
    def num_ciphertexts(self) -> int:
        return max(1, ceil_div(self.length, self.slots))

    @property
    def total_slots(self) -> int:
        return self.length

    @property
    def logical_length(self) -> int:
        return self.length

    @property
    def tensor_shape(self) -> tuple:
        return (self.length,)

    def slot_of_logical(self, index):
        return np.asarray(index)

    def pack(self, vector: np.ndarray) -> list:
        flat = np.zeros(self.num_ciphertexts * self.slots)
        flat[: self.length] = np.asarray(vector).ravel()
        return [
            flat[i * self.slots : (i + 1) * self.slots]
            for i in range(self.num_ciphertexts)
        ]

    def unpack(self, vectors: list) -> np.ndarray:
        return np.concatenate(vectors)[: self.length]


@dataclass(frozen=True)
class StackedLayout:
    """Several independent layouts stacked along the ciphertext axis.

    The fused output of merged sibling linear layers (sibling fusion,
    docs/graphopt.md): output block b of part k lives at ciphertext
    index ``offset(k) + b``, where ``offset`` accumulates the earlier
    parts' ciphertext counts.  A cheap SliceInstr then splits the stack
    back into per-branch values, so downstream layers see the exact
    layout the un-fused program would have produced.
    """

    parts: tuple  # of single-tensor layouts (Multiplexed/Vector)
    slots: int

    def __post_init__(self):
        if not self.parts:
            raise ValueError("StackedLayout needs at least one part")
        for part in self.parts:
            if part.slots != self.slots:
                raise ValueError("all parts must share the slot count")

    @property
    def num_ciphertexts(self) -> int:
        return sum(part.num_ciphertexts for part in self.parts)

    @property
    def total_slots(self) -> int:
        return sum(part.total_slots for part in self.parts)

    @property
    def logical_length(self) -> int:
        return sum(part.logical_length for part in self.parts)

    @property
    def tensor_shape(self) -> tuple:
        return (self.logical_length,)

    def ct_ranges(self) -> list:
        """Per-part (start, stop) ciphertext index ranges."""
        ranges = []
        offset = 0
        for part in self.parts:
            ranges.append((offset, offset + part.num_ciphertexts))
            offset += part.num_ciphertexts
        return ranges

    def pack(self, tensors) -> list:
        """Pack a sequence of per-part tensors (one per part)."""
        if len(tensors) != len(self.parts):
            raise ValueError(
                f"expected {len(self.parts)} part tensors, got {len(tensors)}"
            )
        vectors = []
        for part, tensor in zip(self.parts, tensors):
            vectors.extend(part.pack(np.asarray(tensor)))
        return vectors

    def unpack(self, vectors: list) -> list:
        """Inverse of :meth:`pack`; returns one tensor per part."""
        outs = []
        for part, (start, stop) in zip(self.parts, self.ct_ranges()):
            outs.append(part.unpack(list(vectors[start:stop])))
        return outs

    def __repr__(self) -> str:
        return f"StackedLayout(parts={list(self.parts)!r})"


@dataclass(frozen=True)
class BlockReplicatedLayout:
    """``batch`` independent copies of a single-ciphertext layout.

    The slot-batching economics of serving (docs/serving.md): a layout
    occupying T <= n/B slots leaves its remaining capacity idle, so B
    clients' tensors are placed in disjoint blocks of S = n/B slots
    each.  Every packed linear layer whose single-client reads stay
    inside [0, S) — guaranteed because reads always land inside the
    input layout's occupied slots — then acts on all B blocks at once
    when its diagonal vectors are block-replicated
    (:meth:`repro.core.packing.matvec.PackedMatVec.batched`).

    ``pack`` takes a stacked array whose leading dimension is the batch
    (each entry shaped for the inner layout); ``unpack`` returns the
    same stacked shape.
    """

    inner: object
    batch: int
    slots: int

    def __post_init__(self):
        if self.inner.num_ciphertexts != 1:
            raise ValueError("block replication needs a single-ciphertext layout")
        if self.slots % self.batch:
            raise ValueError("batch must divide the slot count")
        if self.inner.total_slots > self.block_slots:
            raise ValueError(
                f"layout occupies {self.inner.total_slots} slots > block "
                f"size {self.block_slots} at batch {self.batch}"
            )

    @property
    def block_slots(self) -> int:
        return self.slots // self.batch

    @property
    def num_ciphertexts(self) -> int:
        return 1

    @property
    def total_slots(self) -> int:
        return self.slots

    @property
    def logical_length(self) -> int:
        return self.batch * self.inner.logical_length

    @property
    def tensor_shape(self) -> tuple:
        return (self.batch,) + tuple(self.inner.tensor_shape)

    def pack(self, tensors) -> list:
        tensors = np.asarray(tensors)
        if tensors.shape[0] != self.batch:
            raise ValueError(
                f"expected a leading batch dimension of {self.batch}, "
                f"got shape {tensors.shape}"
            )
        flat = np.zeros(self.slots)
        step = self.block_slots
        for j in range(self.batch):
            flat[j * step : (j + 1) * step] = self.inner.pack(tensors[j])[0][:step]
        return [flat]

    def unpack(self, vectors: list) -> np.ndarray:
        (flat,) = vectors
        step = self.block_slots
        outs = []
        for j in range(self.batch):
            padded = np.zeros(self.inner.slots)
            padded[:step] = flat[j * step : (j + 1) * step]
            outs.append(self.inner.unpack([padded]))
        return np.stack(outs)

    def __repr__(self) -> str:
        return f"BlockReplicatedLayout(batch={self.batch}, inner={self.inner!r})"


@dataclass(frozen=True)
class TiledLayout(BlockReplicatedLayout):
    """One client's tensor in every one of the ``batch`` blocks.

    The layout of a lone client's run at the program's slot-batch
    capacity (``FheProgram.capacity_view``): ``pack`` takes one tensor
    shaped for the inner layout and copies it into each block of S =
    n/B slots, so every register is S-periodic; ``unpack`` reads block
    0.
    """

    @property
    def logical_length(self) -> int:
        return self.inner.logical_length

    @property
    def tensor_shape(self) -> tuple:
        return tuple(self.inner.tensor_shape)

    def pack(self, tensor) -> list:
        block = self.inner.pack(tensor)[0][: self.block_slots]
        return [np.tile(block, self.batch)]

    def unpack(self, vectors: list) -> np.ndarray:
        (flat,) = vectors
        padded = np.zeros(self.inner.slots)
        padded[: self.block_slots] = flat[: self.block_slots]
        return self.inner.unpack([padded])

    def __repr__(self) -> str:
        return f"TiledLayout(copies={self.batch}, inner={self.inner!r})"
