"""Deployed CIM layers: inference-only, numpy-level, fully accounted.

After training (with :mod:`repro.nn`), a model is *deployed*: binary
weights are programmed into XNOR crossbars (with variability and
defects applied at programming time), scales/batch-norm constants are
frozen into digital periphery, and inference runs through the analog
chain: wordline drive → current summation → ADC → digital
accumulate/scale/normalize → sign.  This mirrors the Fig. 2
architecture one-to-one.

All layers book operations on a shared :class:`OpLedger`, which the
energy model prices to regenerate Table I.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cim.adc import ADC, PopcountADC
from repro.cim.crossbar import (
    XnorCrossbar,
    merge_leading_axes,
    split_leading_axes,
)
from repro.cim.ledger import OpLedger
from repro.cim.mapping import ConvShape, MappingPlan, MappingStrategy, plan_conv_mapping
from repro.devices.defects import DefectModel
from repro.devices.mtj import MTJParams
from repro.devices.variability import DeviceVariability
from repro.tensor import bitpack
from repro.tensor.functional import (
    _conv_scratch_buffers,
    _gather_padded_patches,
)


def _drive_masks(chunk: np.ndarray, axis: int):
    """Wordline drive masks of a {−1, 0, +1} drive chunk, in the arena.

    Returns ``(pos, neg, n_active)``: float64 {0, 1} masks of the rows
    driven "true" / "false" and the per-sample count of asserted rows,
    summed over the row ``axis`` (kept as a length-1 axis).  All three
    are per-thread scratch-arena buffers, dead once the calling stage
    returns.  The count sums each mask on its own: every partial sum
    is a small integer, so the grouping cannot change a bit.
    """
    count_shape = tuple(1 if a == axis else d
                        for a, d in enumerate(chunk.shape))
    pos, neg, n_active, n_neg = _conv_scratch_buffers(
        ("cim_drive", axis) + chunk.shape,
        lambda: (np.empty(chunk.shape), np.empty(chunk.shape),
                 np.empty(count_shape), np.empty(count_shape)))
    np.greater(chunk, 0, out=pos)
    np.less(chunk, 0, out=neg)
    np.sum(pos, axis=axis, keepdims=True, out=n_active)
    np.sum(neg, axis=axis, keepdims=True, out=n_neg)
    np.add(n_active, n_neg, out=n_active)
    return pos, neg, n_active


class CimConfig:
    """Deployment configuration shared by all layers of a network."""

    def __init__(self,
                 mtj_params: Optional[MTJParams] = None,
                 variability: Optional[DeviceVariability] = None,
                 defects: Optional[DefectModel] = None,
                 adc_bits: int = 6,
                 max_rows: int = 128,
                 max_cols: int = 128,
                 wire_resistance: float = 0.0,
                 mapping_strategy: MappingStrategy = MappingStrategy.UNFOLDED_COLUMN,
                 use_bitpack: Optional[bool] = None,
                 seed: Optional[int] = None):
        self.mtj_params = mtj_params or MTJParams()
        self.variability = variability
        self.defects = defects
        self.adc_bits = adc_bits
        self.max_rows = max_rows
        self.max_cols = max_cols
        self.wire_resistance = wire_resistance
        self.mapping_strategy = mapping_strategy
        # Deployment-wide default for the layers' bit-packed XNOR
        # route: None = auto (per-shape heuristic), True = force the
        # packed kernel, False = always the float32 exact route.
        self.use_bitpack = use_bitpack
        self.rng = np.random.default_rng(seed)


class CimLayer:
    """Base class: every deployed stage shares the network ledger."""

    def __init__(self, ledger: OpLedger):
        self.ledger = ledger

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class CimLinear(CimLayer):
    """Binary linear layer on tiled XNOR crossbars.

    The logical (in_features × out_features) weight matrix is tiled
    onto physical arrays of at most (max_rows × max_cols); each row
    tile's partial MAC is ADC-converted and accumulated digitally.

    ``input_mask`` (settable per pass) gates wordlines — the hardware
    realization of neuron dropout from the preceding layer.

    When the analog chain is ideal and every row chunk's
    :class:`PopcountADC` has an odd integer step, the layer takes the
    same *exact-integer float32* route as :class:`CimConv2d`: an ideal
    crossbar's decoded MAC is a small integer, float32 represents it
    exactly, and an odd step means ``rint(mac / step)`` can never land
    on a rounding tie — so the float32 GEMM is bit-identical to the
    analog simulation (and books the same ledger entries).  Set
    ``exact_route = False`` to force the analog path.

    Inside the exact route, ``use_bitpack`` selects the bit-packed
    XNOR/popcount kernel (:mod:`repro.tensor.bitpack`): ``None``
    defers to a per-shape heuristic (packed wins only on small-batch
    × wide-matrix MVMs), ``True`` forces it, ``False`` pins the
    float32 GEMM.  Both produce bit-identical outputs and identical
    ledger totals — the packed kernel computes the same integer MAC
    the float route does, just 64 weights per word of traffic.

    ``program=False`` builds the crossbar grid without programming it
    (no RNG draws, no ``mtj_write`` bookings) so captured conductance
    state can be installed verbatim — the snapshot restore path.
    """

    def __init__(self, binary_weights: np.ndarray,
                 scale: Optional[np.ndarray],
                 bias: Optional[np.ndarray],
                 config: CimConfig, ledger: OpLedger,
                 program: bool = True):
        super().__init__(ledger)
        weights = np.asarray(binary_weights, dtype=np.float64)  # (out, in)
        if program and not np.all(np.isin(weights, (-1.0, 1.0))):
            raise ValueError("CimLinear requires ±1 weights")
        self.out_features, self.in_features = weights.shape
        self.scale = None if scale is None else np.asarray(scale, dtype=np.float64)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.config = config
        self.input_mask: Optional[np.ndarray] = None
        self.scale_multiplier: float | np.ndarray = 1.0

        w = weights.T                                   # rows=in, cols=out
        self.row_chunks = [(i, min(i + config.max_rows, self.in_features))
                           for i in range(0, self.in_features, config.max_rows)]
        self.col_chunks = [(j, min(j + config.max_cols, self.out_features))
                           for j in range(0, self.out_features, config.max_cols)]
        self.crossbars: List[List[XnorCrossbar]] = []
        self.adcs: List[ADC] = []
        for (r0, r1) in self.row_chunks:
            row_bars = []
            for (c0, c1) in self.col_chunks:
                bar = XnorCrossbar(
                    r1 - r0, c1 - c0,
                    mtj_params=config.mtj_params,
                    variability=config.variability,
                    defects=config.defects,
                    wire_resistance=config.wire_resistance,
                    rng=config.rng, ledger=ledger)
                if program:
                    bar.program(w[r0:r1, c0:c1])
                row_bars.append(bar)
            self.crossbars.append(row_bars)
            self.adcs.append(PopcountADC(config.adc_bits, r1 - r0,
                                         ledger=ledger))

        self.exact_route = True      # opt-out switch (tests, benches)
        # Bit-packed XNOR route inside the exact route: None defers to
        # the per-shape heuristic, True forces the packed kernel,
        # False pins the float32 GEMM.  Mirrors ``exact_route`` so the
        # differential tests can flip it per layer.
        self.use_bitpack: Optional[bool] = config.use_bitpack
        self._exact_ok = (
            all(bar.is_ideal for row in self.crossbars for bar in row)
            and all(adc.step % 2 == 1 for adc in self.adcs))

    @property
    def n_crossbars(self) -> int:
        return len(self.row_chunks) * len(self.col_chunks)

    # ------------------------------------------------------------------
    def state_dict(self):
        """(meta, arrays) split of the programmed layer state."""
        meta = {
            "type": "cim_linear",
            "out_features": self.out_features,
            "in_features": self.in_features,
            "exact_route": bool(self.exact_route),
            "use_bitpack": self.use_bitpack,
        }
        arrays = {}
        if self.scale is not None:
            arrays["scale"] = self.scale
        if self.bias is not None:
            arrays["bias"] = self.bias
        for i, row in enumerate(self.crossbars):
            for j, bar in enumerate(row):
                for key, value in bar.state_dict().items():
                    arrays[f"xb{i}_{j}_{key}"] = value
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "CimLinear":
        """Rebuild the layer around captured crossbar state (no
        programming: no RNG consumption, no ``mtj_write``)."""
        weights = np.empty((meta["out_features"], meta["in_features"]))
        self = cls(weights, arrays.get("scale"), arrays.get("bias"),
                   config, ledger, program=False)
        for i, row in enumerate(self.crossbars):
            for j, bar in enumerate(row):
                bar.load_state({
                    "weights": arrays[f"xb{i}_{j}_weights"],
                    "g_direct": arrays[f"xb{i}_{j}_g_direct"],
                    "g_complement": arrays[f"xb{i}_{j}_g_complement"],
                    "w_packed_t": arrays.get(f"xb{i}_{j}_w_packed_t"),
                })
        self.exact_route = bool(meta["exact_route"])
        self.use_bitpack = meta.get("use_bitpack")
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        lead, x = split_leading_axes(x, 1)   # e.g. (T, N, F) sample axis
        bits = np.sign(x)     # binarize; exact zeros stay gated (dropout)
        exact = self.exact_route and self._exact_ok
        out = np.zeros((x.shape[0], self.out_features))
        if exact:
            partial = np.zeros_like(out)
        else:
            (partial,) = _conv_scratch_buffers(
                ("cim_linear_partial",) + out.shape,
                lambda: (np.empty(out.shape),))
        for i, (r0, r1) in enumerate(self.row_chunks):
            # Drive masks are shared by every column tile of the row
            # chunk — prepared once instead of per crossbar.
            chunk = bits[:, r0:r1]
            if self.input_mask is not None:
                gate = (np.asarray(self.input_mask,
                                   dtype=np.float64)[r0:r1] > 0
                        ).astype(np.float64)
                chunk = chunk * gate
            if exact:
                packed = self.use_bitpack
                if packed is None:
                    packed = bitpack.packed_route_beneficial(
                        chunk.shape[0], r1 - r0, self.out_features)
                if packed:
                    planes = bitpack.pack_ternary_rows(chunk)
                    for j, (c0, c1) in enumerate(self.col_chunks):
                        self.crossbars[i][j].mvm_packed(
                            planes, out=partial[:, c0:c1])
                else:
                    chunk32 = chunk.astype(np.float32)
                    total_active = int(np.count_nonzero(chunk32))
                    for j, (c0, c1) in enumerate(self.col_chunks):
                        bar = self.crossbars[i][j]
                        partial[:, c0:c1] = chunk32 @ bar.signed_weights_t().T
                        bar.book_mvm(total_active)
            else:
                pos, neg, n_active = _drive_masks(chunk, axis=1)
                for j, (c0, c1) in enumerate(self.col_chunks):
                    self.crossbars[i][j].mvm_prepared(
                        pos, neg, n_active, out=partial[:, c0:c1])
            out += self.adcs[i].convert(partial, out=partial)
        if self.scale is not None:
            np.multiply(out, self.scale * self.scale_multiplier, out=out)
            self.ledger.add("digital_mac", out.size)
        elif not np.isscalar(self.scale_multiplier) or self.scale_multiplier != 1.0:
            np.multiply(out, self.scale_multiplier, out=out)
            self.ledger.add("digital_mac", out.size)
        if self.bias is not None:
            np.add(out, self.bias, out=out)
            self.ledger.add("digital_op", out.size)
        return merge_leading_axes(lead, out)


class CimConv2d(CimLayer):
    """Binary convolution on crossbars under a Fig.-1 mapping plan.

    Uses im2col so the analog MAC is the same XNOR popcount as
    :class:`CimLinear`; the mapping plan controls row chunking (and
    therefore partial-sum count, ADC conversions, and where the
    spatial-dropout modules sit).  ``groups`` replicates the plan's
    crossbar grid per independent channel group, ``dilation`` only
    changes the im2col geometry feeding the wordlines.

    The im2col gather runs through the shared conv-plan cache and the
    per-thread scratch arenas of :mod:`repro.tensor.functional`, so a
    warm engine (batched MC, serving flushes) performs zero index-plan
    rebuilds and near-zero fresh allocation.  When the analog chain is
    ideal (see :attr:`XnorCrossbar.is_ideal`) and every row chunk's
    :class:`PopcountADC` has an odd integer step, the layer takes an
    *exact-integer float32* route: the decoded MAC of an ideal XNOR
    crossbar is a small integer (|MAC| <= rows << 2^24), float32
    represents it exactly, and with an odd step the ADC's
    ``rint(mac / step)`` can never land on a rounding tie — so the
    route is bit-identical to the analog simulation, whose only
    deviation from the integer is ~1e-13 of float64 decode noise.
    (An even step *can* tie exactly at odd MACs, where that noise
    would decide the rounding — such layers stay on the analog path.)
    Set ``exact_route = False`` to force the analog path; within the
    exact route ``use_bitpack`` (None/True/False, as in
    :class:`CimLinear`) selects the bit-packed XNOR kernel, which
    packs the im2col patch slab column-major and yields the same
    integer partial sums bit for bit.

    ``channel_mask`` (settable per pass, shape (C_in,)) gates all
    wordline groups / sub-crossbars belonging to an input feature map —
    the MC-SpatialDropout hardware mechanism.
    """

    def __init__(self, binary_weights: np.ndarray,
                 scale: Optional[np.ndarray],
                 bias: Optional[np.ndarray],
                 stride: int, padding: int,
                 config: CimConfig, ledger: OpLedger,
                 dilation: int = 1, groups: int = 1,
                 program: bool = True):
        super().__init__(ledger)
        weights = np.asarray(binary_weights, dtype=np.float64)
        if program and not np.all(np.isin(weights, (-1.0, 1.0))):
            raise ValueError("CimConv2d requires ±1 weights")
        self.c_out, c_in_pg, self.kh, self.kw = weights.shape
        if self.kh != self.kw:
            raise ValueError("only square kernels supported")
        if groups < 1 or dilation < 1:
            raise ValueError("groups and dilation must be >= 1")
        if self.c_out % groups:
            raise ValueError(f"out_channels {self.c_out} not divisible "
                             f"by groups {groups}")
        self.c_in = c_in_pg * groups
        self.scale = None if scale is None else np.asarray(scale, dtype=np.float64)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups
        self.config = config
        self.channel_mask: Optional[np.ndarray] = None
        self.scale_multiplier: float | np.ndarray = 1.0

        self.plan: MappingPlan = plan_conv_mapping(
            ConvShape(self.c_in, self.c_out, self.kh, groups=groups),
            config.mapping_strategy,
            max_rows=config.max_rows, max_cols=config.max_cols)

        # One crossbar grid per group; the flat lists interleave
        # group-major so ``crossbars[g * n_row_chunks + i][j]`` is row
        # chunk i, column chunk j of group g (groups == 1 keeps the
        # historical [i][j] layout).
        w_groups = weights.reshape(
            groups, self.c_out // groups, -1)           # (G, Cout/g, K2*Cin/g)
        self.crossbars: List[List[XnorCrossbar]] = []
        self.adcs: List[ADC] = []
        for g in range(groups):
            w = w_groups[g].T                           # (K2*Cin/g, Cout/g)
            for (r0, r1) in self.plan.row_chunks:
                row_bars = []
                for (c0, c1) in self.plan.col_chunks:
                    bar = XnorCrossbar(
                        r1 - r0, c1 - c0,
                        mtj_params=config.mtj_params,
                        variability=config.variability,
                        defects=config.defects,
                        wire_resistance=config.wire_resistance,
                        rng=config.rng, ledger=ledger)
                    if program:
                        bar.program(w[r0:r1, c0:c1])
                    row_bars.append(bar)
                self.crossbars.append(row_bars)
                self.adcs.append(PopcountADC(config.adc_bits, r1 - r0,
                                             ledger=ledger))

        self.exact_route = True      # opt-out switch (tests, benches)
        # Same tri-state as CimLinear.use_bitpack (None/True/False).
        self.use_bitpack: Optional[bool] = config.use_bitpack
        self._exact_ok = (
            all(bar.is_ideal for row in self.crossbars for bar in row)
            and all(adc.step % 2 == 1 for adc in self.adcs))

    # ------------------------------------------------------------------
    def state_dict(self):
        """(meta, arrays) split of the programmed layer state."""
        meta = {
            "type": "cim_conv2d",
            "c_out": self.c_out,
            "c_in": self.c_in,
            "kh": self.kh,
            "stride": self.stride,
            "padding": self.padding,
            "dilation": self.dilation,
            "groups": self.groups,
            "exact_route": bool(self.exact_route),
            "use_bitpack": self.use_bitpack,
        }
        arrays = {}
        if self.scale is not None:
            arrays["scale"] = self.scale
        if self.bias is not None:
            arrays["bias"] = self.bias
        for f, row in enumerate(self.crossbars):
            for j, bar in enumerate(row):
                for key, value in bar.state_dict().items():
                    arrays[f"xb{f}_{j}_{key}"] = value
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "CimConv2d":
        """Rebuild the layer around captured crossbar state."""
        groups = meta["groups"]
        weights = np.empty((meta["c_out"], meta["c_in"] // groups,
                            meta["kh"], meta["kh"]))
        self = cls(weights, arrays.get("scale"), arrays.get("bias"),
                   meta["stride"], meta["padding"], config, ledger,
                   dilation=meta["dilation"], groups=groups,
                   program=False)
        for f, row in enumerate(self.crossbars):
            for j, bar in enumerate(row):
                bar.load_state({
                    "weights": arrays[f"xb{f}_{j}_weights"],
                    "g_direct": arrays[f"xb{f}_{j}_g_direct"],
                    "g_complement": arrays[f"xb{f}_{j}_g_complement"],
                    "w_packed_t": arrays.get(f"xb{f}_{j}_w_packed_t"),
                })
        self.exact_route = bool(meta["exact_route"])
        self.use_bitpack = meta.get("use_bitpack")
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        lead, x = split_leading_axes(x, 3)   # (T, N, C, H, W) sample axis
        n = x.shape[0]
        kh = self.kh
        k2 = kh * kh
        exact = self.exact_route and self._exact_ok
        dtype = np.dtype(np.float32 if exact else np.float64)

        # Binarize in float64 (a denormal that underflows to 0.0 in
        # float32 must still drive its wordline) before the arena
        # gather casts to the route dtype; zeros (dropped maps) stay
        # gated.
        gather_buf, out_h, out_w = _gather_padded_patches(
            np.sign(x), kh, kh, self.stride, self.padding, self.dilation,
            dtype, tag="cim_conv")
        length = out_h * out_w
        ln = length * n
        if self.channel_mask is not None:
            # A dropped input feature map's wordline group never fires:
            # zero its whole patch slab once, instead of re-deriving a
            # per-chunk row mask (im2col rows are channel-major).
            keep = np.asarray(self.channel_mask, dtype=np.float64) > 0
            if not keep.all():
                gather_buf[~keep] = 0.0
        patches = gather_buf.reshape(self.c_in * k2, ln)

        if exact:
            acc = np.zeros((self.c_out, ln))
        else:
            (acc,) = _conv_scratch_buffers(
                ("cim_conv_acc", self.c_out, ln),
                lambda: (np.empty((self.c_out, ln)),))
            acc.fill(0.0)
        n_rc = len(self.plan.row_chunks)
        cog = self.c_out // self.groups
        rows_pg = (self.c_in // self.groups) * k2
        (partial,) = _conv_scratch_buffers(
            ("cim_conv_partial", cog, ln, dtype.str),
            lambda: (np.empty((cog, ln), dtype=dtype),))
        for g in range(self.groups):
            out_g = acc[g * cog:(g + 1) * cog]
            for i, (r0, r1) in enumerate(self.plan.row_chunks):
                chunk = patches[g * rows_pg + r0:g * rows_pg + r1]
                bars = self.crossbars[g * n_rc + i]
                if exact:
                    packed = self.use_bitpack
                    if packed is None:
                        packed = bitpack.packed_route_beneficial(
                            ln, r1 - r0, cog)
                    if packed:
                        planes = bitpack.pack_ternary_cols(chunk)
                        for j, (c0, c1) in enumerate(self.plan.col_chunks):
                            bars[j].mvm_packed(planes, out=partial[c0:c1],
                                               col_major=True)
                    else:
                        total_active = int(np.count_nonzero(chunk))
                        for j, (c0, c1) in enumerate(self.plan.col_chunks):
                            np.matmul(bars[j].signed_weights_t(), chunk,
                                      out=partial[c0:c1])
                            bars[j].book_mvm(total_active)
                else:
                    pos_t, neg_t, n_active = _drive_masks(chunk, axis=0)
                    for j, (c0, c1) in enumerate(self.plan.col_chunks):
                        bars[j].mvm_cols(pos_t, neg_t, n_active[0],
                                         out=partial[c0:c1])
                # The exact route's float32 partial cannot hold the
                # float64 codes, so only the analog one converts in place.
                out_g += self.adcs[g * n_rc + i].convert(
                    partial, out=None if exact else partial)

        acc = acc.reshape(self.c_out, length, n)
        if self.scale is not None:
            np.multiply(acc, (self.scale * np.asarray(self.scale_multiplier)
                              ).reshape(-1, 1, 1), out=acc)
            self.ledger.add("digital_mac", acc.size)
        if self.bias is not None:
            np.add(acc, self.bias.reshape(-1, 1, 1), out=acc)
            self.ledger.add("digital_op", acc.size)
        # The transpose copy is the stage's fresh output; ``acc`` may
        # be an arena buffer and must not escape.
        out = np.ascontiguousarray(acc.transpose(2, 0, 1)).reshape(
            n, self.c_out, out_h, out_w)
        return merge_leading_axes(lead, out)


class FrozenNorm(CimLayer):
    """Batch/inverted normalization frozen to running statistics.

    Deployment form of both BatchNorm and InvertedNorm: a per-feature
    affine ``(x · g + b − mu) / sigma`` (inverted order) or
    ``(x − mu) / sigma · g + b`` (standard order), computed digitally.
    Affine-dropout masks are applied by the Bayesian wrapper through
    ``gamma_multiplier`` / ``beta_multiplier`` — scalars for one MC
    pass, or 1-D arrays of per-row values (one entry per sample of a
    flattened ``(T·N, …)`` batch) in the batched MC engine.
    """

    def __init__(self, mean: np.ndarray, var: np.ndarray,
                 gamma: Optional[np.ndarray], beta: Optional[np.ndarray],
                 eps: float, spatial: bool, inverted: bool,
                 ledger: OpLedger):
        super().__init__(ledger)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.sqrt(np.asarray(var, dtype=np.float64) + eps)
        self.gamma = None if gamma is None else np.asarray(gamma, np.float64)
        self.beta = None if beta is None else np.asarray(beta, np.float64)
        self.spatial = spatial
        self.inverted = inverted
        self.gamma_multiplier: float | np.ndarray = 1.0
        self.beta_multiplier: float | np.ndarray = 1.0

    def state_dict(self):
        meta = {"type": "frozen_norm", "spatial": self.spatial,
                "inverted": self.inverted}
        arrays = {"mean": self.mean, "std": self.std}
        if self.gamma is not None:
            arrays["gamma"] = self.gamma
        if self.beta is not None:
            arrays["beta"] = self.beta
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "FrozenNorm":
        self = cls(arrays["mean"], np.zeros_like(arrays["mean"]),
                   arrays.get("gamma"), arrays.get("beta"), 0.0,
                   meta["spatial"], meta["inverted"], ledger)
        # Install the captured std verbatim — sqrt(var + eps) need not
        # round-trip bit-exactly through var = std².
        self.std = np.asarray(arrays["std"], dtype=np.float64)
        return self

    def _shape(self, x: np.ndarray) -> tuple:
        return (1, -1, 1, 1) if x.ndim == 4 else (1, -1)

    @staticmethod
    def _per_row(multiplier, x: np.ndarray):
        """Align a per-row multiplier bank against the batch axis."""
        if np.ndim(multiplier) == 0:
            return multiplier
        return np.asarray(multiplier, dtype=np.float64).reshape(
            (-1,) + (1,) * (x.ndim - 1))

    def forward(self, x: np.ndarray) -> np.ndarray:
        shape = self._shape(x)
        mean = self.mean.reshape(shape)
        std = self.std.reshape(shape)
        gamma = None if self.gamma is None else self.gamma.reshape(shape)
        beta = None if self.beta is None else self.beta.reshape(shape)
        if gamma is not None:
            # Affine-dropout semantics: dropped gamma -> identity (1),
            # dropped beta -> zero.
            gm = self._per_row(self.gamma_multiplier, x)
            gamma = gamma * gm + (1.0 - gm)
        if beta is not None:
            beta = beta * self._per_row(self.beta_multiplier, x)
        # Each step is one ufunc; the first allocates the stage output
        # and the rest run in place on it.
        if self.inverted:
            steps = [(np.multiply, gamma), (np.add, beta),
                     (np.subtract, mean), (np.divide, std)]
        else:
            steps = [(np.subtract, mean), (np.divide, std),
                     (np.multiply, gamma), (np.add, beta)]
        out = None
        for ufunc, operand in steps:
            if operand is not None:
                out = ufunc(x if out is None else out, operand, out=out)
        self.ledger.add("digital_mac", x.size)
        return out


class DropoutGate(CimLayer):
    """Dropout mask stage between CIM layers.

    A dropped neuron/feature-map outputs zero, which the next
    crossbar's wordline decoder interprets as "do not assert this row"
    (see :meth:`XnorCrossbar.matvec`), so masking here *is* the
    hardware gating of Fig. 1.  Pure zeroing — no inverted-dropout
    rescale — matching the training-side semantics.

    ``mask`` is set per pass by the Bayesian wrapper: shape (F,) for
    neuron masks, (C,) for channel masks (broadcast over H, W);
    ``None`` = deterministic pass-through.  The batched MC engine
    instead installs a 2-D mask *bank* — one row per sample of the
    flattened ``(T·N, …)`` batch — so all T per-pass masks apply in a
    single stacked multiply.
    """

    def __init__(self, p: float, channelwise: bool, ledger: OpLedger):
        super().__init__(ledger)
        self.p = p
        self.channelwise = channelwise
        self.mask: Optional[np.ndarray] = None

    def state_dict(self):
        return ({"type": "dropout_gate", "p": self.p,
                 "channelwise": self.channelwise}, {})

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DropoutGate":
        return cls(meta["p"], meta["channelwise"], ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return x
        keep = (np.asarray(self.mask, dtype=np.float64) > 0).astype(np.float64)
        if self.channelwise and x.ndim != 4:
            raise ValueError("channelwise DropoutGate expects NCHW")
        if keep.ndim == 1:
            # One gating op per (sample, masked unit), as in hardware.
            self.ledger.add("digital_op", x.shape[0] * keep.size)
            if self.channelwise:
                return x * keep.reshape(1, -1, 1, 1)
            return x * keep
        if keep.shape[0] != x.shape[0]:
            raise ValueError(
                f"mask bank rows {keep.shape[0]} != batch {x.shape[0]}")
        self.ledger.add("digital_op", keep.size)
        if self.channelwise:
            return x * keep[:, :, None, None]
        return x * keep


class DigitalScale(CimLayer):
    """Scale-vector multiply from SRAM (the Fig. 2 scale path).

    Deployment form of ScaleDropout / BayesianScale: the scale vector
    is fetched from the 32-bit scale SRAM and multiplied into the
    accumulated MAC digitally.  ``multiplier`` is the per-pass
    stochastic modulation (scalar for Scale-Dropout, vector for a
    Bayesian-scale posterior sample) set by the Bayesian wrapper; the
    batched MC engine installs a 2-D bank instead — ``(rows, 1)`` for
    Scale-Dropout, ``(rows, F)`` for posterior samples, one row per
    sample of the flattened ``(T·N, …)`` batch.

    ``passes_per_call`` declares how many MC passes one forward call
    represents, so the SRAM re-read each hardware pass performs stays
    booked identically whether the passes run sequentially or stacked.
    """

    def __init__(self, scale: np.ndarray, spatial: bool, ledger: OpLedger):
        super().__init__(ledger)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.spatial = spatial
        self.multiplier: float | np.ndarray = 1.0
        self.passes_per_call: int = 1

    def state_dict(self):
        return ({"type": "digital_scale", "spatial": self.spatial},
                {"scale": self.scale})

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalScale":
        return cls(arrays["scale"], meta["spatial"], ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        effective = self.scale * self.multiplier
        self.ledger.add("sram_read", self.scale.size * self.passes_per_call)
        self.ledger.add("digital_mac", x.size)
        if effective.ndim > 1:        # per-row multiplier bank
            if effective.shape[0] != x.shape[0]:
                raise ValueError(
                    f"multiplier bank rows {effective.shape[0]} != "
                    f"batch {x.shape[0]}")
            if self.spatial:
                return x * effective[:, :, None, None]
            return x * effective
        if self.spatial:
            return x * effective.reshape(1, -1, 1, 1)
        return x * effective


class DigitalSign(CimLayer):
    """Sign activation taken by sense amplifiers (1-bit readout)."""

    def state_dict(self):
        return {"type": "digital_sign"}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalSign":
        return cls(ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.ledger.add("sa_read", x.size)
        return np.where(x >= 0, 1.0, -1.0)


class DigitalReLU(CimLayer):
    def state_dict(self):
        return {"type": "digital_relu"}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalReLU":
        return cls(ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.ledger.add("digital_op", x.size)
        return np.maximum(x, 0.0)


class DigitalMaxPool(CimLayer):
    def __init__(self, kernel: int, ledger: OpLedger):
        super().__init__(ledger)
        self.kernel = kernel

    def state_dict(self):
        return {"type": "digital_maxpool", "kernel": self.kernel}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalMaxPool":
        return cls(meta["kernel"], ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError("DigitalMaxPool expects (N, C, H, W)")
        k = self.kernel
        h2, w2 = x.shape[2] // k, x.shape[3] // k
        self.ledger.add("digital_op", x.size)
        # Pairwise maximum over the k² strided window slices: an order
        # of magnitude faster than a multi-axis reduce over the 6-D
        # window view on pass-stacked batches, and exact either way
        # (max is order-independent).
        out: Optional[np.ndarray] = None
        for u in range(k):
            for v in range(k):
                s = x[:, :, u:h2 * k:k, v:w2 * k:k]
                out = s.copy() if out is None else np.maximum(out, s, out=out)
        return out


class DigitalFlatten(CimLayer):
    def state_dict(self):
        return {"type": "digital_flatten"}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalFlatten":
        return cls(ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class CimNetwork:
    """A deployed network: an ordered list of CIM stages + one ledger.

    The Bayesian wrappers drive stochastic behaviour by setting stage
    attributes (``input_mask``, ``channel_mask``, ``scale_multiplier``,
    ``gamma_multiplier``) between forward passes.
    """

    def __init__(self, stages: Sequence[CimLayer], ledger: OpLedger,
                 config: CimConfig):
        self.stages = list(stages)
        self.ledger = ledger
        self.config = config

    def forward(self, x: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            x = stage(x)
        return x

    __call__ = forward

    def mvm_layers(self) -> List[CimLayer]:
        """The analog (crossbar-backed) stages, in order."""
        return [s for s in self.stages
                if isinstance(s, (CimLinear, CimConv2d))]

    @property
    def n_crossbars(self) -> int:
        total = 0
        for stage in self.stages:
            if isinstance(stage, CimLinear):
                total += stage.n_crossbars
            elif isinstance(stage, CimConv2d):
                total += stage.plan.n_crossbars
        return total
