"""GRU label model: stacked features in, per-frame label posteriors out.

The recurrent cell is the standard gated recurrent unit,

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    c = tanh(Wh x + Uh (r * h) + bh)
    h' = (1 - z) * c + z * h

followed by an affine projection of the top hidden state to K logits and a
per-frame softmax. The model is strictly causal: output row t depends only
on input frames up to t.

One private kernel, ``_run_from(weights, frames, state) -> (rows,
state)``, computes it: frame by frame for one layer and as a layer
wavefront for two or more, both from a carried hidden state. :func:`run`
is the kernel on one recording from :func:`init_state`, and
:func:`gru_step` the kernel on one frame. The streaming detector calls the
kernel on blocks of a few stacked frames. Every frame meets the same
operations however the frames are split, so streaming output equals batch
output bit for bit.

Every product of a weight matrix with a frame or a hidden state stays its
own matrix-vector product. A :class:`GruLayer` is the five arrays the
kernel reads, with the gates stacked on a leading axis, so one
``np.matmul`` forms a frame's three input products or its two recurrent
ones, each gate still by itself. The kernel forms layer 0's input
products for all its frames at once the same way, and its wavefront
stacks the layers on one more axis. Two layouts that look
equivalent round differently in the last bits and are not used:
``X @ W.T``, a matrix-matrix product, and gates stacked by rows into one
``(2H, H)`` matrix, whose product BLAS blocks differently whenever H is
not a multiple of its row block.

Weight file (a :mod:`wakespot.container`, magic ``WSGW``, version 1):

    fields: u32 num_layers, u32 hidden, u32 input_dim, u32 K
    parts : per layer w, u_zr, u_h, b_zr, b_h, then W_out (K x hidden),
            b_out (K), then the alphabet (K - 1 labels)

Each stack is written gate after gate, so a layer's parts hold Wz Wr Wh
Uz Ur Uh bz br bh in that order. The per-layer order is the layer table ``_LAYER_FIELDS``
(the fields of :class:`GruLayer`), and ``_layer_shapes`` gives the shapes.

Posteriorgram file (magic ``WSPG``, version 1):

    fields: u32 T, u32 K
    parts : the alphabet (K - 1 labels), then the T x K probabilities

No trained weights ship with the repo; tests and demos use zero weights,
seeded random weights, or the constructed model from :mod:`wakespot.synth`.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import container
from .audio import STACKED_DIM, FeatureSequence
from .errors import DimensionError, FileFormatError, NonFiniteError

logger = logging.getLogger(__name__)

BLANK_SYMBOL = "<b>"
BLANK_INDEX = 0

_WEIGHTS_MAGIC = b"WSGW"
_POST_MAGIC = b"WSPG"
_FORMAT_VERSION = 1

ROW_SUM_ATOL = 1e-4


@dataclass(frozen=True)
class LabelAlphabet:
    """Ordered label symbols; index 0 is reserved for the CTC blank."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not all(isinstance(s, str) and s.split() == [s] for s in self.labels):
            # model files and manifests store labels whitespace-separated
            raise ValueError("labels must be non-empty strings without whitespace")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if BLANK_SYMBOL in self.labels:
            raise ValueError(f"label set may not contain the reserved blank {BLANK_SYMBOL!r}")

    @property
    def size(self) -> int:
        """K = 1 + number of labels."""
        return 1 + len(self.labels)

    @property
    def blank_index(self) -> int:
        return BLANK_INDEX

    def index_of(self, symbol: str) -> int:
        if symbol == BLANK_SYMBOL:
            return BLANK_INDEX
        try:
            return 1 + self.labels.index(symbol)
        except ValueError:
            raise KeyError(f"unknown label {symbol!r}") from None

    def symbol_of(self, index: int) -> str:
        if index == BLANK_INDEX:
            return BLANK_SYMBOL
        if not 1 <= index < self.size:
            raise IndexError(f"label index {index} out of range for K={self.size}")
        return self.labels[index - 1]

    def content_hash(self) -> str:
        return hashlib.sha256("\x1f".join(self.labels).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GruLayer:
    """One layer's weights, its gates stacked on a leading axis in the order
    z, r, h: the input weights ``w`` ``(3, H, in)``, the z and r recurrent
    weights ``u_zr`` ``(2, H, H)`` and biases ``b_zr`` ``(2, H)``, and the
    candidate's recurrent weights ``u_h`` ``(H, H)`` and bias ``b_h`` ``(H,)``.
    :class:`GruWeights` checks the shapes."""

    w: np.ndarray
    u_zr: np.ndarray
    u_h: np.ndarray
    b_zr: np.ndarray
    b_h: np.ndarray


_LAYER_FIELDS = tuple(f.name for f in fields(GruLayer))


def _layer_shapes(num_layers: int, hidden: int, input_dim: int):
    """Each layer's array shapes in ``_LAYER_FIELDS`` order; layer 0 reads
    ``input_dim`` features and every later layer the one below it."""
    for i in range(num_layers):
        in_dim = input_dim if i == 0 else hidden
        yield [(3, hidden, in_dim), (2, hidden, hidden), (hidden, hidden), (2, hidden), (hidden,)]


@dataclass(frozen=True)
class GruWeights:
    """Checked when built: every shape agrees and every value is finite."""

    layers: tuple[GruLayer, ...]
    w_out: np.ndarray
    b_out: np.ndarray
    alphabet: LabelAlphabet

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("weights must have at least one layer")
        hidden = self.hidden_size
        if hidden < 1:
            raise DimensionError("hidden size must be positive")
        shapes = _layer_shapes(self.num_layers, hidden, self.input_dim)
        for i, (layer, layer_shapes) in enumerate(zip(self.layers, shapes)):
            arrays = [getattr(layer, name) for name in _LAYER_FIELDS]
            for name, array, shape in zip(_LAYER_FIELDS, arrays, layer_shapes):
                if array.shape != shape:
                    raise DimensionError(
                        f"layer {i}: {name} has shape {array.shape}, expected {shape}"
                    )
            for name, array in zip(_LAYER_FIELDS, arrays):
                if not np.all(np.isfinite(array)):
                    raise NonFiniteError(f"layer {i}: {name} contains non-finite values")
        if self.w_out.shape != (self.num_symbols, hidden):
            raise DimensionError(f"output projection must be (K, {hidden})")
        if self.b_out.shape != (self.num_symbols,):
            raise DimensionError("output bias must be a length-K vector")
        if not (np.all(np.isfinite(self.w_out)) and np.all(np.isfinite(self.b_out))):
            raise NonFiniteError("output projection contains non-finite values")
        if self.num_symbols != self.alphabet.size:
            raise DimensionError(
                f"output dim {self.num_symbols} does not match alphabet size {self.alphabet.size}"
            )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_size(self) -> int:
        return self.layers[0].u_h.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[-1]

    @property
    def num_symbols(self) -> int:
        return self.w_out.shape[0]

    @cached_property
    def _layer_stack(self) -> GruLayer:
        """Every layer's arrays stacked for the wavefront of :func:`run`, in
        the layout :func:`_cell` reads for several layers: the layer axis
        after the gate axis of ``w``, ``u_zr`` and ``b_zr``, first in
        ``u_h`` and ``b_h``, and each bias a column. Its ``w`` holds the
        input weights of layers 1 and up only, as layer 0 reads features of
        another width. Built on first use, so one-layer weights, which
        never use it, hold no copy."""

        def stack(name, axis, layers=self.layers):
            return np.stack([getattr(layer, name) for layer in layers], axis=axis)

        return GruLayer(
            stack("w", 1, self.layers[1:]),
            stack("u_zr", 1),
            stack("u_h", 0),
            stack("b_zr", 1)[..., None],
            stack("b_h", 0)[..., None],
        )

    @property
    def num_parameters(self) -> int:
        arrays = [getattr(layer, name) for layer in self.layers for name in _LAYER_FIELDS]
        return sum(a.size for a in arrays) + self.w_out.size + self.b_out.size


@dataclass(frozen=True)
class Posteriorgram:
    """T x K per-frame probabilities over blank + labels."""

    rows: np.ndarray
    alphabet: LabelAlphabet

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim == 1:  # a flat list of entries, such as an empty one
            rows = rows.reshape(-1, self.alphabet.size)
        if rows.ndim != 2:
            raise ValueError(f"posteriorgram rows must be 2-D, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)
        if rows.shape[1] != self.alphabet.size:
            raise ValueError(
                f"posteriorgram width {rows.shape[1]} does not match alphabet K={self.alphabet.size}"
            )

    @property
    def num_frames(self) -> int:
        return self.rows.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.rows.shape[1]

    def validate(self) -> None:
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("posteriorgram contains non-finite values")
        if self.rows.size and (self.rows.min() < 0.0 or self.rows.max() > 1.0):
            raise ValueError("posteriorgram entries must lie in [0, 1]")
        if self.num_frames:
            sums = self.rows.sum(axis=1)
            worst = float(np.abs(sums - 1.0).max())
            if worst > ROW_SUM_ATOL:
                raise ValueError(f"posteriorgram rows must sum to 1 (worst error {worst:.3g})")


def _build_weights(alphabet: LabelAlphabet, num_layers: int, hidden_size: int, matrix) -> GruWeights:
    """Weights whose matrices ``matrix(shape)`` makes, in weight-file order,
    ending with the output projection; every bias is zero."""
    layers = []
    for w, u_zr, u_h, b_zr, b_h in _layer_shapes(num_layers, hidden_size, STACKED_DIM):
        layers.append(GruLayer(matrix(w), matrix(u_zr), matrix(u_h), np.zeros(b_zr), np.zeros(b_h)))
    return GruWeights(
        tuple(layers), matrix((alphabet.size, hidden_size)), np.zeros(alphabet.size), alphabet
    )


def zero_weights(alphabet: LabelAlphabet, num_layers: int = 3, hidden_size: int = 96) -> GruWeights:
    """All-zero weights; every output row is uniform 1/K."""
    return _build_weights(alphabet, num_layers, hidden_size, np.zeros)


def random_weights(
    alphabet: LabelAlphabet,
    num_layers: int = 3,
    hidden_size: int = 96,
    seed: int = 0,
) -> GruWeights:
    """Seeded random weights, scaled by fan-in; a stand-in for trained models."""
    rng = np.random.default_rng(seed)

    def matrix(shape):  # one draw per stack reads the stream as its gates in turn
        return rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape)

    return _build_weights(alphabet, num_layers, hidden_size, matrix)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp never overflows.
    # The numerator e^min(x, 0) is 1.0 or e^-|x| exactly, as a select would be.
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one row, or each row of a matrix."""
    ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def _cell(layer: GruLayer, x_zrh: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The recurrent half of a layer for one frame: the new hidden state.

    ``x_zrh`` is the frame's input products ``[Wz x, Wr x, Wh x]``, one row
    per gate; the z and r gates are computed as one ``(2, H)`` array.

    The arrays may also hold L layers at once, in the layout of
    ``GruWeights._layer_stack``: a layer axis after the gate axis and each
    vector a column, so ``x_zrh`` is ``(3, L, H, 1)``, ``h`` is
    ``(L, H, 1)`` and ``u_zr`` is ``(2, L, H, H)``. The same operations then
    advance every layer, each layer's and gate's product still its own
    matrix-vector product, and the one-layer form pays nothing for this.
    The GRU kernel's frame loop for one-layer weights calls it on one
    layer; its wavefront for two or more layers calls it on the layers
    active at its step.
    """
    zr = _sigmoid(x_zrh[:2] + np.matmul(layer.u_zr, h) + layer.b_zr)
    z, r = zr[0], zr[1]
    c = np.tanh(x_zrh[2] + layer.u_h @ (r * h) + layer.b_h)
    return (1.0 - z) * c + z * h


GruState = tuple[np.ndarray, ...]


def init_state(weights: GruWeights) -> GruState:
    return tuple(np.zeros(weights.hidden_size) for _ in weights.layers)


def _stacked_matvec(matrices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``m @ row`` for each ``(T, in)`` row and each matrix ``m`` of a
    ``(G, H, in)`` stack, each its own matrix-vector product: ``(T, G, H)``."""
    return np.matmul(matrices, rows[:, None, :, None])[..., 0]


def _wavefront(
    weights: GruWeights, x0_zrh: np.ndarray, top: np.ndarray, state: GruState
) -> GruState:
    """Step two or more layers from ``state`` as a layer wavefront; fills
    ``top``, the top layer's hidden state at each frame, and returns the
    state after the last frame.

    ``x0_zrh`` holds layer 0's input products of every frame. At step s
    each active layer l advances frame s - l: layer l reads the state that
    layer l - 1 reached at step s - 1, so every active layer's input
    products are one ``np.matmul`` on the stacked input weights, and one
    :func:`_cell` call on the layer stacks advances them all. A layer that
    is not active yet holds its state from ``state``.
    """
    stack = weights._layer_stack
    num_layers, num_frames = weights.num_layers, len(top)
    h = np.stack(state)[..., None]  # (L, H, 1), a copy: ``state`` stays as it was
    x_zrh = np.empty((3, num_layers, weights.hidden_size, 1))
    views = {}  # (lo, hi) -> views of the stacks and the state
    for s in range(num_frames + num_layers - 1):
        # layers lo..hi-1 are active: layer l has a frame s - l to advance
        lo, hi = max(0, s + 1 - num_frames), min(num_layers, s + 1)
        view = views.get((lo, hi))
        if view is None:
            up = max(lo, 1)  # the first active layer that reads the layer below
            layers = GruLayer(
                stack.w[:, up - 1 : hi - 1],
                stack.u_zr[:, lo:hi],
                stack.u_h[lo:hi],
                stack.b_zr[:, lo:hi],
                stack.b_h[lo:hi],
            )
            below, x_up = h[up - 1 : hi - 1], x_zrh[:, up:hi]
            view = views[lo, hi] = (layers, below, x_up, x_zrh[:, lo:hi], h[lo:hi])
        layers, below, x_up, x_active, h_active = view
        if lo == 0:
            x_zrh[:, 0, :, 0] = x0_zrh[s]
        np.matmul(layers.w, below, out=x_up)
        h_active[...] = _cell(layers, x_active, h_active)
        if hi == num_layers:
            top[s + 1 - num_layers] = h[-1, :, 0]
    return tuple(h[:, :, 0])


def _run_from(
    weights: GruWeights, frames: np.ndarray, state: GruState
) -> tuple[np.ndarray, GruState]:
    """The GRU kernel: the posterior rows of the ``(T, input_dim)`` array
    ``frames`` fed from hidden state ``state``, and the state after the
    last frame. ``state`` is left as it was, and the frames are trusted.

    Layer 0's input products for every frame are formed at once. Then the
    schedule depends on the depth L:

    - one layer steps the recurrent half frame by frame;
    - two or more layers run as a layer wavefront (:func:`_wavefront`):
      T + L - 1 steps, each advancing every active layer in one set of
      array operations, instead of L passes of T steps.

    A step costs mostly fixed numpy overhead, which the wavefront pays once
    for all layers: on 3x96 weights ``run`` took 0.50 s instead of 0.64 s of
    a traced ``enroll_score`` pass (medians of 3, 2 vCPUs). With one layer
    there is nothing to batch, and the wavefront's stacking and slicing
    made it 0.84-0.88x as fast as the frame loop on the oracle weights, so
    one layer keeps the loop.

    Every frame meets the same operations whatever T is, so chaining the
    kernel over consecutive blocks of frames, each from the state the last
    one returned, gives the bits of one call on all of them.
    """
    first = weights.layers[0]
    x0_zrh = _stacked_matvec(first.w, frames)
    top = np.empty((len(frames), weights.hidden_size))
    if weights.num_layers == 1:
        (h,) = state
        for t in range(len(frames)):
            h = top[t] = _cell(first, x0_zrh[t], h)
        state = (h,)
    else:
        state = _wavefront(weights, x0_zrh, top, state)
    logits = _stacked_matvec(weights.w_out[None], top)[:, 0] + weights.b_out
    return _softmax(logits), state


def gru_step(weights: GruWeights, state: GruState, frame: np.ndarray) -> tuple[np.ndarray, GruState]:
    """One frame through all layers, the GRU kernel on one frame; returns
    (posterior row, new state)."""
    x = np.asarray(frame, dtype=np.float64)
    if x.shape != (weights.input_dim,):
        raise ValueError(f"frame dim {x.shape} does not match input dim {weights.input_dim}")
    rows, state = _run_from(weights, x[None], state)
    return rows[0], state


def run(weights: GruWeights, features: FeatureSequence) -> Posteriorgram:
    """Batch inference over one recording: the GRU kernel from
    :func:`init_state`, so it is bit-equal to looping :func:`gru_step`."""
    if features.dim != weights.input_dim:
        raise ValueError(
            f"feature dim {features.dim} does not match model input dim {weights.input_dim}"
        )
    rows, _ = _run_from(weights, features.frames, init_state(weights))
    return Posteriorgram(rows, weights.alphabet)


def _read_alphabet(reader: container.Reader) -> LabelAlphabet:
    try:
        return LabelAlphabet(reader.labels())
    except ValueError as exc:
        raise FileFormatError(f"{reader.path}: bad alphabet ({exc})") from exc


def save_weights(path, weights: GruWeights) -> None:
    container.write(
        path,
        _WEIGHTS_MAGIC,
        _FORMAT_VERSION,
        (weights.num_layers, weights.hidden_size, weights.input_dim, weights.num_symbols),
        [getattr(layer, name) for layer in weights.layers for name in _LAYER_FIELDS]
        + [weights.w_out, weights.b_out, weights.alphabet.labels],
    )


def load_weights(path) -> GruWeights:
    """Load and validate a weight file; logs the parameter count."""
    reader = container.Reader(path, _WEIGHTS_MAGIC, _FORMAT_VERSION, 4, "weight")
    num_layers, hidden, input_dim, num_symbols = reader.fields
    if hidden < 1:  # each layer then takes at least 24 bytes, so num_layers is bounded
        raise DimensionError(f"{path}: hidden size must be positive")
    layers = [
        GruLayer(*(reader.matrix(shape) for shape in shapes))
        for shapes in _layer_shapes(num_layers, hidden, input_dim)
    ]
    w_out = reader.matrix((num_symbols, hidden))
    b_out = reader.matrix((num_symbols,))
    alphabet = _read_alphabet(reader)
    reader.end()
    weights = GruWeights(tuple(layers), w_out, b_out, alphabet)
    logger.info(
        "loaded GRU weights from %s: %d layers x %d hidden, input %d, K=%d, %d parameters",
        path,
        weights.num_layers,
        weights.hidden_size,
        weights.input_dim,
        weights.num_symbols,
        weights.num_parameters,
    )
    return weights


def save_posteriorgram(path, post: Posteriorgram) -> None:
    post.validate()
    container.write(
        path,
        _POST_MAGIC,
        _FORMAT_VERSION,
        (post.num_frames, post.num_symbols),
        [post.alphabet.labels, post.rows],
    )


def load_posteriorgram(path) -> Posteriorgram:
    reader = container.Reader(path, _POST_MAGIC, _FORMAT_VERSION, 2, "posteriorgram")
    count, num_symbols = reader.fields
    alphabet = _read_alphabet(reader)
    if alphabet.size != num_symbols:
        raise DimensionError(
            f"{path}: header K={num_symbols} does not match alphabet size {alphabet.size}"
        )
    rows = reader.matrix((count, num_symbols))
    reader.end()
    post = Posteriorgram(rows, alphabet)
    try:
        post.validate()
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return post
