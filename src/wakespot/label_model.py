"""GRU label model: stacked features in, per-frame label posteriors out.

The recurrent cell is the standard gated recurrent unit,

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    c = tanh(Wh x + Uh (r * h) + bh)
    h' = (1 - z) * c + z * h

followed by an affine projection of the top hidden state to K logits and a
per-frame softmax. The model is strictly causal: output row t depends only
on input frames up to t.

Two entry points compute it: :func:`gru_step` advances one frame (the
streaming detector's step) and :func:`run` computes one recording layer by
layer. The streaming step is the batch kernel applied to one frame: both
call the same recurrent cell and softmax, so streaming output equals batch
output bit for bit.

Every product of a weight matrix with a frame or a hidden state stays its
own matrix-vector product. A layer holds its gates stacked on a leading
axis (input weights ``(3, H, in)``, z and r recurrent weights ``(2, H, H)``
and biases ``(2, H)``), so one ``np.matmul`` forms a frame's three input
products or its two recurrent ones, each gate still by itself. :func:`run`
forms a layer's input products for all frames at once the same way. Two
layouts that look equivalent round differently in the last bits and are
not used: ``X @ W.T``, a matrix-matrix product, and gates stacked by rows
into one ``(2H, H)`` matrix, whose product BLAS blocks differently
whenever H is not a multiple of its row block.

Weight file (a :mod:`wakespot.container`, magic ``WSGW``, version 1):

    fields: u32 num_layers, u32 hidden, u32 input_dim, u32 K
    parts : per layer Wz Wr Wh Uz Ur Uh bz br bh, then W_out (K x hidden),
            b_out (K), then the alphabet (K - 1 labels)

The per-layer order is the layer table ``_LAYER_FIELDS`` (the fields of
:class:`GruLayer`), and ``_layer_shapes`` gives each array's shape.

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
    """One layer's gates. The layer stores its gates stacked once, on a
    leading axis: ``w_z``, ``w_r`` and ``w_h`` are views of one ``(3, H, in)``
    array, ``u_z`` and ``u_r`` of one ``(2, H, H)`` array and ``b_z`` and
    ``b_r`` of one ``(2, H)`` array."""

    w_z: np.ndarray
    w_r: np.ndarray
    w_h: np.ndarray
    u_z: np.ndarray
    u_r: np.ndarray
    u_h: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        for stack, names in _GATE_STACKS:
            gates = [np.asarray(getattr(self, name)) for name in names]
            if len({g.shape for g in gates}) > 1:
                shapes = ", ".join(f"{n} {g.shape}" for n, g in zip(names, gates))
                raise DimensionError(f"stacked gates differ in shape: {shapes}")
            stacked = np.stack(gates)
            object.__setattr__(self, stack, stacked)
            for name, view in zip(names, stacked):
                object.__setattr__(self, name, view)


_LAYER_FIELDS = tuple(f.name for f in fields(GruLayer))
# Each gate stack: the private attribute that holds it, then its gates in order.
_GATE_STACKS = (
    ("_w_zrh", ("w_z", "w_r", "w_h")),
    ("_u_zr", ("u_z", "u_r")),
    ("_b_zr", ("b_z", "b_r")),
)


def _layer_shapes(num_layers: int, hidden: int, input_dim: int):
    """Each layer's array shapes in ``_LAYER_FIELDS`` order; layer 0 reads
    ``input_dim`` features and every later layer the one below it."""
    for i in range(num_layers):
        in_dim = input_dim if i == 0 else hidden
        yield 3 * [(hidden, in_dim)] + 3 * [(hidden, hidden)] + 3 * [(hidden,)]


@dataclass(frozen=True)
class GruWeights:
    layers: tuple[GruLayer, ...]
    w_out: np.ndarray
    b_out: np.ndarray
    alphabet: LabelAlphabet

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_size(self) -> int:
        return self.layers[0].w_z.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0].w_z.shape[1]

    @property
    def num_symbols(self) -> int:
        return self.w_out.shape[0]

    @property
    def num_parameters(self) -> int:
        arrays = [getattr(layer, name) for layer in self.layers for name in _LAYER_FIELDS]
        return sum(a.size for a in arrays) + self.w_out.size + self.b_out.size

    def validate(self) -> None:
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

    def validate(self, atol: float = ROW_SUM_ATOL) -> None:
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("posteriorgram contains non-finite values")
        if self.rows.size and (self.rows.min() < 0.0 or self.rows.max() > 1.0):
            raise ValueError("posteriorgram entries must lie in [0, 1]")
        if self.num_frames:
            sums = self.rows.sum(axis=1)
            worst = float(np.abs(sums - 1.0).max())
            if worst > atol:
                raise ValueError(f"posteriorgram rows must sum to 1 (worst error {worst:.3g})")


def _build_weights(alphabet: LabelAlphabet, num_layers: int, hidden_size: int, matrix) -> GruWeights:
    """Weights whose matrices ``matrix(shape)`` makes, in weight-file order,
    ending with the output projection; every bias is zero."""
    layers = tuple(
        GruLayer(*(matrix(shape) if len(shape) == 2 else np.zeros(shape) for shape in shapes))
        for shapes in _layer_shapes(num_layers, hidden_size, STACKED_DIM)
    )
    weights = GruWeights(
        layers, matrix((alphabet.size, hidden_size)), np.zeros(alphabet.size), alphabet
    )
    weights.validate()
    return weights


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

    def matrix(shape):
        return rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape)

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
    """The recurrent half of one layer for one frame: the new hidden state.

    ``x_zrh`` is the frame's input products ``[Wz x, Wr x, Wh x]``, one row
    per gate; the z and r gates are computed as one ``(2, H)`` array.
    """
    zr = _sigmoid(x_zrh[:2] + np.matmul(layer._u_zr, h) + layer._b_zr)
    z, r = zr[0], zr[1]
    c = np.tanh(x_zrh[2] + layer.u_h @ (r * h) + layer.b_h)
    return (1.0 - z) * c + z * h


GruState = tuple[np.ndarray, ...]


def init_state(weights: GruWeights) -> GruState:
    return tuple(np.zeros(weights.hidden_size) for _ in weights.layers)


def gru_step(weights: GruWeights, state: GruState, frame: np.ndarray) -> tuple[np.ndarray, GruState]:
    """One frame through all layers; returns (posterior row, new state)."""
    x = np.asarray(frame, dtype=np.float64)
    if x.shape != (weights.input_dim,):
        raise ValueError(f"frame dim {x.shape} does not match input dim {weights.input_dim}")
    new_state = []
    for layer, h in zip(weights.layers, state):
        x = _cell(layer, np.matmul(layer._w_zrh, x), h)
        new_state.append(x)
    return _softmax(weights.w_out @ x + weights.b_out), tuple(new_state)


def _stacked_matvec(matrices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``m @ row`` for each ``(T, in)`` row and each matrix ``m`` of a
    ``(G, H, in)`` stack, each its own matrix-vector product: ``(T, G, H)``."""
    return np.matmul(matrices, rows[:, None, :, None])[..., 0]


def run(weights: GruWeights, features: FeatureSequence) -> Posteriorgram:
    """Batch inference over one recording, bit-equal to looping :func:`gru_step`.

    Each layer runs over the whole recording before the next: its input
    products for every frame are formed at once, and only the recurrent
    half is stepped frame by frame.
    """
    if features.dim != weights.input_dim:
        raise ValueError(
            f"feature dim {features.dim} does not match model input dim {weights.input_dim}"
        )
    x = features.frames
    for layer in weights.layers:
        x_zrh = _stacked_matvec(layer._w_zrh, x)
        h = np.zeros(weights.hidden_size)
        out = np.empty((features.num_frames, weights.hidden_size))
        for t in range(features.num_frames):
            h = out[t] = _cell(layer, x_zrh[t], h)
        x = out
    logits = _stacked_matvec(weights.w_out[None], x)[:, 0] + weights.b_out
    return Posteriorgram(_softmax(logits), weights.alphabet)


def _read_alphabet(reader: container.Reader) -> LabelAlphabet:
    try:
        return LabelAlphabet(reader.labels())
    except ValueError as exc:
        raise FileFormatError(f"{reader.path}: bad alphabet ({exc})") from exc


def save_weights(path, weights: GruWeights) -> None:
    weights.validate()
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
    weights.validate()
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
        post.validate(atol=ROW_SUM_ATOL)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return post
