"""The weight and model files: byte-stable writers, bounds-checked
loaders, fuzzing; the WAV reader joins the fuzzing.

The digests pin the bytes of weight files to those of the format as first
published. Their inputs are built from integer arithmetic and one
division, so they round the same everywhere.
"""

import hashlib
import struct
from dataclasses import fields

import numpy as np
import pytest

from wakespot.audio import AudioBuffer, read_wav, write_wav
from wakespot.errors import FileFormatError
from wakespot.label_model import (
    GruLayer,
    GruWeights,
    LabelAlphabet,
    load_weights,
    save_weights,
)
from wakespot.wakeword import Hypothesis, WakewordModel, load_model, save_model


def ramp(shape, salt=0):
    """Deterministic values in about [-1, 1]: integers mod 2001, divided once."""
    n = int(np.prod(shape))
    return (((np.arange(n) * 7919 + salt) % 2001 - 1000) / 997.0).reshape(shape)


def ramp_weights(num_layers, hidden, input_dim, labels):
    alphabet = LabelAlphabet(labels)
    layers = []
    for i in range(num_layers):
        in_dim = input_dim if i == 0 else hidden
        shapes = 3 * [(hidden, in_dim)] + 3 * [(hidden, hidden)] + 3 * [(hidden,)]
        # Wz Wr Wh Uz Ur Uh bz br bh, stacked into the layer's five arrays
        g = [ramp(s, 9 * i + j) for j, s in enumerate(shapes)]
        layers.append(
            GruLayer(np.stack(g[0:3]), np.stack(g[3:5]), g[5], np.stack(g[6:8]), g[8])
        )
    return GruWeights(tuple(layers), ramp((alphabet.size, hidden), 1), ramp((alphabet.size,), 2), alphabet)


PAPER_LABELS = tuple(f"L{i}" for i in range(39))

# sha256 of each file as written by the original per-format writers
DIGESTS = {
    "weights_1x4": "8f801f07b95b5766f4b91d9f9b76fe9fd53c32a04129c6f66159741103b72feb",
    "weights_3x96": "eff48fcf575cc5396aef008a745e8d46485cc2c184a43dc403be04a98e63cb63",
}


def write_case(name, path):
    """Write case ``name``; returns the weights written."""
    if name == "weights_3x96":
        value = ramp_weights(3, 96, 82, PAPER_LABELS)
    else:
        value = ramp_weights(1, 4, 82, ("ah", "éa", "x"))
    save_weights(path, value)
    return value


def as_float32(array):
    return np.asarray(array, dtype=np.float32).astype(np.float64)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_written_bytes_are_unchanged_and_load_back(tmp_path, name):
    path = tmp_path / name
    value = write_case(name, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
    back = load_weights(path)
    assert back.alphabet == value.alphabet
    for got, want in zip(back.layers, value.layers):
        for field in GruLayer.__dataclass_fields__:
            assert np.array_equal(getattr(got, field), as_float32(getattr(want, field)))
    assert np.array_equal(back.w_out, as_float32(value.w_out))
    assert np.array_equal(back.b_out, as_float32(value.b_out))


class TestHostileHeaders:
    def test_oversized_weight_dims_are_dimension_error(self, tmp_path):
        # 24 bytes claiming 1 layer with hidden = input = 2**31: the claimed
        # size must be checked against the file, not handed to a read
        path = tmp_path / "w.bin"
        path.write_bytes(struct.pack("<4sIIIII", b"WSGW", 1, 1, 2**31, 2**31, 3))
        with pytest.raises(FileFormatError):
            load_weights(path)

    def test_many_layers_of_zero_width_are_refused(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(struct.pack("<4sIIIII", b"WSGW", 1, 2**32 - 1, 0, 0, 1))
        with pytest.raises(FileFormatError):
            load_weights(path)

    def test_non_utf8_label_is_file_format_error(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, ramp_weights(1, 2, 3, ("a",)))
        data = path.read_bytes()
        # the alphabet is the last part: a count of 1, then label "a" of length 1
        assert data.endswith(b"\x01\x00\x00\x00\x01\x00\x00\x00a")
        path.write_bytes(data[:-1] + b"\xff")
        with pytest.raises(FileFormatError):
            load_weights(path)

    def test_signalling_nan_weight_error_names_the_file(self, tmp_path):
        # the cast to float64 must not warn before GruWeights refuses the
        # value, and the loader must name the file in that refusal
        path = tmp_path / "w.bin"
        save_weights(path, ramp_weights(1, 2, 3, ("a",)))
        data = bytearray(path.read_bytes())
        data[24:28] = struct.pack("<I", 0x7F800001)  # layer 0's first w value
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="non-finite") as refused:
            load_weights(path)
        assert str(refused.value).startswith(f"{path}: ")


def alphabet_size(labels):
    return 4 + sum(4 + len(label.encode("utf-8")) for label in labels)


FUZZ_LABELS = ("a", "bc")


def small_file(name, path):
    """Write a small valid file; returns its loader, the (start, stop) byte
    spans of its header and alphabet (all of it for the text model, the
    44-byte header of the WAV), and those of each float32 part of the
    weights (none for the model and the WAV)."""
    if name == "wav":
        write_wav(path, AudioBuffer(np.arange(-50, 50, dtype=np.int16)))
        return read_wav, [(0, 44)], []
    if name == "weights":
        weights = ramp_weights(2, 2, 3, FUZZ_LABELS)
        save_weights(path, weights)
        size = path.stat().st_size
        arrays = [getattr(layer, f.name) for layer in weights.layers for f in fields(layer)]
        ends = 24 + 4 * np.cumsum([a.size for a in [*arrays, weights.w_out, weights.b_out]])
        parts = list(zip([24, *ends[:-1].tolist()], ends.tolist()))
        return load_weights, [(0, 24), (size - alphabet_size(FUZZ_LABELS), size)], parts
    alphabet = LabelAlphabet(FUZZ_LABELS)
    model = WakewordModel(
        hypotheses=(
            Hypothesis(labels=(1, 2), enroll_logprob=-1.5, example=0),
            Hypothesis(labels=(2,), enroll_logprob=-2.25, example=2),
        ),
        alphabet=alphabet,
        threshold=0.125,
    )
    save_model(path, model)
    return (lambda p: load_model(p, alphabet)), [(0, path.stat().st_size)], []


@pytest.mark.parametrize("name", ["weights", "model", "wav"])
def test_truncations_and_bit_flips_raise_only_package_errors(tmp_path, name):
    path = tmp_path / name
    loader, spans, parts = small_file(name, path)
    loader(path)
    data = path.read_bytes()
    rng = np.random.default_rng(2024)
    flips = [(i, bit) for start, stop in spans for i in range(start, stop) for bit in range(8)]
    flips += list(zip(rng.integers(0, len(data), 64).tolist(), rng.integers(0, 8, 64).tolist()))
    variants = [data[:n] for n in range(len(data))] + [data + b"\x00"]
    for i, bit in flips:
        flipped = bytearray(data)
        flipped[i] ^= 1 << bit
        variants.append(bytes(flipped))
    # each variant in a new file: rewriting one costs far more than writing one
    for k, variant in enumerate(variants):
        variant_path = tmp_path / f"{name}-{k}"
        variant_path.write_bytes(variant)
        try:
            loader(variant_path)
        except FileFormatError as exc:
            assert str(exc).startswith(f"{variant_path}: "), exc
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped for {variant!r}: {exc}")
    # all 8 exponent bits of one value of each weight part set: an inf or a
    # NaN, which GruWeights refuses and the loader reports with the path
    for k, (start, stop) in enumerate(parts):
        at = start + 4 * int(rng.integers(0, (stop - start) // 4))
        (bits,) = struct.unpack_from("<I", data, at)
        non_finite = bytearray(data)
        struct.pack_into("<I", non_finite, at, bits | 0x7F800000)
        variant_path = tmp_path / f"{name}-non-finite-{k}"
        variant_path.write_bytes(bytes(non_finite))
        with pytest.raises(FileFormatError, match="non-finite") as refused:
            loader(variant_path)
        assert str(refused.value).startswith(f"{variant_path}: ")
