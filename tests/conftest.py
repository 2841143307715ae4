import itertools
import math

import numpy as np
import pytest

from wakespot.ctc import NEG_INF, ScoredSequence, forward_lattice, nbest_sort_key
from wakespot.label_model import LabelAlphabet, Posteriorgram


def make_alphabet(num_labels: int) -> LabelAlphabet:
    return LabelAlphabet(tuple(f"L{i}" for i in range(num_labels)))


def random_posteriorgram(rng: np.random.Generator, num_frames: int, num_symbols: int) -> Posteriorgram:
    """Random row-stochastic posteriorgram via a Dirichlet draw per frame."""
    rows = rng.dirichlet(np.ones(num_symbols), size=num_frames) if num_frames else np.zeros((0, num_symbols))
    return Posteriorgram(rows, make_alphabet(num_symbols - 1))


def collapse(path):
    """Reference collapse: merge adjacent repeats, then drop blanks (index 0)."""
    out = []
    prev = None
    for sym in path:
        if sym != prev and sym != 0:
            out.append(sym)
        prev = sym
    return tuple(out)


def brute_force_sequence_probs(post: Posteriorgram) -> dict[tuple[int, ...], float]:
    """Enumerate all K^T alignments; sum linear-space probabilities per
    collapsed sequence. Independent of the forward recursion under test."""
    rows = post.rows.tolist()
    num_symbols = post.num_symbols
    probs: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(num_symbols), repeat=post.num_frames):
        p = 1.0
        for t, sym in enumerate(path):
            p *= rows[t][sym]
        key = collapse(path)
        probs[key] = probs.get(key, 0.0) + p
    return probs


def brute_force_logprob(post: Posteriorgram, labels) -> float:
    p = brute_force_sequence_probs(post).get(tuple(labels), 0.0)
    return math.log(p) if p > 0.0 else float("-inf")


def _scalar_logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def reference_beam_search(post: Posteriorgram, beam_width: int) -> list[ScoredSequence]:
    """Test oracle for ``ctc.beam_search``: the plain prefix beam search over
    a dict of prefix -> (blank mass, non-blank mass), merging one candidate
    at a time and ranking every candidate with the full sort key. Survivors
    are rescored exactly as in the library."""
    assert beam_width >= 1
    num_symbols = post.num_symbols
    beams = {(): (0.0, NEG_INF)}
    for row in post.rows:
        logrow = [math.log(p) if p > 0.0 else NEG_INF for p in row]
        blank_lp = logrow[0]
        merged: dict[tuple[int, ...], list[float]] = {}

        def add(prefix, mass, ends_blank):
            if mass == NEG_INF:
                return
            entry = merged.setdefault(prefix, [NEG_INF, NEG_INF])
            idx = 0 if ends_blank else 1
            entry[idx] = _scalar_logaddexp(entry[idx], mass)

        for prefix, (p_blank, p_nonblank) in beams.items():
            total = _scalar_logaddexp(p_blank, p_nonblank)
            add(prefix, total + blank_lp, ends_blank=True)
            last = prefix[-1] if prefix else None
            if last is not None:
                add(prefix, p_nonblank + logrow[last], ends_blank=False)
            for c in range(1, num_symbols):
                if c == last:
                    add(prefix + (c,), p_blank + logrow[c], ends_blank=False)
                else:
                    add(prefix + (c,), total + logrow[c], ends_blank=False)

        ranked = sorted(
            merged.items(),
            key=lambda kv: (-_scalar_logaddexp(kv[1][0], kv[1][1]), len(kv[0]), kv[0]),
        )
        beams = {prefix: (masses[0], masses[1]) for prefix, masses in ranked[:beam_width]}

    prefixes = list(beams)
    logprobs = forward_lattice(post, prefixes).finalize().tolist()
    results = [
        ScoredSequence(prefix, lp) for prefix, lp in zip(prefixes, logprobs) if lp > NEG_INF
    ]
    results.sort(key=nbest_sort_key)
    return results


@pytest.fixture(scope="session")
def oracle_model():
    from wakespot.synth import oracle_weights

    return oracle_weights()


def reference_dtw_cost(distances: np.ndarray) -> tuple[float, int]:
    """Test oracle for ``dtw._dtw_costs``: the plain row-by-row DP over one
    distance matrix, cell by cell in Python floats. Ties prefer diagonal,
    then up (query advance), then left (test advance), with strict ``<``."""
    n, m = distances.shape
    d = distances.tolist()
    inf = float("inf")
    prev_cost = [inf] * m
    prev_len = [0] * m
    cost_row = [inf] * m
    len_row = [0] * m
    for i in range(n):
        di = d[i]
        for j in range(m):
            if i == 0 and j == 0:
                cost_row[0] = di[0]
                len_row[0] = 1
                continue
            diag = prev_cost[j - 1] if (i > 0 and j > 0) else inf
            up = prev_cost[j] if i > 0 else inf
            left = cost_row[j - 1] if j > 0 else inf
            best, steps = diag, (prev_len[j - 1] if j > 0 else 0)
            if up < best:
                best, steps = up, prev_len[j]
            if left < best:
                best, steps = left, len_row[j - 1]
            cost_row[j] = best + di[j]
            len_row[j] = steps + 1
        prev_cost, cost_row = cost_row, prev_cost
        prev_len, len_row = len_row, prev_len
    return prev_cost[m - 1], prev_len[m - 1]
