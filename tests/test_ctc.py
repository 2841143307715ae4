import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakespot.ctc import (
    NEG_INF,
    CtcForwardScorer,
    ForwardLattice,
    beam_search,
    forward_logprob,
    nbest_sort_key,
    prefix_trie,
    validate_labels,
)
from wakespot.label_model import Posteriorgram

from conftest import (
    brute_force_logprob,
    brute_force_sequence_probs,
    collapse,
    make_alphabet,
    random_posteriorgram,
    reference_beam_search,
)


def post_from_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return Posteriorgram(rows, make_alphabet(rows.shape[1] - 1))


class TestForwardBasics:
    def test_single_blank_frame_empty_sequence(self):
        post = post_from_rows([[1.0, 0.0]])
        assert forward_logprob(post, ()) == 0.0

    def test_single_label_frame(self):
        post = post_from_rows([[0.0, 1.0]])
        assert forward_logprob(post, (1,)) == 0.0

    def test_three_coin_frames(self):
        # every row (0.5 blank, 0.5 a): 6 of the 8 alignments collapse to "a"
        post = post_from_rows([[0.5, 0.5]] * 3)
        assert math.isclose(forward_logprob(post, (1,)), math.log(0.75), abs_tol=1e-12)

    def test_repeated_label_needs_blank(self):
        post = post_from_rows([[0.0, 1.0]] * 2)
        assert forward_logprob(post, (1, 1)) == NEG_INF

    def test_sequence_longer_than_audio(self):
        post = post_from_rows([[0.5, 0.5]])
        assert forward_logprob(post, (1, 1)) == NEG_INF

    def test_invalid_label_rejected(self):
        post = post_from_rows([[0.5, 0.5]])
        with pytest.raises(ValueError):
            forward_logprob(post, (0,))
        with pytest.raises(ValueError):
            forward_logprob(post, (2,))
        with pytest.raises(ValueError):
            CtcForwardScorer((0,), 2)
        with pytest.raises(ValueError):
            CtcForwardScorer((2,), 2)


class TestForwardOracle:
    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            num_symbols = int(rng.integers(2, 5))
            frames = int(rng.integers(1, 7))
            post = random_posteriorgram(rng, frames, num_symbols)
            probs = brute_force_sequence_probs(post)
            for length in range(0, 4):
                for labels in itertools.product(range(1, num_symbols), repeat=length):
                    expected = probs.get(labels, 0.0)
                    got = forward_logprob(post, labels)
                    if expected == 0.0:
                        assert got == NEG_INF
                    else:
                        assert math.isclose(got, math.log(expected), abs_tol=1e-9)

    def test_total_probability_sums_to_one(self):
        rng = np.random.default_rng(202)
        for _ in range(25):
            num_symbols = int(rng.integers(2, 4))
            frames = int(rng.integers(1, 6))
            post = random_posteriorgram(rng, frames, num_symbols)
            total = 0.0
            for length in range(0, frames + 1):
                for labels in itertools.product(range(1, num_symbols), repeat=length):
                    lp = forward_logprob(post, labels)
                    if lp > NEG_INF:
                        total += math.exp(lp)
            assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_monotone_in_label_mass_for_single_label(self):
        # Moving the label's mass to a symbol its alignments never use can
        # only remove probability. (Moving mass to blank is NOT monotone:
        # alignments that sit on blank at that frame gain, and brute-force
        # enumeration confirms the gain can win, e.g. K=3, T=5.)
        rng = np.random.default_rng(303)
        for _ in range(50):
            num_symbols = int(rng.integers(3, 5))
            frames = int(rng.integers(1, 6))
            post = random_posteriorgram(rng, frames, num_symbols)
            t = int(rng.integers(0, frames))
            delta = float(rng.uniform(0.0, post.rows[t, 1]))
            bumped = post.rows.copy()
            bumped[t, 1] -= delta
            bumped[t, 2] += delta
            before = forward_logprob(post, (1,))
            after = forward_logprob(Posteriorgram(bumped, post.alphabet), (1,))
            assert after <= before + 1e-12

    def test_blank_shift_can_raise_single_label_probability(self):
        # Counterexample freezing the behavior above, checked against the
        # independent enumeration oracle.
        rows = np.array(
            [
                [0.0326, 0.3037, 0.6637],
                [0.4894, 0.1566, 0.3539],
                [0.4195, 0.3482, 0.2324],
                [0.3348, 0.1576, 0.5076],
                [0.1710, 0.5635, 0.2655],
            ]
        )
        rows /= rows.sum(axis=1, keepdims=True)
        post = post_from_rows(rows)
        bumped = rows.copy()
        bumped[4, 1] -= 0.5
        bumped[4, 0] += 0.5
        post_bumped = post_from_rows(bumped)
        before = forward_logprob(post, (1,))
        after = forward_logprob(post_bumped, (1,))
        assert after > before
        assert math.isclose(before, brute_force_logprob(post, (1,)), abs_tol=1e-9)
        assert math.isclose(after, brute_force_logprob(post_bumped, (1,)), abs_tol=1e-9)


class TestStreamingForward:
    def test_step_matches_batch_bitwise(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            num_symbols = int(rng.integers(2, 5))
            frames = int(rng.integers(1, 8))
            length = int(rng.integers(0, 4))
            post = random_posteriorgram(rng, frames, num_symbols)
            labels = tuple(rng.integers(1, num_symbols, size=length))
            scorer = CtcForwardScorer(labels, num_symbols)
            for row in post.rows:
                scorer.step(row)
            assert scorer.finalize() == forward_logprob(post, labels)

    def test_finalize_before_any_step(self):
        assert CtcForwardScorer((), 3).finalize() == 0.0
        assert CtcForwardScorer((1,), 3).finalize() == NEG_INF

    def test_finalize_is_idempotent_and_nondestructive(self):
        post = post_from_rows([[0.5, 0.5]] * 3)
        scorer = CtcForwardScorer((1,), 2)
        scorer.step(post.rows[0])
        mid = scorer.finalize()
        scorer.step(post.rows[1])
        scorer.step(post.rows[2])
        assert scorer.finalize() == forward_logprob(post, (1,))
        assert mid != scorer.finalize()

    def test_state_size_is_2u_plus_1(self):
        for length in range(4):
            labels = tuple(range(1, length + 1))
            scorer = CtcForwardScorer(labels, 6)
            for _ in range(3):
                scorer.step(np.full(6, 1.0 / 6))
                assert scorer.state().size == 2 * length + 1

    def test_row_size_mismatch_rejected(self):
        scorer = CtcForwardScorer((1,), 3)
        with pytest.raises(ValueError):
            scorer.step(np.array([0.5, 0.5]))

    def test_state_values_are_log_probabilities(self):
        rng = np.random.default_rng(7)
        post = random_posteriorgram(rng, 5, 3)
        scorer = CtcForwardScorer((1, 2), 3)
        for row in post.rows:
            scorer.step(row)
            assert (scorer.state() <= 1e-12).all()


class TestBeamSearch:
    def test_empty_posteriorgram(self):
        post = post_from_rows(np.zeros((0, 3)))
        assert beam_search(post, 5) == [((), 0.0)]

    def test_pure_blank_frame(self):
        post = post_from_rows([[1.0, 0.0]])
        top = beam_search(post, 3)[0]
        assert top.labels == ()
        assert top.logprob == 0.0

    def test_coin_rows_exact_ranking(self):
        post = post_from_rows([[0.5, 0.5]] * 3)
        entries = beam_search(post, 8)
        assert entries[0].labels == (1,)
        assert math.isclose(entries[0].logprob, math.log(0.75), abs_tol=1e-12)
        by_labels = dict(entries)
        assert math.isclose(by_labels[()], math.log(0.125), abs_tol=1e-12)
        assert math.isclose(by_labels[(1, 1)], math.log(0.125), abs_tol=1e-12)

    def test_exhaustive_ranking_with_wide_beam(self):
        rng = np.random.default_rng(505)
        for _ in range(30):
            num_symbols = int(rng.integers(2, 4))
            frames = int(rng.integers(1, 6))
            post = random_posteriorgram(rng, frames, num_symbols)
            probs = brute_force_sequence_probs(post)
            expected = sorted(
                ((labels, math.log(p)) for labels, p in probs.items() if p > 0.0),
                key=lambda e: (-e[1], len(e[0]), e[0]),
            )
            got = beam_search(post, beam_width=len(expected) + 5)
            assert [e.labels for e in got] == [labels for labels, _ in expected]
            for (_, want), entry in zip(expected, got):
                assert math.isclose(entry.logprob, want, abs_tol=1e-9)

    def test_reported_scores_equal_forward_even_with_pruning(self):
        rng = np.random.default_rng(606)
        post = random_posteriorgram(rng, 6, 4)
        for entry in beam_search(post, 3):
            assert entry.logprob == forward_logprob(post, entry.labels)

    def test_beam_one_equals_greedy_on_peaky_rows(self):
        rng = np.random.default_rng(707)
        for _ in range(20):
            frames = int(rng.integers(2, 9))
            num_symbols = int(rng.integers(2, 5))
            rows = np.full((frames, num_symbols), 0.01 / (num_symbols - 1))
            for t in range(frames):
                rows[t, rng.integers(0, num_symbols)] = 0.99
            rows /= rows.sum(axis=1, keepdims=True)
            post = post_from_rows(rows)
            assert beam_search(post, 1)[0].labels == collapse(rows.argmax(axis=1).tolist())

    def test_beam_width_validated(self):
        post = post_from_rows([[1.0, 0.0]])
        with pytest.raises(ValueError):
            beam_search(post, 0)

    def test_results_sorted_and_unique(self):
        rng = np.random.default_rng(808)
        post = random_posteriorgram(rng, 5, 3)
        entries = beam_search(post, 10)
        assert entries == sorted(entries, key=nbest_sort_key)
        assert len({e.labels for e in entries}) == len(entries)
        assert all(e.logprob <= 0.0 for e in entries)

    def test_ties_at_cutoff_keep_shorter_then_lexicographic(self):
        # On a uniform row the empty prefix and every one-label prefix have
        # the same mass, log(1/4); a beam narrower than that group keeps the
        # shorter prefix first, then the lexicographically smaller labels.
        post = post_from_rows([[0.25] * 4])
        assert [e.labels for e in beam_search(post, 1)] == [()]
        assert [e.labels for e in beam_search(post, 2)] == [(), (1,)]
        assert [e.labels for e in beam_search(post, 3)] == [(), (1,), (2,)]
        for frames, num_symbols in [(2, 3), (3, 4), (4, 3), (3, 5)]:
            post = post_from_rows([[1.0 / num_symbols] * num_symbols] * frames)
            for width in range(1, 12):
                assert exact(beam_search(post, width)) == exact(
                    reference_beam_search(post, width)
                )

    def test_row_logs_are_scalar_logs(self):
        # np.log on an array rounds some entries differently from math.log
        # (it does on AVX-512 hosts). Pair such an entry with a neighbouring
        # float whose math.log is equal: the prefixes (1,) and (2,) then tie
        # exactly, and only a search that takes scalar logs sees the tie.
        values = np.random.default_rng(11).uniform(0.2, 0.45, 100_000)
        differ = values[np.log(values) != [math.log(v) for v in values.tolist()]]
        for q in differ.tolist()[:40]:
            for p in (math.nextafter(q, 1.0), math.nextafter(q, 0.0)):
                if math.log(p) != math.log(q):
                    continue
                for row in ([1.0 - p - q, p, q], [1.0 - p - q, q, p]):
                    post = post_from_rows([row])
                    for width in (1, 2):
                        assert exact(beam_search(post, width)) == exact(
                            reference_beam_search(post, width)
                        )


def exact(entries):
    """Labels and the bit pattern of each log probability."""
    return [(e.labels, e.logprob.hex()) for e in entries]


@pytest.mark.parametrize("width", [1, 10, 100])
@pytest.mark.parametrize("weights_name", ["oracle", "random_3x96"])
def test_beam_search_equals_reference_on_real_supports(weights_name, width):
    from wakespot import synth
    from wakespot.audio import extract_fbank, stack_frames
    from wakespot.label_model import random_weights, run

    if weights_name == "oracle":
        weights = synth.oracle_weights()
    else:
        weights = random_weights(synth.synth_alphabet(), num_layers=3, hidden_size=96, seed=0)
    for episode in synth.generate_synthetic_episodes(7, 5):
        for audio in episode.support:
            post = run(weights, stack_frames(extract_fbank(audio)))
            assert exact(beam_search(post, width)) == exact(reference_beam_search(post, width))


class TestCollapse:
    def test_validate_labels(self):
        assert validate_labels([1, 2], 3) == (1, 2)
        with pytest.raises(ValueError):
            validate_labels([0], 3)
        with pytest.raises(ValueError):
            validate_labels([3], 3)


@st.composite
def small_posteriorgrams(draw):
    num_symbols = draw(st.integers(2, 4))
    frames = draw(st.integers(1, 5))
    rows = []
    for _ in range(frames):
        weights = draw(
            st.lists(st.floats(0.01, 1.0), min_size=num_symbols, max_size=num_symbols)
        )
        total = sum(weights)
        rows.append([w / total for w in weights])
    return post_from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(small_posteriorgrams())
def test_forward_matches_oracle_property(post):
    probs = brute_force_sequence_probs(post)
    for labels in itertools.product(range(1, post.num_symbols), repeat=2):
        expected = probs.get(labels, 0.0)
        got = forward_logprob(post, labels)
        if expected == 0.0:
            assert got == NEG_INF
        else:
            assert math.isclose(got, math.log(expected), abs_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_posteriorgrams())
def test_beam_top_entry_is_best_sequence_property(post):
    probs = brute_force_sequence_probs(post)
    best = max(
        ((p, labels) for labels, p in probs.items() if p > 0.0),
        key=lambda e: (e[0], -len(e[1])),
    )
    top = beam_search(post, 64)[0]
    assert math.isclose(top.logprob, math.log(best[0]), abs_tol=1e-9)


@st.composite
def ragged_lattice_cases(draw):
    """A tiny posteriorgram (possibly with no frames and with zero entries)
    and a ragged hypothesis set that always holds the empty sequence and a
    repeated label, with some sequences longer than the audio."""
    num_symbols = draw(st.integers(2, 4))
    frames = draw(st.integers(0, 6))
    rows = []
    for _ in range(frames):
        weights = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                min_size=num_symbols,
                max_size=num_symbols,
            )
        )
        total = sum(weights)
        rows.append([w / total for w in weights] if total else [1.0] + [0.0] * (num_symbols - 1))
    post = Posteriorgram(np.array(rows).reshape(frames, num_symbols), make_alphabet(num_symbols - 1))
    label = st.integers(1, num_symbols - 1)
    drawn = draw(st.lists(st.lists(label, max_size=frames + 2).map(tuple), max_size=5))
    sequences = draw(st.permutations([(), (1, 1), *drawn]))
    return post, sequences


@settings(max_examples=150, deadline=None)
@given(ragged_lattice_cases())
def test_lattice_entries_equal_single_sequence_scoring_property(case):
    post, sequences = case
    lattice = ForwardLattice(*prefix_trie(sequences, post.num_symbols))
    for row in post.rows:
        lattice.advance(row[None])
    got = lattice.finalize().tolist()
    assert len(got) == len(sequences)
    probs = brute_force_sequence_probs(post)
    for labels, lp in zip(sequences, got):
        assert lp == forward_logprob(post, labels)  # bitwise
        expected = probs.get(labels, 0.0)
        if expected == 0.0:
            assert lp == NEG_INF
        else:
            assert math.isclose(lp, math.log(expected), abs_tol=1e-9)
    for h, labels in enumerate(sequences):
        assert lattice.state(h).size == 2 * len(labels) + 1


@st.composite
def shared_prefix_cases(draw):
    """A posteriorgram as in :func:`ragged_lattice_cases` with K >= 3 and a
    hypothesis set whose members share prefixes: a drawn sequence, each of
    its proper prefixes, an exact duplicate of it, a sibling that differs
    in the last label, and (1, 1)."""
    post, _ = draw(ragged_lattice_cases().filter(lambda case: case[0].num_symbols >= 3))
    label = st.integers(1, post.num_symbols - 1)
    drawn = draw(st.lists(label, min_size=1, max_size=post.num_frames + 2).map(tuple))
    last = draw(label.filter(lambda y: y != drawn[-1]))
    prefixes = [drawn[:u] for u in range(len(drawn))]
    sequences = draw(st.permutations([drawn, *prefixes, drawn, drawn[:-1] + (last,), (1, 1)]))
    return post, sequences


@settings(max_examples=150, deadline=None)
@given(shared_prefix_cases())
def test_shared_prefix_cells_equal_single_sequence_scoring_property(case):
    post, sequences = case
    lattice = ForwardLattice(*prefix_trie(sequences, post.num_symbols))
    alone = [CtcForwardScorer(labels, post.num_symbols) for labels in sequences]
    prefixes = {labels[:u] for labels in sequences for u in range(1, len(labels) + 1)}
    assert lattice.num_lattice_cells == 2 * len(prefixes) + 1
    for row in [None, *post.rows]:
        if row is not None:
            lattice.advance(row[None])
            for scorer in alone:
                scorer.step(row)
        for h, scorer in enumerate(alone):
            assert lattice.state(h).tobytes() == scorer.state().tobytes()  # bitwise
    probs = brute_force_sequence_probs(post)
    for labels, lp in zip(sequences, lattice.finalize().tolist()):
        assert lp == forward_logprob(post, labels)  # bitwise
        expected = probs.get(labels, 0.0)
        if expected == 0.0:
            assert lp == NEG_INF
        else:
            assert math.isclose(lp, math.log(expected), abs_tol=1e-9)


@st.composite
def batch_lattice_cases(draw):
    """Up to 40 rows over K = 2..41 symbols, some with exact zeros, and
    hypotheses with shared prefixes, duplicates and the empty sequence."""
    num_symbols = draw(st.integers(2, 41))
    frames = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(num_symbols), size=frames)
    rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    post = Posteriorgram(rows / rows.sum(axis=1, keepdims=True), make_alphabet(num_symbols - 1))
    label = st.integers(1, num_symbols - 1)
    drawn = draw(st.lists(st.lists(label, max_size=12).map(tuple), min_size=1, max_size=4))
    prefixes = [seq[:u] for seq in drawn for u in range(len(seq))]
    sequences = draw(st.permutations([(), *drawn, drawn[0], *prefixes]))
    return post, sequences


@settings(max_examples=150, deadline=None)
@given(batch_lattice_cases(), st.lists(st.integers(0, 6), min_size=1).filter(any))
def test_batch_lattice_equals_stepping_every_row_property(case, block_sizes):
    post, sequences = case
    trie = prefix_trie(sequences, post.num_symbols)
    batch = ForwardLattice(*trie).advance(post.rows)
    stepped = ForwardLattice(*trie)
    for row in post.rows:
        stepped.advance(row[None])
    # blocks of at most _BLOCK_PAIRS rows, as the streaming detector feeds
    # them, and empty ones
    blocked, start = ForwardLattice(*trie), 0
    for size in itertools.cycle(block_sizes):
        if start >= post.num_frames:
            break
        blocked.advance(post.rows[start : start + size])
        start += size
    for lattice in (stepped, blocked):
        assert lattice.finalize().tobytes() == batch.finalize().tobytes()  # bitwise
        for h in range(len(sequences)):
            assert lattice.state(h).tobytes() == batch.state(h).tobytes()
    # the physical cells: two per distinct non-empty prefix and the start blank
    prefixes = {labels[:u] for labels in sequences for u in range(1, len(labels) + 1)}
    assert batch.num_lattice_cells == stepped.num_lattice_cells == 2 * len(prefixes) + 1


@settings(max_examples=150, deadline=None)
@given(batch_lattice_cases())
def test_lattice_from_a_prefix_table_equals_lattice_from_sequences_property(case):
    post, sequences = case
    # Number the prefix table breadth first, shorter prefixes first, unlike
    # the trie that prefix_trie builds in insertion order.
    prefixes = sorted(
        {labels[:u] for labels in sequences for u in range(len(labels) + 1)},
        key=lambda labels: (len(labels), labels),
    )
    node = {labels: n for n, labels in enumerate(prefixes)}
    parent = np.array([node[labels[:-1]] if labels else 0 for labels in prefixes])
    label = np.array([labels[-1] if labels else 0 for labels in prefixes])
    ends = np.array([node[labels] for labels in sequences], dtype=np.intp)
    from_table = ForwardLattice(parent, label, ends)
    from_sequences = ForwardLattice(*prefix_trie(sequences, post.num_symbols))
    assert from_table.num_lattice_cells == from_sequences.num_lattice_cells
    for row in [None, *post.rows]:
        if row is not None:
            from_table.advance(row[None])
            from_sequences.advance(row[None])
        for h in range(len(sequences)):
            assert from_table.state(h).tobytes() == from_sequences.state(h).tobytes()
        assert from_table.finalize().tobytes() == from_sequences.finalize().tobytes()


@st.composite
def beam_search_cases(draw):
    """Posteriorgrams with T = 0..11 and K = 2..6, drawn as Dirichlet-like
    rows, rows with zero entries or small-integer (quantized) rows whose
    equal entries give exact mass ties; a beam width of 1..20."""
    num_symbols = draw(st.integers(2, 6))
    frames = draw(st.integers(0, 11))
    kind = draw(st.sampled_from(["real", "zeros", "quantized"]))
    if kind == "real":
        entry = st.floats(0.01, 1.0)
    elif kind == "zeros":
        entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    else:
        entry = st.integers(0, 3).map(float)
    rows = []
    for _ in range(frames):
        weights = draw(st.lists(entry, min_size=num_symbols, max_size=num_symbols))
        total = sum(weights)
        rows.append([w / total for w in weights] if total else [1.0] + [0.0] * (num_symbols - 1))
    post = Posteriorgram(np.array(rows).reshape(frames, num_symbols), make_alphabet(num_symbols - 1))
    return post, draw(st.integers(1, 20))


@settings(max_examples=300, deadline=None)
@given(beam_search_cases())
def test_beam_search_equals_reference_property(case):
    post, width = case
    assert exact(beam_search(post, width)) == exact(reference_beam_search(post, width))
