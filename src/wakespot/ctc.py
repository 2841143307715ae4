"""CTC forward scoring and prefix beam search over posteriorgrams.

All probability arithmetic is carried out in natural-log space; ``-inf``
represents probability zero. A label sequence is a tuple of alphabet
indices with the blank (index 0) excluded.

The forward algorithm sums over every frame-level alignment that collapses
(merge adjacent repeats, then delete blanks) to the target sequence. One
implementation serves every caller: :class:`ForwardLattice` scores H
sequences at once on a prefix trie. The forward cells of positions 0..2u
depend only on the first u labels, so sequences that share a prefix share
those cells: the lattice holds one label cell and one blank cell per
distinct non-empty prefix, plus the start blank, and its memory is
independent of the audio length. Each posterior row is logged once and
advances every cell in one set of array operations, which apply to each
cell the operations, in the order, that scoring its sequence alone would,
so each sequence's result is bit-identical to scoring it alone
(:func:`forward_logprob` and :class:`CtcForwardScorer` are the
one-sequence case). The streaming step is the batch kernel applied to one
row: batch scoring is a loop of the same ``step`` that streaming uses.

The N-best decoder is a prefix beam search: candidate prefixes are merged
by collapsed identity with separate blank / non-blank path masses, and the
top ``beam_width`` prefixes survive each timestep. Its state is arrays
over the surviving prefixes (blank mass, non-blank mass, last label and
the survivor index of the prefix one label shorter), so each posterior row
advances every (beam x symbol) candidate in one set of array operations;
only the survivors are built as tuples. Surviving prefixes are rescored
with the exact forward algorithm before they are returned, so the reported
log probability of every entry is the true sequence probability even when
pruning discarded some of its alignment mass mid-search. No language model
or lexicon is involved. Ties, both at the pruning cutoff and in the
returned list, are ordered shorter sequence first, then lexicographically
by label indices.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .label_model import BLANK_INDEX, Posteriorgram

NEG_INF = float("-inf")

LabelSequence = tuple[int, ...]


class ScoredSequence(NamedTuple):
    labels: LabelSequence
    logprob: float


def validate_labels(labels: Iterable[int], num_symbols: int) -> LabelSequence:
    """Normalize to a tuple and check indices are non-blank and in range."""
    seq = tuple(int(v) for v in labels)
    for v in seq:
        if v == BLANK_INDEX:
            raise ValueError("label sequences may not contain the blank index")
        if not 0 < v < num_symbols:
            raise ValueError(f"label index {v} out of range for K={num_symbols}")
    return seq


def _log_rows(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(rows)


class ForwardLattice:
    """Incremental forward scores of H label sequences over one row stream.

    The sequences share a prefix trie. Node 0 is the root, the empty
    prefix; every other node is one distinct non-empty prefix, kept as the
    node of the prefix one label shorter (``parent``) and its last label.
    Duplicate sequences share an end node, and so does a sequence that is
    a prefix of another. The cells sit in one array laid out like one
    sequence's blank-interleaved positions: cell 0 is the root's start
    blank, and node n holds its label cell 2n-1 and the blank cell 2n after
    it. A skip into node n's label cell comes from its parent's label cell;
    it is allowed when the parent is not the root and its label differs.

    The cells of positions 0..2u of a sequence depend only on its first u
    labels, and ``step`` updates each node from its own and its parent's
    cells with the operations, in the order, that the same positions of
    one sequence alone would see (an advance from the parent's blank, a
    skip from the parent's label, then the row). Leaving out a transition
    that cannot occur is adding -inf, and ``logaddexp(x, -inf) == x``
    exactly, so every cell, and every sequence's score, is bit-identical to
    scoring the sequence alone. ``step`` ingests one posterior row;
    ``finalize`` may be called at any time and does not disturb the state.

    ``num_state_cells`` and ``cell_updates`` count the 2U+1 cells of each
    sequence as if it were scored alone; ``num_lattice_cells`` counts the
    cells the trie holds: two per node plus the start blank.

    The lattice starts in a start cell: before any row, position 0 holds
    log 1 = 0.0 and the others -inf (``state(h)`` reads so, and ``finalize``
    gives 0.0 for the empty sequence, -inf for the rest). The one recurrence
    then also yields the first row, because ``logaddexp(-inf, 0.0) == 0.0``.
    """

    def __init__(self, sequences: Iterable[Iterable[int]], num_symbols: int):
        self.sequences = tuple(validate_labels(seq, num_symbols) for seq in sequences)
        self.num_symbols = num_symbols
        node_of: dict[tuple[int, int], int] = {}
        parent, label, ends = [0], [BLANK_INDEX], []
        for seq in self.sequences:
            node = 0
            for y in seq:
                child = node_of.get((node, y))
                if child is None:
                    child = node_of[node, y] = len(parent)
                    parent.append(node)
                    label.append(y)
                node = child
            ends.append(node)
        self._parent = np.array(parent, dtype=np.intp)
        self._label = np.array(label, dtype=np.intp)
        self._ends = np.array(ends, dtype=np.intp)
        up = self._parent[1:]
        self._can_skip = (up != 0) & (self._label[up] != self._label[1:])
        # Cell symbols: the start blank, then each node's label and blank.
        self._symbols = np.zeros(2 * len(parent) - 1, dtype=np.intp)
        self._symbols[1::2] = self._label[1:]
        # Entry i is the cell that cell i+1 advances from: a label cell from
        # its parent's blank, a blank cell from the label cell before it.
        self._advance_from = np.arange(self._symbols.size - 1)
        self._advance_from[0::2] = 2 * up
        self._skip_from = 2 * up - 1
        self._alpha = np.full(self._symbols.size, NEG_INF)
        self._alpha[0] = 0.0  # the start cell
        self.num_lattice_cells = self._alpha.size
        self.num_state_cells = sum(2 * len(seq) + 1 for seq in self.sequences)
        self.steps = 0
        self.cell_updates = 0

    def state(self, h: int) -> np.ndarray:
        """Log forward probabilities of sequence ``h``'s 2U+1 positions."""
        path = []
        node = int(self._ends[h])
        while node:
            path.append(node)
            node = int(self._parent[node])
        cells = [0]
        for node in reversed(path):
            cells += (2 * node - 1, 2 * node)
        return self._alpha[cells]

    def step(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.num_symbols,):
            raise ValueError(
                f"posterior row has {row.shape} entries, scorer expects {self.num_symbols}"
            )
        prev = self._alpha
        alpha = np.empty_like(prev)
        alpha[0] = prev[0]
        np.logaddexp(prev[1:], prev[self._advance_from], out=alpha[1:])
        skip = np.where(self._can_skip, prev[self._skip_from], NEG_INF)
        np.logaddexp(alpha[1::2], skip, out=alpha[1::2])
        alpha += _log_rows(row)[self._symbols]
        self._alpha = alpha
        self.steps += 1
        self.cell_updates += self.num_state_cells

    def finalize(self) -> np.ndarray:
        """Log probability of each sequence given the rows seen so far."""
        ends = 2 * self._ends
        # An empty sequence ends on the root: its score is the start blank.
        return np.where(
            ends == 0, self._alpha[0], np.logaddexp(self._alpha[ends], self._alpha[ends - 1])
        )


class CtcForwardScorer(ForwardLattice):
    """Incremental forward scorer for one label sequence: a one-sequence
    :class:`ForwardLattice`. Its trie is a chain, so the lattice's cells are
    the sequence's 2U+1 blank-interleaved positions in order; ``state`` and
    ``finalize`` return that sequence's values."""

    def __init__(self, labels: Iterable[int], num_symbols: int):
        super().__init__([labels], num_symbols)
        self.labels = self.sequences[0]

    def state(self) -> np.ndarray:
        return super().state(0)

    def finalize(self) -> float:
        return float(super().finalize()[0])


def forward_lattice(post: Posteriorgram, sequences: Iterable[Iterable[int]]) -> ForwardLattice:
    """A :class:`ForwardLattice` of ``sequences`` advanced over every row of ``post``."""
    lattice = ForwardLattice(sequences, post.num_symbols)
    for row in post.rows:
        lattice.step(row)
    return lattice


def forward_logprob(post: Posteriorgram, labels: Iterable[int]) -> float:
    """Log probability that the audio's alignment collapses to ``labels``.

    Runs in O(U T) time and O(U) memory. Returns ``-inf`` when no valid
    alignment exists, e.g. when the sequence (with the blanks required
    between repeated labels) is longer than the audio.
    """
    return float(forward_lattice(post, [labels]).finalize()[0])


def nbest_sort_key(entry: ScoredSequence):
    return (-entry.logprob, len(entry.labels), entry.labels)


def _candidate_prefix(prefixes: list[LabelSequence], k: int, num_labels: int) -> LabelSequence:
    """Candidate ``k`` of a beam-search row: beam k for k < B, otherwise the
    extension of beam (k - B) // (K-1) by label (k - B) % (K-1) + 1."""
    if k < len(prefixes):
        return prefixes[k]
    beam, column = divmod(k - len(prefixes), num_labels)
    return prefixes[beam] + (column + 1,)


def beam_search(post: Posteriorgram, beam_width: int) -> list[ScoredSequence]:
    """N-best label sequences by CTC prefix beam search.

    The search state is the list of B surviving prefixes plus four arrays
    over them: the log mass of the paths ending in blank and of those
    ending in a label, each prefix's last label (the blank index for the
    empty prefix) and the index of ``prefix[:-1]`` among the survivors (-1
    when it was pruned). Each posterior row makes one blank/stay update of
    the B beams and one (B, K-1) matrix of extensions. An extension that
    already is a surviving beam is folded into that beam's non-blank mass
    and masked out of the matrix. Every merged mass has at most two terms,
    so the result does not depend on the order of merging.

    The ``beam_width`` candidates with the largest total mass survive each
    row, chosen with ``np.partition``. Only candidates that tie exactly at
    the cutoff are ordered by the tie rule, shorter prefix first, then
    lexicographically by label indices; only survivors get a tuple.

    Returns at most ``beam_width`` entries sorted by descending log
    probability; each entry's log probability is its exact forward score
    on the same posteriorgram, from one lattice over all surviving prefixes
    (bit-identical to :func:`forward_logprob`).
    """
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    num_labels = post.num_symbols - 1
    prefixes: list[LabelSequence] = [()]
    p_blank = np.zeros(1)
    p_nonblank = np.full(1, NEG_INF)
    last = np.full(1, BLANK_INDEX, dtype=np.intp)
    parent = np.full(1, -1, dtype=np.intp)
    for row in post.rows.tolist():
        num_beams = len(prefixes)
        # math.log per entry: np.log on an array may round some entries differently.
        logrow = np.array([math.log(p) if p > 0.0 else NEG_INF for p in row])
        total = np.logaddexp(p_blank, p_nonblank)
        runs = np.flatnonzero(last != BLANK_INDEX)
        run_label = last[runs]
        # Emit a blank: the prefix is unchanged and now ends in blank.
        new_blank = total + logrow[BLANK_INDEX]
        # Extend the current run of the final label: unchanged prefix.
        new_nonblank = np.full(num_beams, NEG_INF)
        new_nonblank[runs] = p_nonblank[runs] + logrow[run_label]
        # Append label c (column c - 1). A repeated label needs a separating
        # blank, so only blank-ending mass can start a new run of it.
        extend = total[:, None] + logrow[1:]
        extend[runs, run_label - 1] = p_blank[runs] + logrow[run_label]
        # An extension that already is a surviving beam merges into it.
        children = np.flatnonzero(parent >= 0)
        folded = (parent[children], last[children] - 1)
        new_nonblank[children] = np.logaddexp(new_nonblank[children], extend[folded])
        extend[folded] = NEG_INF

        # Candidates: the B beams, then the extension cells row by row.
        blank_mass = np.concatenate([new_blank, np.full(extend.size, NEG_INF)])
        label_mass = np.concatenate([new_nonblank, extend.ravel()])
        candidates = np.logaddexp(blank_mass, label_mass)
        survivors = np.flatnonzero(candidates > NEG_INF)
        if survivors.size > beam_width:
            kth = candidates.size - beam_width
            cutoff = np.partition(candidates, kth)[kth]
            above = np.flatnonzero(candidates > cutoff)
            tied = np.flatnonzero(candidates == cutoff).tolist()
            need = beam_width - above.size
            if need < len(tied):
                seqs = {k: _candidate_prefix(prefixes, k, num_labels) for k in tied}
                tied = sorted(tied, key=lambda k: (len(seqs[k]), seqs[k]))[:need]
            survivors = np.concatenate([above, np.array(tied, dtype=np.intp)])

        # Survivors in candidate order: kept beams first, then extensions.
        survivors.sort()
        num_kept = int(np.searchsorted(survivors, num_beams))
        kept = survivors[:num_kept]
        owner, column = np.divmod(survivors[num_kept:] - num_beams, num_labels)
        extensions = [
            prefixes[b] + (c + 1,) for b, c in zip(owner.tolist(), column.tolist())
        ]
        # New index of each old beam; the extra last entry maps "no parent"
        # (-1) to -1.
        position = np.full(num_beams + 1, -1, dtype=np.intp)
        position[kept] = np.arange(num_kept)
        kept_parent = parent[kept]
        parent = np.concatenate([position[kept_parent], position[owner]])
        # A kept beam whose parent was pruned in an earlier row may find it
        # again among this row's extensions (a parent pruned in this row
        # cannot come back: its extension cell was masked).
        orphans = np.flatnonzero((kept_parent < 0) & (last[kept] != BLANK_INDEX))
        prefixes = [prefixes[b] for b in kept.tolist()] + extensions
        if orphans.size and extensions:
            found = {seq: num_kept + n for n, seq in enumerate(extensions)}
            for n in orphans.tolist():
                parent[n] = found.get(prefixes[n][:-1], -1)
        p_blank = blank_mass[survivors]
        p_nonblank = label_mass[survivors]
        last = np.concatenate([last[kept], column + 1])

    logprobs = forward_lattice(post, prefixes).finalize().tolist()
    results = [
        ScoredSequence(prefix, lp) for prefix, lp in zip(prefixes, logprobs) if lp > NEG_INF
    ]
    results.sort(key=nbest_sort_key)
    return results


def greedy_decode(post: Posteriorgram) -> LabelSequence:
    """Argmax label per frame, then collapse. Equivalent to beam width 1 on
    peaky posteriorgrams."""
    path = post.rows.argmax(axis=1) if post.num_frames else np.zeros(0, dtype=int)
    return collapse_alignment(path)


def collapse_alignment(path: Iterable[int]) -> LabelSequence:
    """Merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for sym in path:
        sym = int(sym)
        if sym != prev and sym != BLANK_INDEX:
            out.append(sym)
        prev = sym
    return tuple(out)
