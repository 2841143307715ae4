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
independent of the audio length. Each posterior row is logged once (batch
scoring logs the whole posteriorgram in one call) and advances every cell
in one set of array operations, which apply to each cell the operations,
in the order, that scoring its sequence alone would, so each sequence's
result is bit-identical to scoring it alone (:func:`forward_logprob` and
:class:`CtcForwardScorer` are the one-sequence case). Batch scoring runs
one loop over a posteriorgram's rows; the streaming detector runs the same
loop over each block of rows, and ``step`` feeds one row to the same
advance.

The N-best decoder is a prefix beam search: candidate prefixes are merged
by collapsed identity with separate blank / non-blank path masses, and the
top ``beam_width`` prefixes survive each timestep. Its state is one
prefix table, where each prefix the search has kept is a node (its parent
node and last label, with a child map so that a prefix found again gets
its old node), plus arrays over the surviving nodes (blank mass, non-blank
mass, last label and parent node). So each posterior row advances every
(beam x symbol) candidate in one set of array operations, and the survivor
index of a beam's parent is one gather. Tuples are built only for
candidates tied at the pruning cutoff and for the returned entries. The
survivors are rescored with the exact forward algorithm before they are
returned, on one lattice built from their ancestors in the table, so the
reported log probability of every entry is the true sequence probability
even when pruning discarded some of its alignment mass mid-search. No language model
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


def prefix_trie(
    sequences: Iterable[Iterable[int]], num_symbols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefix trie of label sequences, checked with :func:`validate_labels`,
    as the ``(parent, label, ends)`` arrays of :meth:`ForwardLattice.from_trie`.

    Node 0 is the root, the empty prefix; each new prefix gets the next
    node, in the order the sequences first reach it, through one
    ``(parent, label) -> node`` dict.
    """
    node_of: dict[tuple[int, int], int] = {}
    parent, label, ends = [0], [BLANK_INDEX], []
    for seq in sequences:
        node = 0
        for y in validate_labels(seq, num_symbols):
            child = node_of.get((node, y))
            if child is None:
                child = node_of[node, y] = len(parent)
                parent.append(node)
                label.append(y)
            node = child
        ends.append(node)
    return tuple(np.array(a, dtype=np.intp) for a in (parent, label, ends))


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
    scoring the sequence alone. A skip that cannot occur reads a trailing
    sentinel cell that stays -inf. ``step`` ingests one posterior row;
    ``finalize`` may be called at any time and does not disturb the state.

    ``num_state_cells`` and ``cell_updates`` count the 2U+1 cells of each
    sequence as if it were scored alone; ``num_lattice_cells`` counts the
    cells the trie holds: two per node plus the start blank, not the
    sentinel.

    The lattice starts in a start cell: before any row, position 0 holds
    log 1 = 0.0 and the others -inf (``state(h)`` reads so, and ``finalize``
    gives 0.0 for the empty sequence, -inf for the rest). The one recurrence
    then also yields the first row, because ``logaddexp(-inf, 0.0) == 0.0``.
    """

    def __init__(self, sequences: Iterable[Iterable[int]], num_symbols: int):
        self._init_trie(*prefix_trie(sequences, num_symbols), num_symbols)

    @classmethod
    def from_trie(
        cls, parent: np.ndarray, label: np.ndarray, ends: np.ndarray, num_symbols: int
    ) -> "ForwardLattice":
        """A lattice over a trie that is already built, and trusted: node 0
        is the root (its own parent, label the blank), every other node n
        is one distinct non-empty prefix, the prefix of node ``parent[n]``
        followed by label ``label[n]``, and sequence h ends on node
        ``ends[h]``, as :func:`prefix_trie` returns them. Nothing is
        validated, and the arrays are only read."""
        lattice = cls.__new__(cls)
        lattice._init_trie(parent, label, ends, num_symbols)
        return lattice

    def _init_trie(self, parent: np.ndarray, label: np.ndarray, ends: np.ndarray, num_symbols: int):
        """The shared constructor."""
        # Each node's depth by pointer jumping: depth[n] counts the labels
        # from node up[n] down to node n, and up[n] climbs to the root in
        # about log2(U) rounds.
        depth, up = (np.arange(len(parent)) != 0).astype(np.intp), parent
        while up.any():
            depth, up = depth + depth[up], up[up]
        self.num_symbols = num_symbols
        self._parent, self._label, self._ends = parent, label, ends
        up = parent[1:]
        num_cells = 2 * len(parent) - 1
        # Cell symbols: the start blank, then each node's label and blank.
        self._symbols = np.zeros(num_cells, dtype=np.intp)
        self._symbols[1::2] = label[1:]
        # Entry i is the cell that cell i+1 advances from: a label cell from
        # its parent's blank, a blank cell from the label cell before it.
        self._advance_from = np.arange(num_cells - 1)
        self._advance_from[0::2] = 2 * up
        # Node n's label cell skips from its parent's label cell, or from
        # the -inf sentinel after the cells when the skip cannot occur.
        can_skip = (up != 0) & (label[up] != label[1:])
        self._skip_from = np.where(can_skip, 2 * up - 1, num_cells)
        self._alpha = np.full(num_cells + 1, NEG_INF)
        self._alpha[0] = 0.0  # the start cell
        self.num_lattice_cells = num_cells
        self.num_state_cells = 2 * int(depth[ends].sum()) + len(ends)
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
        self._advance(_log_rows(row)[self._symbols])

    def _advance(self, cell_logs: np.ndarray) -> None:
        """Advance every cell by one row, given the row's log probability of
        each cell's symbol."""
        prev = self._alpha
        alpha = np.empty_like(prev)
        alpha[0] = prev[0]
        alpha[-1] = NEG_INF
        cells = alpha[1:-1]
        np.logaddexp(prev[1:-1], prev[self._advance_from], out=cells)
        np.logaddexp(cells[0::2], prev[self._skip_from], out=cells[0::2])
        alpha[:-1] += cell_logs
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
        self.labels = validate_labels(labels, num_symbols)
        super().__init__([self.labels], num_symbols)

    def state(self) -> np.ndarray:
        return super().state(0)

    def finalize(self) -> float:
        return float(super().finalize()[0])


def _advanced(lattice: ForwardLattice, rows: np.ndarray) -> ForwardLattice:
    """``lattice`` advanced over every posterior row of the ``(T, K)``
    array ``rows``, each row logged once: batch scoring on a whole
    posteriorgram, the streaming detector on a block of rows."""
    for logs in _log_rows(rows):
        lattice._advance(logs[lattice._symbols])
    return lattice


def forward_lattice(post: Posteriorgram, sequences: Iterable[Iterable[int]]) -> ForwardLattice:
    """A :class:`ForwardLattice` of ``sequences`` advanced over every row of ``post``."""
    return _advanced(ForwardLattice(sequences, post.num_symbols), post.rows)


def forward_logprob(post: Posteriorgram, labels: Iterable[int]) -> float:
    """Log probability that the audio's alignment collapses to ``labels``.

    Runs in O(U T) time and O(U) memory. Returns ``-inf`` when no valid
    alignment exists, e.g. when the sequence (with the blanks required
    between repeated labels) is longer than the audio.
    """
    return float(forward_lattice(post, [labels]).finalize()[0])


def nbest_sort_key(entry: ScoredSequence):
    return (-entry.logprob, len(entry.labels), entry.labels)


def _prefix(parent: list[int], label: list[int], node: int) -> LabelSequence:
    """The label sequence of ``node`` in a prefix table."""
    labels = []
    while node:
        labels.append(label[node])
        node = parent[node]
    return tuple(reversed(labels))


def _candidate(
    parent: list[int], label: list[int], nodes: np.ndarray, k: int, num_labels: int
) -> LabelSequence:
    """Candidate ``k`` of a beam-search row over the survivors ``nodes``:
    beam k for k < B, otherwise the extension of beam (k - B) // (K-1) by
    label (k - B) % (K-1) + 1."""
    num_beams = nodes.size
    if k < num_beams:
        return _prefix(parent, label, int(nodes[k]))
    beam, column = divmod(k - num_beams, num_labels)
    return _prefix(parent, label, int(nodes[beam])) + (column + 1,)


def beam_search(post: Posteriorgram, beam_width: int) -> list[ScoredSequence]:
    """N-best label sequences by CTC prefix beam search.

    Every prefix the search has kept is one node of a prefix table: its
    parent node (the prefix one label shorter; node 0, the empty prefix,
    is its own parent) and its last label, with a child map so that a
    prefix found again gets its old node. The search state is the B
    surviving nodes plus arrays over them: the log mass of the paths
    ending in blank and of those ending in a label, the last label (the
    blank index for the empty prefix) and the parent node (-1 for the empty
    prefix). ``position`` maps each node to its survivor index, -1 when it
    is not a survivor, so the survivor index of each beam's parent is one
    gather, also for a parent that was pruned and later found again.

    Each posterior row makes one blank/stay update of the B beams and one
    (B, K-1) matrix of extensions. An extension that already is a surviving
    beam is folded into that beam's non-blank mass and masked out of the
    matrix. Every merged mass has at most two terms, so the result does not
    depend on the order of merging.

    The ``beam_width`` candidates with the largest total mass survive each
    row, chosen with ``np.partition``. Only candidates that tie exactly at
    the cutoff are ordered by the tie rule, shorter prefix first, then
    lexicographically by label indices, and only they and the returned
    entries are built as tuples.

    Returns at most ``beam_width`` entries sorted by descending log
    probability; each entry's log probability is its exact forward score
    on the same posteriorgram, from one lattice over the survivors'
    ancestors in the prefix table (bit-identical to :func:`forward_logprob`).
    """
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    num_symbols = post.num_symbols
    num_labels = num_symbols - 1
    table_parent, table_label = [0], [BLANK_INDEX]
    child: dict[int, int] = {}  # parent node * K + label -> node
    # Survivor index of each node; the extra last entry stays -1, so the
    # empty prefix's parent node, -1, has no survivor index either.
    position = np.array([0, -1], dtype=np.intp)
    nodes = np.zeros(1, dtype=np.intp)
    parent_node = np.full(1, -1, dtype=np.intp)
    p_blank = np.zeros(1)
    p_nonblank = np.full(1, NEG_INF)
    last = np.full(1, BLANK_INDEX, dtype=np.intp)
    # math.log per entry: np.log on an array may round some entries differently.
    logrows = [[math.log(p) if p > 0.0 else NEG_INF for p in row] for row in post.rows.tolist()]
    for logrow in np.array(logrows).reshape(post.rows.shape):
        num_beams = nodes.size
        parent = position[parent_node]  # each beam's parent's survivor index, or -1
        total = np.logaddexp(p_blank, p_nonblank)
        runs = (last != BLANK_INDEX).nonzero()[0]
        run_label = last[runs]
        # Emit a blank: the prefix is unchanged and now ends in blank.
        new_blank = total + logrow[BLANK_INDEX]
        # Extend the current run of the final label: unchanged prefix.
        new_nonblank = np.full(num_beams, NEG_INF)
        new_nonblank[runs] = p_nonblank[runs] + logrow[run_label]
        # Candidates: the B beams, then the (B, K-1) extension cells row by
        # row. Append label c (column c - 1). A repeated label needs a
        # separating blank, so only blank-ending mass can start a new run of it.
        candidates = np.empty(num_beams * num_symbols)
        extend = candidates[num_beams:].reshape(num_beams, num_labels)
        np.add(total[:, None], logrow[1:], out=extend)
        extend[runs, run_label - 1] = p_blank[runs] + logrow[run_label]
        # An extension that already is a surviving beam merges into it.
        children = (parent >= 0).nonzero()[0]
        folded = (parent[children], last[children] - 1)
        new_nonblank[children] = np.logaddexp(new_nonblank[children], extend[folded])
        extend[folded] = NEG_INF

        # Only a beam has blank mass; an extension's total is its label mass,
        # as logaddexp(-inf, x) == x exactly.
        np.logaddexp(new_blank, new_nonblank, out=candidates[:num_beams])
        survivors = (candidates > NEG_INF).nonzero()[0]
        if survivors.size > beam_width:
            kth = candidates.size - beam_width
            cutoff = np.partition(candidates, kth)[kth]
            above = (candidates > cutoff).nonzero()[0]
            tied = (candidates == cutoff).nonzero()[0].tolist()
            need = beam_width - above.size
            if need < len(tied):
                seqs = {
                    k: _candidate(table_parent, table_label, nodes, k, num_labels) for k in tied
                }
                tied = sorted(tied, key=lambda k: (len(seqs[k]), seqs[k]))[:need]
            survivors = np.concatenate([above, np.array(tied, dtype=np.intp)])

        # Survivors in candidate order: kept beams first, then extensions.
        survivors.sort()
        num_kept = int(np.searchsorted(survivors, num_beams))
        kept = survivors[:num_kept]
        owner, column = np.divmod(survivors[num_kept:] - num_beams, num_labels)
        owner_node, ext_label = nodes[owner], column + 1
        extended = []
        for node, y in zip(owner_node.tolist(), ext_label.tolist()):
            key = node * num_symbols + y
            found = child.get(key)
            if found is None:
                found = child[key] = len(table_parent)
                table_parent.append(node)
                table_label.append(y)
            extended.append(found)
        position[nodes] = -1
        if len(table_parent) >= position.size:
            grown = np.full(2 * len(table_parent) + 1, -1, dtype=np.intp)
            grown[: position.size - 1] = position[:-1]
            position = grown
        parent_node = np.concatenate([parent_node[kept], owner_node])
        nodes = np.concatenate([nodes[kept], np.array(extended, dtype=np.intp)])
        position[nodes] = np.arange(nodes.size)
        p_blank = np.concatenate([new_blank[kept], np.full(owner.size, NEG_INF)])
        p_nonblank = candidates[survivors]
        p_nonblank[:num_kept] = new_nonblank[kept]
        last = np.concatenate([last[kept], ext_label])

    # The rescoring trie: the survivors and their ancestors in the table,
    # renumbered in table order; the root stays node 0.
    parents = np.array(table_parent, dtype=np.intp)
    in_trie = np.zeros(parents.size, dtype=bool)
    in_trie[0] = True
    frontier = nodes
    while frontier.size:
        in_trie[frontier] = True
        frontier = parents[frontier]
        frontier = frontier[~in_trie[frontier]]
    renumber = np.cumsum(in_trie) - 1
    trie_labels = np.array(table_label, dtype=np.intp)[in_trie]
    lattice = ForwardLattice.from_trie(
        renumber[parents[in_trie]], trie_labels, renumber[nodes], num_symbols
    )
    logprobs = _advanced(lattice, post.rows).finalize().tolist()
    results = [
        ScoredSequence(_prefix(table_parent, table_label, node), lp)
        for node, lp in zip(nodes.tolist(), logprobs)
        if lp > NEG_INF
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
