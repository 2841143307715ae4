"""CTC forward scoring and prefix beam search over posteriorgrams.

All probability arithmetic is carried out in natural-log space; ``-inf``
represents probability zero. A label sequence is a tuple of alphabet
indices with the blank (index 0) excluded.

The forward algorithm sums over every frame-level alignment that collapses
(merge adjacent repeats, then delete blanks) to the target sequence. One
implementation serves every caller: :class:`ForwardLattice` scores H
sequences at once on a prefix trie, and its one constructor takes that
trie as arrays (:func:`prefix_trie` builds them from label sequences and
checks the labels; the beam search builds them from its prefix table). The
forward cells of positions 0..2u depend only on the first u labels, so
sequences that share a prefix share those cells: the lattice holds one
label cell and one blank cell per distinct non-empty prefix, plus the
start blank, and its memory is independent of the audio length. Rows
enter a lattice only through :meth:`ForwardLattice.advance`, a ``(T, K)``
block logged in one call, and each row advances every cell in one set of
array operations, which apply to each cell the operations, in the order,
that scoring its sequence alone would, so each sequence's result is
bit-identical to scoring it alone. Batch scoring advances over a whole
posteriorgram, the streaming detector over each block of rows. The
one-sequence case is :func:`forward_logprob`, and the one-row case
:meth:`CtcForwardScorer.step`, kept for the tests and perfbench.

The N-best decoder is a prefix beam search: candidate prefixes are merged
by collapsed identity with separate blank / non-blank path masses, and the
top ``beam_width`` prefixes survive each timestep. Its state is one prefix
table, where each prefix the search has kept is a node (its parent node
and last label, with a child map so that a prefix found again gets its old
node), plus arrays over the surviving nodes (blank mass, non-blank mass,
last label and parent node). So each posterior row advances every (beam x
symbol) candidate in one set of array operations, on one (B, K) matrix
whose column 0 is the beam itself and column c its extension by label c,
and the survivor index of a beam's parent is one gather. Tuples are built
only for candidates tied at the pruning cutoff and for the returned
entries. The survivors are rescored with the exact forward algorithm
before they are returned, on one lattice built from their ancestors in the
table, so the reported log probability of every entry is the true sequence
probability even when pruning discarded some of its alignment mass
mid-search. No language model or lexicon is involved. Ties, both at the
pruning cutoff and in the returned list, are ordered shorter sequence
first, then lexicographically by label indices.
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
    as the ``(parent, label, ends)`` arrays that :class:`ForwardLattice` is
    built on. It is the one builder of a trie from label sequences.

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
    labels, and each row that :meth:`advance`, the one way rows enter,
    takes updates each node from its own and its parent's cells with the
    operations, in the order, that the same positions of one sequence alone
    would see (an advance from the parent's blank, a skip from the parent's
    label, then the row). Leaving out a transition that cannot occur is
    adding -inf, and ``logaddexp(x, -inf) == x`` exactly, so every cell, and
    every sequence's score, is bit-identical to scoring the sequence alone.
    A skip that cannot occur reads a trailing sentinel cell that stays
    -inf. ``finalize`` may be called at any time and does not disturb the
    state.

    ``num_lattice_cells`` counts the cells the trie holds: two per node
    plus the start blank, not the sentinel. The lattice keeps no other
    counter: what scoring each sequence alone would cost follows from the
    sequences and the row count (``wakeword.score_segments`` derives it).

    The lattice starts in a start cell: before any row, position 0 holds
    log 1 = 0.0 and the others -inf (``state(h)`` reads so, and ``finalize``
    gives 0.0 for the empty sequence, -inf for the rest). The one recurrence
    then also yields the first row, because ``logaddexp(-inf, 0.0) == 0.0``.

    The one constructor takes the trie as the ``(parent, label, ends)``
    arrays that :func:`prefix_trie` returns, and trusts it: node 0 is the
    root (its own parent, label the blank), every other node n is the
    prefix of node ``parent[n]`` followed by label ``label[n]``, and
    sequence h ends on node ``ends[h]``. Nothing is validated, and the
    arrays are only read.
    """

    def __init__(self, parent: np.ndarray, label: np.ndarray, ends: np.ndarray):
        self._parent, self._ends = parent, ends
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

    def advance(self, rows: np.ndarray) -> ForwardLattice:
        """Advance every cell over each posterior row of the ``(T, K)`` block
        ``rows``, logged and gathered into cell order in one call each, and
        return the lattice."""
        for cell_logs in _log_rows(rows)[:, self._symbols]:
            prev = self._alpha
            alpha = np.empty_like(prev)
            alpha[0] = prev[0]
            alpha[-1] = NEG_INF
            cells = alpha[1:-1]
            np.logaddexp(prev[1:-1], prev[self._advance_from], out=cells)
            np.logaddexp(cells[0::2], prev[self._skip_from], out=cells[0::2])
            alpha[:-1] += cell_logs
            self._alpha = alpha
        return self

    def finalize(self) -> np.ndarray:
        """Log probability of each sequence given the rows seen so far."""
        ends = 2 * self._ends
        # An empty sequence ends on the root, so its cell 2 * 0 - 1 is the
        # -inf sentinel and its score the start blank, exactly.
        return np.logaddexp(self._alpha[ends], self._alpha[ends - 1])


class CtcForwardScorer(ForwardLattice):
    """Incremental forward scorer for one label sequence: a one-sequence
    :class:`ForwardLattice`. Its trie is a chain, so the lattice's cells are
    the sequence's 2U+1 blank-interleaved positions in order; ``state`` and
    ``finalize`` return that sequence's values, and ``step`` checks one row
    of ``num_symbols`` entries and advances the lattice by it."""

    def __init__(self, labels: Iterable[int], num_symbols: int):
        self.labels = tuple(labels)
        self.num_symbols = num_symbols
        super().__init__(*prefix_trie([self.labels], num_symbols))

    def step(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.num_symbols,):
            raise ValueError(
                f"posterior row has {row.shape} entries, scorer expects {self.num_symbols}"
            )
        self.advance(row[None])

    def state(self) -> np.ndarray:
        return super().state(0)

    def finalize(self) -> float:
        return float(super().finalize()[0])


def forward_logprob(post: Posteriorgram, labels: Iterable[int]) -> float:
    """Log probability that the audio's alignment collapses to ``labels``.

    Runs in O(U T) time and O(U) memory. Returns ``-inf`` when no valid
    alignment exists, e.g. when the sequence (with the blanks required
    between repeated labels) is longer than the audio.
    """
    lattice = ForwardLattice(*prefix_trie([labels], post.num_symbols))
    return float(lattice.advance(post.rows).finalize()[0])


def nbest_sort_key(entry: ScoredSequence):
    return (-entry.logprob, len(entry.labels), entry.labels)


def _prefix(parent: list[int], label: list[int], node: int) -> LabelSequence:
    """The label sequence of ``node`` in a prefix table."""
    labels = []
    while node:
        labels.append(label[node])
        node = parent[node]
    return tuple(reversed(labels))


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

    Each posterior row makes one (B, K) matrix of candidates: column 0 of
    row b is beam b itself (blank and stay mass), and column c is beam b
    extended by label c, so candidate k is ``beam, column = divmod(k, K)``.
    Only the empty prefix ends in blank, and its label mass is always
    -inf, so the stay and repeat updates through ``last`` are exact for
    every beam. An extension that already is a surviving beam is folded
    into that beam's label mass and masked out. Every merged mass has at
    most two terms, so the result does not depend on the order of merging.

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
        parent = position[parent_node]  # each beam's parent's survivor index, or -1
        total = np.logaddexp(p_blank, p_nonblank)
        # Emit a blank: the prefix is unchanged and now ends in blank.
        new_blank = total + logrow[BLANK_INDEX]
        # Extend the current run of the final label: unchanged prefix.
        new_nonblank = p_nonblank + logrow[last]
        # Column c appends label c. A repeated label needs a separating blank,
        # so only blank-ending mass can start a new run of it.
        candidates = total[:, None] + logrow
        candidates[np.arange(nodes.size), last] = p_blank + logrow[last]
        # An extension that already is a surviving beam merges into it.
        children = (parent >= 0).nonzero()[0]
        folded = (parent[children], last[children])
        new_nonblank[children] = np.logaddexp(new_nonblank[children], candidates[folded])
        candidates[folded] = NEG_INF
        # Column 0, written last: the beam itself.
        np.logaddexp(new_blank, new_nonblank, out=candidates[:, 0])

        flat = candidates.ravel()
        survivors = (flat > NEG_INF).nonzero()[0]
        if survivors.size > beam_width:
            kth = flat.size - beam_width
            cutoff = np.partition(flat, kth)[kth]
            above = (flat > cutoff).nonzero()[0]
            tied = (flat == cutoff).nonzero()[0].tolist()
            need = beam_width - above.size
            if need < len(tied):
                seqs = {}
                for k in tied:
                    beam, column = divmod(k, num_symbols)
                    seq = _prefix(table_parent, table_label, int(nodes[beam]))
                    seqs[k] = seq + (column,) if column else seq
                tied = sorted(tied, key=lambda k: (len(seqs[k]), seqs[k]))[:need]
            survivors = np.concatenate([above, np.array(tied, dtype=np.intp)])

        # A kept beam (column 0) keeps its node; an extension takes its node
        # in the table, new or found again.
        beam, column = np.divmod(survivors, num_symbols)
        kept = column == 0
        owner = nodes[beam]
        found = []
        for node, y in zip(owner.tolist(), column.tolist()):
            if y:
                key = node * num_symbols + y
                extended = child.get(key)
                if extended is None:
                    extended = child[key] = len(table_parent)
                    table_parent.append(node)
                    table_label.append(y)
                node = extended
            found.append(node)
        position[nodes] = -1  # every entry again, so a larger map starts fresh
        if len(table_parent) >= position.size:
            position = np.full(2 * len(table_parent) + 1, -1, dtype=np.intp)
        nodes = np.array(found, dtype=np.intp)
        position[nodes] = np.arange(nodes.size)
        parent_node = np.where(kept, parent_node[beam], owner)
        p_blank = np.where(kept, new_blank[beam], NEG_INF)
        p_nonblank = np.where(kept, new_nonblank[beam], flat[survivors])
        last = np.where(kept, last[beam], column)

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
    lattice = ForwardLattice(renumber[parents[in_trie]], trie_labels, renumber[nodes])
    logprobs = lattice.advance(post.rows).finalize().tolist()
    results = [
        ScoredSequence(_prefix(table_parent, table_label, node), lp)
        for node, lp in zip(nodes.tolist(), logprobs)
        if lp > NEG_INF
    ]
    results.sort(key=nbest_sort_key)
    return results
