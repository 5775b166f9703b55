"""Greedy decoding, phone error rate scoring and embedding export.

Scoring aligns each reference with its decoded phones by Levenshtein distance
(Wagner & Fischer, 1974), a whole corpus in one pass.  `align` lays the
(reference, hypothesis) pairs side by side as lanes, last in memory as in the
lattice kernels, and fills their tables together one reference position at a
time: each row is a few NumPy operations on the row above, over every lane.
A cell keeps an int8 decision code taken in the tie order of the cell-by-cell
backtrace (diagonal, then deletion, then insertion), and the backtrace walks
every lane in lockstep, one gather per step.  Lanes are sorted by size and
split into groups whose padded table stays under CELL_BUDGET cells, so one
long utterance does not pad the others to its size.  `charge` counts the
errors, and their seen/unseen split, from the codes with array reductions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import Utterance
from .ctc import greedy_decode
from .errors import InventoryMismatch, io_failure, replace_on_success
from .model import AcousticModel, embeddings, model_forward

# op codes of an Alignment, END marking a lane's start in the backtrace
END, SUB, MATCH, DEL, INS = range(5)
_REF_STEP = np.array([0, 1, 1, 1, 0])  # reference phones each op consumes
_HYP_STEP = np.array([0, 1, 1, 0, 1])  # hypothesis phones each op consumes
# A table cell's int8 decision code has bit 2 set when the diagonal move
# attains the cell's gain, bit 1 when the deletion does and bit 0 when the two
# symbols are equal; the start cell holds 8.  _CELL_OP is the backtrace's op
# for each code: the first move that attains the gain, in the order diagonal,
# deletion, insertion.
_CELL_OP = np.array([INS, INS, DEL, DEL, SUB, MATCH, SUB, MATCH, END], dtype=np.int8)
_DEL_CELL, _START_CELL = 2, 8
CELL_BUDGET = 1 << 18  # cells of one group's padded table, one byte each


@dataclass
class Alignment:
    """The ops of B aligned lanes, flattened.

    Lane b's ops are the entries k with lane[k] == b, contiguous and in
    order.  ops[k] is SUB, MATCH, DEL or INS.  ref_pos[k] is the reference
    phone the op is charged to: its own for SUB, MATCH and DEL, the next one
    for INS (the lane's reference length past the last phone).
    """

    ops: np.ndarray
    ref_pos: np.ndarray
    lane: np.ndarray


def _lane_table(codes, starts, lengths):
    """(max length, lanes) table whose column k holds the lengths[k] codes
    from starts[k] on, padded with -1."""
    offsets = np.cumsum(lengths) - lengths
    col = np.repeat(np.arange(len(lengths)), lengths)
    row = np.arange(len(col)) - offsets[col]
    table = np.full((int(lengths.max()), len(lengths)), -1, dtype=codes.dtype)
    table[row, col] = codes[starts[col] + row]
    return table


def _gain_codes(ref, hyp):
    """The (N + 1, M + 1, lanes) table of decision codes of the lanes' columns
    of ref (N x lanes) and hyp (M x lanes).

    gain[i, j] is i + j minus the edit distance of ref[:i] and hyp[:j]: 2 per
    match, 1 per substitution.  Row i comes from row i - 1: the diagonal and
    deletion moves elementwise, then a running maximum along the row for the
    insertions.  The arithmetic is exact integer, so the rows are the
    cell-by-cell recurrence's.  Cells past a lane's own lengths are never read.
    """
    (N, B), M = ref.shape, len(hyp)
    table = np.zeros((N + 1, M + 1, B), dtype=np.int8)
    table[1:, 0] = _DEL_CELL
    table[0, 0] = _START_CELL
    prev, row = np.zeros((2, M + 1, B), dtype=np.int32)
    for i in range(N):
        equal = (hyp == ref[i]).view(np.int8)
        diag = prev[:-1] + equal
        diag += 1
        np.maximum(diag, prev[1:], out=row[1:])
        np.maximum.accumulate(row, axis=0, out=row)
        code = table[i + 1, 1:]
        np.equal(row[1:], diag, out=code.view(bool))
        code <<= 1
        code += (row[1:] == prev[1:]).view(np.int8)
        code <<= 1
        code += equal
        prev, row = row, prev
    return table


def _backtrace(table, n, m):
    """(steps, lanes) codes met walking every lane back from cell (n, m) in
    lockstep, one gather per step; a lane at its start cell stays there."""
    W, B = table.shape[1:]
    back = (_REF_STEP[_CELL_OP] * W + _HYP_STEP[_CELL_OP]) * B  # how far each code moves in the flat table
    at = (n * W + m) * B + np.arange(B)
    flat = table.ravel()
    codes = np.empty((int((n + m).max()), B), dtype=np.int8)
    for step in codes:
        np.take(flat, at, out=step)
        at -= back[step]
    return codes


def align(refs, hyps) -> Alignment:
    """Levenshtein alignment of each reference in refs with the hypothesis at
    the same place in hyps, all at once.

    Symbols compare by equality.  The tables are the cell-by-cell
    recurrence's (see `_gain_codes`), and the ops follow its backtrace, which
    prefers diagonal moves, then deletions, then insertions, so equal-cost
    alignments use substitutions rather than insertion + deletion pairs.
    """
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references for {len(hyps)} hypotheses")
    n = np.fromiter(map(len, refs), dtype=np.intp, count=len(refs))
    m = np.fromiter(map(len, hyps), dtype=np.intp, count=len(hyps))
    # one code per distinct hypothesis symbol, -1 for a reference symbol in no hypothesis
    symbols = {s: code for code, s in enumerate(dict.fromkeys(chain.from_iterable(hyps)))}
    hyp_codes = np.fromiter(map(symbols.__getitem__, chain.from_iterable(hyps)), dtype=np.int32, count=int(m.sum()))
    ref_codes = np.fromiter(map(symbols.get, chain.from_iterable(refs), repeat(-1)), dtype=np.int32, count=int(n.sum()))
    ref_start, hyp_start = np.cumsum(n) - n, np.cumsum(m) - m

    # groups of lanes in size order, each as many as fit the budget at the
    # running maximum lengths, and at least one
    order = np.argsort(np.maximum(n, m), kind="stable")
    cells = (np.maximum.accumulate(n[order]) + 1) * (np.maximum.accumulate(m[order]) + 1)
    ops, ref_pos, lane = [], [], []
    first = 0
    while first < len(order):
        fits = np.count_nonzero(np.arange(1, len(order) - first + 1) * cells[first:] <= CELL_BUDGET)
        lanes = order[first : first + max(fits, 1)]
        first += len(lanes)
        table = _gain_codes(_lane_table(ref_codes, ref_start[lanes], n[lanes]),
                            _lane_table(hyp_codes, hyp_start[lanes], m[lanes]))
        group_ops = _CELL_OP[_backtrace(table, n[lanes], m[lanes])]
        del table  # before the per-step arrays, to keep the peak low
        # the reference position after each step back is the phone that step is charged to
        group_pos = np.cumsum(_REF_STEP[group_ops], axis=0, dtype=np.int32)
        np.subtract(n[lanes], group_pos, out=group_pos)
        # reversed, each lane's column holds its END padding, then its ops in order
        group_ops, group_pos = group_ops[::-1].T, group_pos[::-1].T
        keep = group_ops != END
        ops.append(group_ops[keep])
        ref_pos.append(group_pos[keep])
        lane.append(np.repeat(lanes, np.count_nonzero(keep, axis=1)))
    if not ops:  # no lanes
        return Alignment(np.empty(0, np.int8), np.empty(0, np.int32), np.empty(0, np.intp))
    return Alignment(np.concatenate(ops), np.concatenate(ref_pos), np.concatenate(lane))


@dataclass
class EvalResult:
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    ref_len: int = 0
    seen_errors: int = 0
    seen_len: int = 0
    unseen_errors: int = 0
    unseen_len: int = 0

    @property
    def per(self) -> float:
        total = self.substitutions + self.insertions + self.deletions
        return total / self.ref_len if self.ref_len else 0.0

    @property
    def seen_per(self) -> float:
        return self.seen_errors / self.seen_len if self.seen_len else 0.0

    @property
    def unseen_per(self) -> float:
        return self.unseen_errors / self.unseen_len if self.unseen_len else 0.0


def check_covered(index: dict[str, int], utterances) -> None:
    """InventoryMismatch naming every phone of the utterances that is not a unit."""
    missing = sorted({p for utt in utterances for p in utt.phones} - index.keys())
    if missing:
        raise InventoryMismatch(f"phones {missing} not covered by the model")


def charge(refs, hyps, unseen: set[str] = frozenset()) -> EvalResult:
    """Errors of each hypothesis against its reference, by the charging rule of
    `evaluate`, counted from one `align` call."""
    alignment = align(refs, hyps)
    ops, lane = alignment.ops, alignment.lane
    n = np.fromiter(map(len, refs), dtype=np.intp, count=len(refs))
    flags = np.fromiter(map(unseen.__contains__, chain.from_iterable(refs)), dtype=bool, count=int(n.sum()))
    # the phone each op is charged to; the slot past the end is the last phone,
    # and a lane with no phones charges nothing as unseen (its index, one before
    # its start, reads a neighbour's flag or the appended False)
    lane_n = n[lane]
    at = (np.cumsum(n) - n)[lane] + np.minimum(alignment.ref_pos, lane_n - 1)
    charged_unseen = np.append(flags, False)[at] & (lane_n > 0)
    counts = np.bincount(ops, minlength=len(_REF_STEP))
    errors = len(ops) - int(counts[MATCH])
    unseen_errors = int(np.count_nonzero(charged_unseen & (ops != MATCH)))
    n_unseen = int(np.count_nonzero(flags))
    return EvalResult(
        substitutions=int(counts[SUB]),
        insertions=int(counts[INS]),
        deletions=int(counts[DEL]),
        ref_len=len(flags),
        seen_errors=errors - unseen_errors,
        seen_len=len(flags) - n_unseen,
        unseen_errors=unseen_errors,
        unseen_len=n_unseen,
    )


def evaluate(
    model: AcousticModel,
    utterances: list[Utterance],
    unseen: set[str] = frozenset(),
) -> EvalResult:
    """Greedy-decode every utterance and aggregate phone error counts.

    Errors are split by whether the reference phone each one is charged to was
    unseen in training.  A substitution or deletion is charged to its own
    reference phone.  An insertion is charged to the next reference phone in
    the alignment; past the last one, to the last one; with an empty
    reference it counts as seen.  Every error is charged exactly once, so the
    class-wise errors and token counts add back up to the overall PER.
    InventoryMismatch if an utterance holds a phone the model lacks, or if an
    unseen phone is not a unit of the model, since no error could be charged
    to it.
    """
    index = model.unit_index()
    check_covered(index, utterances)
    unknown = sorted(set(unseen) - index.keys())
    if unknown:
        raise InventoryMismatch(f"unseen phones {unknown} are not units of the model")
    emb = embeddings(model)
    hyps = []
    for utt in utterances:
        Z = model_forward(model, utt.frames, emb)[0]
        hyps.append([model.units[k] for k in greedy_decode(Z)])
    return charge([utt.phones for utt in utterances], hyps, unseen)


def export_embeddings(model: AcousticModel, path) -> None:
    """Write one CSV row per unit: symbol followed by its embedding."""
    E, _ = embeddings(model)
    if E.shape[0] != model.n_units:
        raise InventoryMismatch(f"{E.shape[0]} embedding rows for {model.n_units} units")
    with io_failure(), replace_on_success(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for symbol, row in zip(model.units, E):
            writer.writerow([symbol, *(repr(float(v)) for v in row)])
