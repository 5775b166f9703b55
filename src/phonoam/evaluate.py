"""Greedy decoding, phone error rate scoring and embedding export.

Scoring aligns each reference with its decoded phones by Levenshtein distance
(Wagner & Fischer, 1974).  `align` fills the table one reference phone at a
time, each row a few NumPy operations on the row above, and backtraces with
the same tie order as the cell-by-cell recurrence: diagonal, then deletion,
then insertion.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .corpus import Utterance
from .ctc import greedy_decode
from .errors import InventoryMismatch, io_failure
from .model import AcousticModel, embeddings, model_forward


def align(ref, hyp) -> list[tuple[str, int | None, int | None]]:
    """Levenshtein alignment as (op, ref_pos, hyp_pos) tuples.

    op is one of match/sub/ins/del; ins has ref_pos None, del has hyp_pos
    None.  gain[i][j] is i + j minus the edit distance of ref[:i] and
    hyp[:j]: what aligning them saves against deleting all i phones and
    inserting all j, 2 per match and 1 per substitution.  Row i comes from row
    i - 1 in a few NumPy operations: the diagonal and deletion moves
    elementwise, then a running maximum along the row for the insertions.  The
    arithmetic is exact integer, so the table is the cell-by-cell recurrence's.
    The backtrace prefers diagonal moves, then deletions, then insertions, so
    equal-cost alignments use substitutions rather than insertion + deletion
    pairs.
    """
    ref, hyp = list(ref), list(hyp)
    n, m = len(ref), len(hyp)
    last = {s: k for k, s in enumerate(hyp)}  # one code per distinct hyp symbol
    save = 2 - np.not_equal.outer([last.get(s, -1) for s in ref], [last[s] for s in hyp])
    gain = np.zeros((n + 1, m + 1), dtype=int)
    for prev, row, row_save in zip(gain, gain[1:], save):
        np.maximum(prev[:-1] + row_save, prev[1:], out=row[1:])
        np.maximum.accumulate(row, out=row)
    gain = gain.tolist()

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and gain[i][j] == gain[i - 1][j - 1] + 2 - (ref[i - 1] != hyp[j - 1]):
            op = "match" if ref[i - 1] == hyp[j - 1] else "sub"
            ops.append((op, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and gain[i][j] == gain[i - 1][j]:
            ops.append(("del", i - 1, None))
            i -= 1
        else:
            ops.append(("ins", None, j - 1))
            j -= 1
    ops.reverse()
    return ops


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


def charge(result: EvalResult, units, Z: np.ndarray, ref, unseen: set[str] = frozenset()) -> None:
    """Greedy-decode one utterance's logits Z and add its errors against the
    reference phones to result, by the charging rule of `evaluate`."""
    hyp = [units[i] for i in greedy_decode(Z)]
    # one flag per reference phone, then one for the slot past the end
    charged_unseen = [p in unseen for p in ref]
    n_unseen = sum(charged_unseen)
    charged_unseen.append(charged_unseen[-1] if ref else False)
    errors = unseen_errors = 0
    next_ri = 0  # the reference phone an insertion here is charged to
    for op, ri, _ in align(ref, hyp):
        if op == "ins":
            result.insertions += 1
            errors += 1
            unseen_errors += charged_unseen[next_ri]
            continue
        next_ri = ri + 1
        if op == "match":
            continue
        if op == "sub":
            result.substitutions += 1
        else:
            result.deletions += 1
        errors += 1
        unseen_errors += charged_unseen[ri]
    result.ref_len += len(ref)
    result.unseen_len += n_unseen
    result.seen_len += len(ref) - n_unseen
    result.unseen_errors += unseen_errors
    result.seen_errors += errors - unseen_errors


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
    """
    check_covered(model.unit_index(), utterances)
    emb = embeddings(model)
    result = EvalResult()
    for utt in utterances:
        Z, _ = model_forward(model, utt.frames, emb)
        charge(result, model.units, Z, utt.phones, unseen)
    return result


def export_embeddings(model: AcousticModel, path) -> None:
    """Write one CSV row per unit: symbol followed by its embedding."""
    E, _ = embeddings(model)
    if E.shape[0] != model.n_units:
        raise InventoryMismatch(f"{E.shape[0]} embedding rows for {model.n_units} units")
    with io_failure(), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for symbol, row in zip(model.units, E):
            writer.writerow([symbol, *(repr(float(v)) for v in row)])
