"""Greedy decoding, phone error rate scoring and embedding export."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Utterance
from .ctc import greedy_decode
from .errors import InventoryMismatch, IoFailure
from .heads import compute_embeddings
from .model import AcousticModel, model_forward


def edit_distance(ref, hyp) -> tuple[int, int, int]:
    """Minimal (substitutions, insertions, deletions) aligning hyp to ref.

    Unit costs; ties prefer a substitution over an insertion + deletion.
    """
    ops = align(ref, hyp)
    s = sum(1 for op, _, _ in ops if op == "sub")
    i = sum(1 for op, _, _ in ops if op == "ins")
    d = sum(1 for op, _, _ in ops if op == "del")
    return s, i, d


def align(ref, hyp) -> list[tuple[str, int | None, int | None]]:
    """Levenshtein alignment as (op, ref_pos, hyp_pos) tuples.

    op is one of match/sub/ins/del; ins has ref_pos None, del has hyp_pos
    None.  Backtrace prefers diagonal moves so equal-cost alignments use
    substitutions rather than insertion + deletion pairs.
    """
    ref, hyp = list(ref), list(hyp)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=int)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            op = "match" if ref[i - 1] == hyp[j - 1] else "sub"
            ops.append((op, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
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
    confusions: Counter = field(default_factory=Counter)

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


def evaluate(
    model: AcousticModel,
    utterances: list[Utterance],
    unseen: set[str] = frozenset(),
) -> EvalResult:
    """Greedy-decode every utterance and aggregate phone error counts.

    Errors are split by whether the implicated reference phone was unseen in
    training.  An insertion is attributed to the class of the next reference
    phone in the alignment (or the previous one at the utterance end), so the
    class-wise errors and token counts add back up to the overall PER.
    """
    index = model.unit_index()
    check_covered(index, utterances)
    inv = {i: u for u, i in index.items()}
    result = EvalResult()
    for utt in utterances:
        Z, _ = model_forward(model, utt.frames)
        hyp_units = greedy_decode(Z)
        hyp_phones = [inv[i] for i in hyp_units]

        ops = align(utt.phones, hyp_phones)
        result.ref_len += len(utt.phones)
        for p in utt.phones:
            if p in unseen:
                result.unseen_len += 1
            else:
                result.seen_len += 1

        last_class_unseen = False
        pending_ins = 0
        for op, ri, hj in ops:
            if op == "ins":
                result.insertions += 1
                pending_ins += 1
                continue
            phone = utt.phones[ri]
            is_unseen = phone in unseen
            # flush insertions onto the class of this (following) ref phone
            if is_unseen:
                result.unseen_errors += pending_ins
            else:
                result.seen_errors += pending_ins
            pending_ins = 0
            last_class_unseen = is_unseen
            if op == "sub":
                result.substitutions += 1
                result.confusions[(phone, hyp_phones[hj])] += 1
                err = 1
            elif op == "del":
                result.deletions += 1
                result.confusions[(phone, None)] += 1
                err = 1
            else:
                err = 0
            if is_unseen:
                result.unseen_errors += err
            else:
                result.seen_errors += err
        # trailing insertions: attribute to the last reference class
        if last_class_unseen:
            result.unseen_errors += pending_ins
        else:
            result.seen_errors += pending_ins
    return result


def export_embeddings(head, P: np.ndarray, units, path) -> None:
    """Write one CSV row per unit: symbol followed by its embedding."""
    E = compute_embeddings(head, P)
    if E.shape[0] != len(units):
        raise InventoryMismatch(f"{E.shape[0]} embedding rows for {len(units)} units")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for symbol, row in zip(units, E):
                writer.writerow([symbol, *(repr(float(v)) for v in row)])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
