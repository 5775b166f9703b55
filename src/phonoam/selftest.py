"""Built-in verification: brute-force oracles and gradient checks.

Kept inside the package so `phonoam selftest` works on an installed copy
without the test suite.
"""

from __future__ import annotations

import itertools

import numpy as np

from .crf import build_denominator_graph, crf_loss, denominator_forward_backward
from .ctc import collapse, ctc_loss
from .heads import log_posteriors, posteriors
from .lm import PhoneLM, train_phone_lm


def brute_force_ctc(Z: np.ndarray, labels) -> float:
    """log p(l|x) by explicit enumeration of all N^T frame paths."""
    y = posteriors(Z)
    T, N = Z.shape
    target = list(labels)
    total = 0.0
    for path in itertools.product(range(N), repeat=T):
        if collapse(path) == target:
            p = 1.0
            for t, s in enumerate(path):
                p *= y[t, s]
            total += p
    return float(np.log(total))


def brute_force_crf_denominator(Z: np.ndarray, lm: PhoneLM | None) -> float:
    """log sum over ALL paths of p(B(path)) * prod_t y[t, path_t]."""
    y = posteriors(Z)
    T, N = Z.shape
    total = 0.0
    for path in itertools.product(range(N), repeat=T):
        p = 1.0
        for t, s in enumerate(path):
            p *= y[t, s]
        if lm is not None:
            p *= float(np.exp(lm.score(collapse(path))))
        total += p
    return float(np.log(total))


def finite_difference(f, Z: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    fd = np.zeros_like(Z)
    for idx in np.ndindex(*Z.shape):
        zp = Z.copy()
        zp[idx] += eps
        zm = Z.copy()
        zm[idx] -= eps
        fd[idx] = (f(zp) - f(zm)) / (2 * eps)
    return fd


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Largest elementwise relative difference.

    The floor keeps central-difference truncation noise (absolute size around
    1e-9 at eps=1e-6) from dominating entries whose true value is near zero.
    """
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _random_instance(rng, t_max=4, n_max=4, l_max=2):
    T = int(rng.integers(1, t_max + 1))
    N = int(rng.integers(2, n_max + 1))
    # resample length and labels until feasible (repeats need a blank frame)
    while True:
        L = int(rng.integers(1, min(l_max, T) + 1))
        labels = [int(rng.integers(1, N)) for _ in range(L)]
        if L + sum(1 for a, b in zip(labels, labels[1:]) if a == b) <= T:
            break
    Z = rng.normal(0.0, 2.0, size=(T, N))
    return Z, labels


def run_selftest(seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")

    # CTC against brute force + finite differences
    worst_val, worst_grad = 0.0, 0.0
    for _ in range(25):
        Z, labels = _random_instance(rng)
        res = ctc_loss(Z, labels)
        worst_val = max(worst_val, abs(res.nll + brute_force_ctc(Z, labels)))
        fd = finite_difference(lambda z: ctc_loss(z, labels).nll, Z)
        worst_grad = max(worst_grad, max_rel_err(fd, res.dZ))
    report("ctc value vs brute force", worst_val < 1e-9, f"max |d|={worst_val:.2e}")
    report("ctc gradient vs finite differences", worst_grad < 1e-4, f"max rel={worst_grad:.2e}")

    # CTC-CRF reduction to CTC with no LM
    worst = 0.0
    for _ in range(10):
        Z, labels = _random_instance(rng)
        a = ctc_loss(Z, labels)
        b = crf_loss(Z, labels, lm=None)
        worst = max(worst, abs(a.nll - b.nll), float(np.max(np.abs(a.dZ - b.dZ))))
    report("ctc-crf reduces to ctc without label LM", worst < 1e-8, f"max |d|={worst:.2e}")

    # CTC-CRF denominator vs brute force + gradient check, bigram LM
    worst_val, worst_grad = 0.0, 0.0
    for _ in range(10):
        Z, labels = _random_instance(rng, t_max=3, n_max=3)
        corpus = [[int(rng.integers(1, Z.shape[1]))] for _ in range(5)] + [labels]
        lm = train_phone_lm(corpus, order=2, smoothing=1.0, vocab=range(1, Z.shape[1]))
        graph = build_denominator_graph(Z.shape[1], lm)
        logden, _ = denominator_forward_backward(graph, log_posteriors(Z))
        worst_val = max(worst_val, abs(logden - brute_force_crf_denominator(Z, lm)))
        fd = finite_difference(lambda z: crf_loss(z, labels, lm).nll, Z)
        worst_grad = max(worst_grad, max_rel_err(fd, crf_loss(Z, labels, lm).dZ, floor=1e-8))
    report("ctc-crf denominator vs brute force", worst_val < 1e-9, f"max |d|={worst_val:.2e}")
    report("ctc-crf gradient vs finite differences", worst_grad < 1e-4, f"max rel={worst_grad:.2e}")

    # add-0 bigram LM: unseen transitions weigh -inf, so the transition matrix holds zeros
    errs = []
    for _ in range(10):
        Z, labels = _random_instance(rng, t_max=3, n_max=3)
        corpus = [labels, [int(rng.integers(1, Z.shape[1]))]]
        lm = train_phone_lm(corpus, order=2, smoothing=0.0, vocab=range(1, Z.shape[1]))
        logden, _ = denominator_forward_backward(build_denominator_graph(Z.shape[1], lm), log_posteriors(Z))
        errs.append(abs(logden - brute_force_crf_denominator(Z, lm)))
    worst = float(np.max(errs))  # NaN propagates and fails the check
    report("ctc-crf denominator vs brute force, add-0 bigram LM", worst < 1e-9, f"max |d|={worst:.2e}")

    return ok
