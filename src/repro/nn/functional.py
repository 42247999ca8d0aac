"""Numerically stable functional operations used by the models.

These mirror the subset of ``torch.nn.functional`` that the Duet paper's
models rely on: softmax / log-softmax, cross-entropy with integer targets,
the Gumbel-Softmax relaxation used by the UAE baseline, and the Q-Error
losses used for hybrid training.

Two losses work on a column-blocked MADE output as a whole and are single
autograd nodes with hand-written backwards: :func:`block_cross_entropy`
(Algorithm 1's per-column likelihood, summed over columns) and
:func:`block_masked_mass` (Algorithm 3's zero-out, the differentiable
selectivity of hybrid training).  Both run every block at once as
``reduceat`` segments, so their cost does not grow with the column count in
Python calls or graph nodes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .inference import _interval_mask
from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "block_cross_entropy",
    "block_masked_mass",
    "mse_loss",
    "binary_cross_entropy",
    "gumbel_softmax",
    "qerror",
    "mapped_qerror_loss",
]


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` computed in a numerically stable way.

    The max subtraction uses a detached constant; subtracting a constant does
    not change the softmax, so gradients remain exact.
    """
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood for integer class targets.

    ``log_probs`` has shape ``(batch, num_classes)`` and ``targets`` holds an
    integer class index per row.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = np.arange(log_probs.shape[0])
    picked = log_probs[batch, targets]
    loss = -picked
    return _reduce(loss, reduction)


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between raw ``logits`` and integer class ``targets``."""
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction=reduction)


def _gather_blocks(data: np.ndarray, blocks: Sequence[tuple[int, int]]):
    """Lay the ``(start, end)`` column blocks of ``data`` side by side.

    Returns ``(gathered, widths, segments, columns)``: ``segments`` are the
    blocks' first columns in ``gathered`` (the ``reduceat`` offsets) and
    ``columns`` maps gathered columns back to ``data``'s — ``None`` when the
    blocks tile ``data`` in order and ``gathered`` is ``data`` itself.
    Blocks must be non-empty and must not overlap.
    """
    starts = np.array([start for start, _ in blocks], dtype=np.intp)
    widths = np.array([end for _, end in blocks], dtype=np.intp) - starts
    if (widths <= 0).any():
        raise ValueError("column blocks must be non-empty")
    segments = np.zeros(len(blocks), dtype=np.intp)
    np.cumsum(widths[:-1], out=segments[1:])
    if np.array_equal(starts, segments) and widths.sum() == data.shape[1]:
        return data, widths, segments, None
    columns = np.concatenate([np.arange(start, start + width)
                              for start, width in zip(starts, widths)])
    return data[:, columns], widths, segments, columns


def _scatter_blocks(grad: np.ndarray, shape: tuple[int, ...],
                    columns: np.ndarray | None) -> np.ndarray:
    """Inverse of :func:`_gather_blocks` for a gradient: place it in ``shape``."""
    if columns is None:
        return grad
    full = np.zeros(shape)
    full[:, columns] = grad  # blocks do not overlap: plain assignment
    return full


def block_cross_entropy(logits: Tensor, blocks: Sequence[tuple[int, int]],
                        targets: np.ndarray) -> Tensor:
    """Sum over column blocks of the batch-mean cross-entropy, as one node.

    ``logits`` is ``(batch, width)``; ``blocks[i] = (start, end)`` is column
    ``i``'s logit slice and ``targets[:, i]`` its integer class within the
    block.  The value equals ``sum_i cross_entropy(logits[:, start_i:end_i],
    targets[:, i])``; per-block max, ``exp``, sum and the picked logit run as
    ``reduceat`` segments, and the backward is ``(softmax - onehot) * g /
    batch`` written straight into the logits' gradient.
    """
    targets = np.asarray(targets, dtype=np.intp)
    gathered, widths, segments, columns = _gather_blocks(logits.data, blocks)
    if targets.shape != (gathered.shape[0], len(widths)):
        raise ValueError(f"expected targets of shape {(gathered.shape[0], len(widths))}, "
                         f"got {targets.shape}")
    if targets.size and (targets.min() < 0 or (targets >= widths).any()):
        raise IndexError("target outside its column block")
    batch = gathered.shape[0]
    maxima = np.maximum.reduceat(gathered, segments, axis=1)
    shifted = gathered - np.repeat(maxima, widths, axis=1)
    exp = np.exp(shifted)
    sums = np.add.reduceat(exp, segments, axis=1)
    rows = np.arange(batch)[:, None]
    picked = segments + targets  # gathered column of each row's target
    losses = np.log(sums) - shifted[rows, picked]
    value = losses.mean(axis=0).sum()

    def backward(grad: np.ndarray) -> None:
        dlogits = exp / np.repeat(sums, widths, axis=1)
        dlogits[rows, picked] -= 1.0
        dlogits *= grad / batch
        logits._accumulate(_scatter_blocks(dlogits, logits.shape, columns), owned=True)

    return logits._make(np.asarray(value), (logits,), backward)


def block_masked_mass(logits: Tensor, blocks: Sequence[tuple[int, int]],
                      intervals: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Product over constrained blocks of the masked softmax mass, as one node.

    Algorithm 3's zero-out, differentiable: ``intervals = (low, high)`` are
    each row's inclusive valid code interval per column, ``(batch,
    num_columns)`` arrays; a column whose every row spans its whole block
    has a factor of exactly 1 and is skipped.  Each factor is ``sum(exp(l -
    max) * mask) / sum(exp(l - max))`` over the block, with the 0/1 mask and
    the gathered-segment layout of :func:`repro.nn.inference.masked_block_mass`.
    The backward is ``p * (mask - factor)`` times the product of the *other*
    factors, taken from left and right running products: never a division
    by a factor, which is exactly 0 for an empty interval.  Returns a
    ``(batch,)`` tensor.
    """
    batch = logits.shape[0]
    constrained, mask = _interval_mask(blocks, intervals)
    if mask is None:
        return Tensor(np.ones(batch))
    gathered, widths, segments, columns = _gather_blocks(logits.data, constrained)
    maxima = np.maximum.reduceat(gathered, segments, axis=1)
    exp = np.exp(gathered - np.repeat(maxima, widths, axis=1))
    denominator = np.add.reduceat(exp, segments, axis=1)
    factors = np.add.reduceat(exp * mask, segments, axis=1) / denominator
    value = factors.prod(axis=1)

    def backward(grad: np.ndarray) -> None:
        others = np.ones_like(factors)
        np.cumprod(factors[:, :-1], axis=1, out=others[:, 1:])
        others[:, :-1] *= np.cumprod(factors[:, :0:-1], axis=1)[:, ::-1]
        others *= grad[:, None]
        dlogits = exp / np.repeat(denominator, widths, axis=1)
        dlogits *= mask - np.repeat(factors, widths, axis=1)
        dlogits *= np.repeat(others, widths, axis=1)
        logits._accumulate(_scatter_blocks(dlogits, logits.shape, columns), owned=True)

    return logits._make(value, (logits,), backward)


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = Tensor.ensure(target)
    diff = prediction - target
    return _reduce(diff * diff, reduction)


def binary_cross_entropy(probabilities: Tensor, target: Tensor | np.ndarray,
                         epsilon: float = 1e-12, reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)``."""
    target = Tensor.ensure(target)
    clipped = probabilities.clip(epsilon, 1.0 - epsilon)
    loss = -(target * clipped.log() + (1.0 - target) * (1.0 - clipped).log())
    return _reduce(loss, reduction)


def gumbel_softmax(logits: Tensor, temperature: float = 1.0,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Differentiable sample from a categorical distribution (UAE baseline).

    This is the Gumbel-Softmax trick: perturb the logits with Gumbel noise
    and apply a temperature-scaled softmax.  Gradients flow through the
    softmax, which is what lets UAE backpropagate through its progressive
    sampling.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    rng = rng or np.random.default_rng()
    uniform = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=logits.shape)
    gumbel_noise = Tensor(-np.log(-np.log(uniform)))
    return softmax((logits + gumbel_noise) / temperature, axis=-1)


def qerror(estimate: Tensor, actual: Tensor | np.ndarray, floor: float = 1.0) -> Tensor:
    """Differentiable Q-Error ``max(est, act) / min(est, act)``.

    Both estimate and actual are clamped below by ``floor`` (one tuple), the
    convention used by the paper and by UAE, so that empty results do not
    produce infinite errors.
    """
    actual = Tensor.ensure(actual)
    est = estimate.clip(minimum=floor)
    act = actual.clip(minimum=floor)
    ratio = est / act
    inverse = act / est
    # max(a, b) == a * 1[a >= b] + b * 1[a < b]; the indicator is a constant
    # w.r.t. the gradient so it is computed on detached data.
    indicator = Tensor((ratio.data >= inverse.data).astype(np.float64))
    return ratio * indicator + inverse * (1.0 - indicator)


def mapped_qerror_loss(estimate: Tensor, actual: Tensor | np.ndarray,
                       floor: float = 1.0) -> Tensor:
    """The paper's hybrid-training query loss ``log2(QError + 1)``.

    Mapping through ``log2(x + 1)`` keeps ``L_query`` on the same order of
    magnitude as ``L_data`` and prevents gradient explosions early in
    training (Figure 3 of the paper).
    """
    q = qerror(estimate, actual, floor=floor)
    return (q + 1.0).log() / float(np.log(2.0))


def _reduce(values: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return values.mean()
    if reduction == "sum":
        return values.sum()
    if reduction == "none":
        return values
    raise ValueError(f"unknown reduction: {reduction!r}")
