"""Reference compositions of the column-blocked losses.

The test oracle for :func:`repro.nn.functional.block_cross_entropy`,
:func:`repro.nn.functional.block_masked_mass` and
:func:`repro.nn.inference.masked_block_mass`:

* one graph per column, built from the generic tape operators (slice,
  ``log_softmax``/``softmax``, ``nll_loss``, products) exactly as the
  training loop composed them before the fused nodes existed;
* the zero-out over dense per-column ``(batch, NDV)`` masks (``None`` for a
  column no row constrains), with :func:`dense_masks` expanding code
  intervals into them — both as that per-column graph and as the fused
  dense-mask node (:func:`fused_dense_masked_mass`), whose arithmetic the
  interval kernels must reproduce bit for bit.
"""

import numpy as np

from repro.nn import Tensor
from repro.nn import functional as F


def block_cross_entropy(logits, blocks, targets):
    """``sum_i cross_entropy(logits[:, start_i:end_i], targets[:, i])``."""
    targets = np.asarray(targets)
    loss = None
    for column_index, (start, end) in enumerate(blocks):
        log_probs = F.log_softmax(logits[:, start:end], axis=-1)
        column_loss = F.nll_loss(log_probs, targets[:, column_index])
        loss = column_loss if loss is None else loss + column_loss
    return loss


def random_intervals(rng, batch, blocks, unconstrained_share=0.3):
    """``(low, high)`` code intervals over ``blocks``.

    A column is left unconstrained with probability ``unconstrained_share``;
    in the others each row draws its interval from the edge cases of the
    zero-out: the full block (a row unconstrained in a column other rows
    constrain), empty (``low > high``), a single code, all codes but the
    first or the last, and an arbitrary sub-interval.
    """
    widths = [end - start for start, end in blocks]
    low = np.zeros((batch, len(blocks)), dtype=np.int64)
    high = np.array([widths] * batch, dtype=np.int64) - 1
    for column, width in enumerate(widths):
        if rng.uniform() < unconstrained_share:
            continue
        for row in range(batch):
            kind = rng.integers(6)  # 0 keeps the full block
            if kind == 1:
                low[row, column] = rng.integers(0, width + 1)
                high[row, column] = low[row, column] - 1 - rng.integers(0, 2)
            elif kind == 2:
                low[row, column] = high[row, column] = rng.integers(0, width)
            elif kind == 3:
                low[row, column] = 1
            elif kind == 4:
                high[row, column] = width - 2
            elif kind == 5:
                low[row, column], high[row, column] = np.sort(
                    rng.integers(0, width, size=2))
    return low, high


def dense_masks(blocks, intervals):
    """``(low, high)`` code intervals -> one dense 0/1 mask per column, or
    ``None`` for a column whose every row spans its whole block."""
    low, high = intervals
    masks = []
    for column, (start, end) in enumerate(blocks):
        codes = np.arange(end - start)
        if np.all((low[:, column] == 0) & (high[:, column] == codes[-1])):
            masks.append(None)
            continue
        masks.append(((codes >= low[:, column, None])
                      & (codes <= high[:, column, None])).astype(np.float64))
    return masks


def block_masked_mass(logits, blocks, masks):
    """``prod_i sum(softmax(block_i) * mask_i)`` over the non-``None`` masks."""
    selectivity = None
    for (start, end), mask in zip(blocks, masks):
        if mask is None:
            continue
        distribution = F.softmax(logits[:, start:end], axis=-1)
        factor = (distribution * Tensor(np.asarray(mask, dtype=np.float64))).sum(axis=-1)
        selectivity = factor if selectivity is None else selectivity * factor
    if selectivity is None:
        return Tensor(np.ones(logits.shape[0]))
    return selectivity


def _dense_factors(data, blocks, masks):
    constrained = [(block, mask) for block, mask in zip(blocks, masks)
                   if mask is not None]
    widths = np.array([end - start for (start, end), _ in constrained])
    segments = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.intp)
    columns = np.concatenate([np.arange(start, end) for (start, end), _ in constrained])
    gathered = data[:, columns]
    maxima = np.maximum.reduceat(gathered, segments, axis=1)
    exp = np.exp(gathered - np.repeat(maxima, widths, axis=1))
    denominator = np.add.reduceat(exp, segments, axis=1)
    mask = np.concatenate([np.asarray(mask, dtype=exp.dtype)
                           for _, mask in constrained], axis=1)
    factors = np.add.reduceat(exp * mask, segments, axis=1) / denominator
    return columns, widths, exp, denominator, mask, factors


def dense_block_mass(logits, blocks, masks):
    """The fused zero-out over dense masks on a plain array, in its dtype."""
    if all(mask is None for mask in masks):
        return np.ones(logits.shape[0], dtype=logits.dtype)
    return _dense_factors(logits, blocks, masks)[-1].prod(axis=1)


def fused_dense_masked_mass(logits, blocks, masks):
    """The fused zero-out node over dense masks: one ``reduceat`` pass
    forward, ``p * (mask - factor)`` times the other factors' left/right
    running products backward."""
    if all(mask is None for mask in masks):
        return Tensor(np.ones(logits.shape[0]))
    columns, widths, exp, denominator, mask, factors = _dense_factors(
        logits.data, blocks, masks)

    def backward(grad):
        others = np.ones_like(factors)
        np.cumprod(factors[:, :-1], axis=1, out=others[:, 1:])
        others[:, :-1] *= np.cumprod(factors[:, :0:-1], axis=1)[:, ::-1]
        others *= grad[:, None]
        dlogits = exp / np.repeat(denominator, widths, axis=1)
        dlogits *= mask - np.repeat(factors, widths, axis=1)
        dlogits *= np.repeat(others, widths, axis=1)
        full = np.zeros(logits.shape)
        full[:, columns] = dlogits
        logits._accumulate(full, owned=True)

    return logits._make(factors.prod(axis=1), (logits,), backward)
