"""Per-column reference composition of the column-blocked losses.

The test oracle for :func:`repro.nn.functional.block_cross_entropy` and
:func:`repro.nn.functional.block_masked_mass`: one graph per column, built
from the generic tape operators (slice, ``log_softmax``/``softmax``,
``nll_loss``, products) exactly as the training loop composed them before
the fused nodes existed.
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
