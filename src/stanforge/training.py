"""Mini-batch training protocol shared by every gradient-descent model.

One recipe, used everywhere: Adam at 0.001 on mean squared error in
standardized space, batches of 256, at most 1000 epochs, early stopping on
validation loss (patience 10, armed from epoch 6), a reduce-on-plateau
learning-rate schedule (factor 0.25, patience 5, floor 2.5e-5), and
restoration of the best validation weights at the end. ``TrainConfig`` sets
the epochs, batch size, rate, stopping start and seed. The rest is fixed:
``train`` applies the stopping and plateau rules with the constants below,
and ``adam_step`` reads ``numerics.ADAM_*``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState, NonFiniteError, adam_step, finite_real, integer_in, mse_loss

# the fixed schedules, applied by ``train`` after each epoch. An improvement is
# material when it beats the best validation loss by more than ES_MIN_DELTA; a
# new best keeps its weights either way. Early stopping ends the run after
# ES_PATIENCE epochs without a material improvement, counted from the epoch
# after es_start_epoch, so "patience 10 from epoch 6" stops at epoch 16 at the
# earliest. The plateau schedule measures from its own last material
# improvement; after PLATEAU_PATIENCE epochs without one it scales the rate by
# PLATEAU_FACTOR, never below LR_MIN, and waits afresh.
ES_PATIENCE = 10
ES_MIN_DELTA = 1e-5
PLATEAU_FACTOR = 0.25
PLATEAU_PATIENCE = 5
LR_MIN = 2.5e-5
# the fixed values by name; the CLI still reads them from an old config's ``train``
FIXED_RECIPE = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "epsilon": ADAM_EPSILON, "es_patience": ES_PATIENCE,
                "es_min_delta": ES_MIN_DELTA, "plateau_factor": PLATEAU_FACTOR, "plateau_patience": PLATEAU_PATIENCE,
                "lr_min": LR_MIN}

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "train",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """The settable values of the shared training recipe."""

    max_epochs: int = 1000
    batch_size: int = 256
    lr: float = 0.001
    es_start_epoch: int = 6
    seed: int = 0

    def __post_init__(self):
        # numpy numbers are stored as Python ones, so history.csv and a JSON dump of the fields read plain numbers
        for name, least in (("max_epochs", 1), ("batch_size", 1), ("es_start_epoch", 1), ("seed", 0)):
            object.__setattr__(self, name, integer_in(getattr(self, name), name, least))
        object.__setattr__(self, "lr", finite_real(self.lr, "lr"))
        if self.lr < LR_MIN:
            raise ValueError(f"lr must be finite and at least the plateau floor {LR_MIN:g}, got {self.lr!r}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


@dataclass
class EpochRecord:
    epoch: int        # 1-indexed
    train_loss: float
    val_loss: float
    lr: float         # rate used during this epoch
    seconds: float


@dataclass
class TrainHistory:
    """Epoch-by-epoch log of one training run."""

    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    final_lr: float = float("nan")
    stopped_early: bool = False

    def __len__(self) -> int:
        return len(self.records)

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f.name for f in fields(EpochRecord)])
            writer.writerows([repr(value) for value in astuple(r)] for r in self.records)


def train(model, train_set, val_set, config: TrainConfig = TrainConfig()):
    """Train ``model`` in place with the shared recipe; returns (model, history).

    ``train_set`` and ``val_set`` expose float ``inputs`` and ``targets``
    matrices (WindowedDataset does). The inputs are cast once per call to the
    dtype of the model's parameter vector, float32 for the networks; the
    targets are read as given by ``mse_loss``, which takes the loss in
    float64, so a recorded validation loss reads the same as
    ``mse_loss(model.predict(val_set.inputs), val_set.targets)`` at the
    weights it was taken at. Batches are drawn by a seeded shuffle each
    epoch, the full validation loss is computed after every epoch, and the
    weights of the best validation epoch are restored before returning.
    Identical inputs, seed and config reproduce the identical history.

    ``model.params`` holds views of the model's one parameter vector (an
    assignment copies into it), so arrays taken from it hold the trained
    values; one Adam step per batch updates the vector in place from the
    gradient views ``backward`` returns, valid until its next call.
    """
    if len(train_set.inputs) == 0 or len(val_set.inputs) == 0:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    values = model.params.vector
    train_x, val_x = (np.asarray(subset.inputs, dtype=values.dtype) for subset in (train_set, val_set))
    state = AdamState.for_param(values, lr=config.lr)
    history = TrainHistory()
    best_values = values.copy()
    n = len(train_x)
    # epochs since the last material improvement: of the best loss for early
    # stopping, counted only after es_start_epoch; of plateau_best for the rate
    stop_wait = plateau_wait = 0
    plateau_best = math.inf

    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        epoch_lr = state.lr
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start: start + config.batch_size]
            pred, cache = model.forward(train_x[batch])
            loss, dpred = mse_loss(pred, train_set.targets[batch])
            if not np.isfinite(loss):
                raise NonFiniteError(f"epoch {epoch}, batch starting at {start}: training loss is {loss!r}")
            grads = model.backward(cache, dpred)
            try:  # one Adam update of the parameter vector from the gradient vector; elementwise, as one per array
                adam_step(values, model.grads.vector, state)
            except NonFiniteError:
                name = next(name for name, grad in grads.items() if not np.isfinite(grad).all())
                raise NonFiniteError(f"epoch {epoch}, batch starting at {start}: "
                                     f"non-finite gradient for parameter '{name}'") from None
            batch_losses.append(loss)
        val_loss, _ = mse_loss(model.predict(val_x), val_set.targets)
        if not np.isfinite(val_loss):
            raise NonFiniteError(f"epoch {epoch}: validation loss is {val_loss!r}")
        seconds = time.perf_counter() - tic
        history.records.append(EpochRecord(
            epoch=epoch, train_loss=float(np.mean(batch_losses)),
            val_loss=val_loss, lr=epoch_lr, seconds=seconds,
        ))
        if val_loss < history.best_val_loss - ES_MIN_DELTA:
            stop_wait = 0
        elif epoch > config.es_start_epoch:
            stop_wait += 1
        if val_loss < history.best_val_loss:  # a best that is not material still keeps its weights
            history.best_val_loss, history.best_epoch = val_loss, epoch
            np.copyto(best_values, values)
        if val_loss < plateau_best - ES_MIN_DELTA:
            plateau_best, plateau_wait = val_loss, 0
        else:
            plateau_wait += 1
            if plateau_wait >= PLATEAU_PATIENCE:
                state.lr, plateau_wait = max(state.lr * PLATEAU_FACTOR, LR_MIN), 0
        logger.debug("epoch %d: train %.6f val %.6f lr %.2e", epoch, history.records[-1].train_loss, val_loss, epoch_lr)
        if stop_wait >= ES_PATIENCE:
            history.stopped_early = True
            break

    np.copyto(values, best_values)
    history.final_lr = state.lr
    return model, history

