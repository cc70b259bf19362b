"""Mini-batch training protocol shared by every gradient-descent model.

One recipe, used everywhere: Adam at 0.001 on mean squared error in
standardized space, batches of 256, at most 1000 epochs, early stopping on
validation loss (patience 10, armed from epoch 6), a reduce-on-plateau
learning-rate schedule (factor 0.25, patience 5, floor 2.5e-5), and
restoration of the best validation weights at the end. ``TrainConfig`` sets
the epochs, batch size, rate (its default also starts ``overfit_probe``),
stopping start and seed. The rest is fixed: ``EarlyStopper`` and
``PlateauScheduler`` read the constants below, and ``adam_step`` ``numerics.ADAM_*``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState, NonFiniteError, adam_step, mse_loss

# the fixed schedules: an improvement beats the best validation loss by more
# than ES_MIN_DELTA; early stopping waits ES_PATIENCE epochs, and the plateau
# schedule PLATEAU_PATIENCE epochs before it scales the rate by
# PLATEAU_FACTOR, never below LR_MIN
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
    "DivergenceError",
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "EarlyStopper",
    "PlateauScheduler",
    "train",
    "overfit_probe",
]

logger = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training loss blew past the divergence limit."""


@dataclass(frozen=True)
class TrainConfig:
    """The settable values of the shared training recipe."""

    max_epochs: int = 1000
    batch_size: int = 256
    lr: float = 0.001
    es_start_epoch: int = 6
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "batch_size", "es_start_epoch", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.lr, bool) or not isinstance(self.lr, (int, float, np.integer, np.floating)):
            raise TypeError(f"lr must be a number, got {self.lr!r}")
        if self.max_epochs < 1 or self.batch_size < 1 or self.es_start_epoch < 1:
            raise ValueError("max_epochs, batch_size and es_start_epoch must be positive")
        if not LR_MIN <= self.lr < np.inf:  # also refuses NaN
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

    def val_losses(self) -> np.ndarray:
        return np.array([r.val_loss for r in self.records], dtype=np.float64)

    def train_losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records], dtype=np.float64)

    def lr_schedule(self) -> list[float]:
        """Distinct learning rates in order of first use, ending with the final rate."""
        rates = [r.lr for r in self.records]
        if np.isfinite(self.final_lr):
            rates.append(self.final_lr)
        schedule: list[float] = []
        for rate in rates:
            if not schedule or rate != schedule[-1]:
                schedule.append(rate)
        return schedule

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "train_loss", "val_loss", "lr", "seconds"])
            for r in self.records:
                writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss), repr(r.lr), repr(r.seconds)])


class EarlyStopper:
    """Stop when validation loss has not improved by ES_MIN_DELTA for ES_PATIENCE epochs.

    Epochs are 1-indexed. "Patience 10 starting from epoch 6" is read as:
    improvement tracking begins at epoch ``start_epoch``, the wait counter
    advances from the epoch after it, so the earliest possible stop is epoch
    ``start_epoch + ES_PATIENCE``. That reading is isolated here so it is easy
    to change. An improvement must beat the best loss seen so far by more
    than ``ES_MIN_DELTA``.
    """

    def __init__(self, start_epoch: int):
        self.start_epoch = start_epoch
        self.best = float("inf")
        self.best_epoch = 0
        self.wait = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop now."""
        if val_loss < self.best - ES_MIN_DELTA:
            self.best = val_loss
            self.best_epoch = epoch
            self.wait = 0
            return False
        if val_loss < self.best:
            # still the best weights, but not a material improvement
            self.best = val_loss
            self.best_epoch = epoch
        if epoch <= self.start_epoch:
            return False
        self.wait += 1
        return self.wait >= ES_PATIENCE


class PlateauScheduler:
    """Multiply the learning rate by PLATEAU_FACTOR after PLATEAU_PATIENCE epochs without improvement.

    Improvement uses the same ES_MIN_DELTA convention as EarlyStopper. The
    rate never drops below LR_MIN; the wait counter resets after a reduction.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.best = float("inf")
        self.wait = 0

    def update(self, val_loss: float) -> float:
        """Record one epoch's validation loss; returns the rate for the next epoch."""
        if val_loss < self.best - ES_MIN_DELTA:
            self.best = val_loss
            self.wait = 0
            return self.lr
        self.wait += 1
        if self.wait >= PLATEAU_PATIENCE:
            self.lr = max(self.lr * PLATEAU_FACTOR, LR_MIN)
            self.wait = 0
        return self.lr


def _loss_and_grads(model, inputs, targets):
    pred, cache = model.forward(inputs)
    loss, dpred = mse_loss(pred, targets)
    grads = model.backward(cache, dpred)
    return loss, grads


def _step(model, grads, state: AdamState) -> None:
    """One Adam update of the parameter vector from the gradient vector; elementwise, as one per array."""
    try:
        adam_step(model.params.vector, model.grads.vector, state)
    except NonFiniteError:
        name = next(name for name, grad in grads.items() if not np.isfinite(grad).all())
        raise NonFiniteError(f"non-finite gradient for parameter '{name}'") from None


def train(model, train_set, val_set, config: TrainConfig = TrainConfig()):
    """Train ``model`` in place with the shared recipe; returns (model, history).

    ``train_set`` and ``val_set`` expose float64 ``inputs`` and ``targets``
    matrices (WindowedDataset does). Batches are drawn by a seeded shuffle
    each epoch, the full validation loss is computed after every epoch, and
    the weights of the best validation epoch are restored before returning.
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
    state = AdamState.for_param(values, lr=config.lr)
    stopper = EarlyStopper(start_epoch=config.es_start_epoch)
    scheduler = PlateauScheduler(config.lr)
    history = TrainHistory()
    best_values = values.copy()
    n = len(train_set.inputs)

    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        epoch_lr = state.lr = scheduler.lr
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start: start + config.batch_size]
            try:
                loss, grads = _loss_and_grads(model, train_set.inputs[batch], train_set.targets[batch])
                if not np.isfinite(loss):
                    raise NonFiniteError(f"training loss is {loss!r}")
                _step(model, grads, state)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"epoch {epoch}, batch starting at {start}: {exc}"
                ) from exc
            batch_losses.append(loss)
        val_loss, _ = mse_loss(model.predict(val_set.inputs), val_set.targets)
        if not np.isfinite(val_loss):
            raise NonFiniteError(f"epoch {epoch}: validation loss is {val_loss!r}")
        seconds = time.perf_counter() - tic
        history.records.append(EpochRecord(
            epoch=epoch, train_loss=float(np.mean(batch_losses)),
            val_loss=val_loss, lr=epoch_lr, seconds=seconds,
        ))
        stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            np.copyto(best_values, values)
        scheduler.update(val_loss)
        logger.debug("epoch %d: train %.6f val %.6f lr %.2e", epoch, history.records[-1].train_loss, val_loss, epoch_lr)
        if stop:
            history.stopped_early = True
            break

    np.copyto(values, best_values)
    history.best_epoch = stopper.best_epoch
    history.best_val_loss = stopper.best
    history.final_lr = scheduler.lr
    return model, history


def overfit_probe(model, dataset, steps: int = 2000) -> float:
    """Full-batch Adam at the recipe's start rate on a tiny dataset; returns the final training loss.

    A capacity smoke test: a healthy network should be able to memorize a
    handful of windows. Raises DivergenceError if the loss exceeds 1e6. Like
    ``train``, it steps the model's one parameter vector in place, so arrays
    taken from ``model.params`` hold the probed values.
    """
    state = AdamState.for_param(model.params.vector, lr=TrainConfig.lr)
    for step in range(steps + 1):  # the last pass only measures the final loss
        loss, grads = _loss_and_grads(model, dataset.inputs, dataset.targets)
        if not np.isfinite(loss):
            raise NonFiniteError(f"probe step {step}: loss is {loss!r}")
        if loss > 1e6:
            raise DivergenceError(f"probe step {step}: loss {loss:.3e} exceeds 1e6")
        if step < steps:
            _step(model, grads, state)
    return loss
