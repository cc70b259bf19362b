"""Mini-batch training protocol shared by every gradient-descent model.

One recipe, used everywhere: Adam at 0.001 on mean squared error in
standardized space, batches of 256, at most 1000 epochs, early stopping on
validation loss (patience 10, armed from epoch 6), a reduce-on-plateau
learning-rate schedule (factor 0.25, patience 5, floor 2.5e-5), and
restoration of the best validation weights at the end.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import AdamState, NonFiniteError, adam_step, mse_loss

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
    """Hyperparameters of the shared training recipe."""

    max_epochs: int = 1000
    batch_size: int = 256
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    es_patience: int = 10
    es_start_epoch: int = 6
    es_min_delta: float = 1e-5
    plateau_factor: float = 0.25
    plateau_patience: int = 5
    lr_min: float = 2.5e-5
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be positive")
        if self.lr <= 0 or self.lr_min <= 0 or self.lr_min > self.lr:
            raise ValueError(f"need 0 < lr_min <= lr, got lr={self.lr}, lr_min={self.lr_min}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.es_patience < 1 or self.plateau_patience < 1 or self.es_start_epoch < 1:
            raise ValueError("patience values and es_start_epoch must be positive")
        if self.es_min_delta < 0:
            raise ValueError(f"es_min_delta must be non-negative, got {self.es_min_delta}")

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
    """Stop when validation loss has not improved by min_delta for `patience` epochs.

    Epochs are 1-indexed. "Patience 10 starting from epoch 6" is read as:
    improvement tracking begins at epoch ``start_epoch``, the wait counter
    advances from the epoch after it, so the earliest possible stop is epoch
    ``start_epoch + patience``. That reading is isolated here so it is easy
    to change. An improvement must beat the best loss seen so far by more
    than ``min_delta``.
    """

    def __init__(self, patience: int = 10, start_epoch: int = 6, min_delta: float = 1e-5):
        self.patience = patience
        self.start_epoch = start_epoch
        self.min_delta = min_delta
        self.best = float("inf")
        self.best_epoch = 0
        self.wait = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop now."""
        if val_loss < self.best - self.min_delta:
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
        return self.wait >= self.patience


class PlateauScheduler:
    """Multiply the learning rate by ``factor`` after ``patience`` epochs without improvement.

    Improvement uses the same min_delta convention as EarlyStopper. The rate
    never drops below ``lr_min``; the wait counter resets after a reduction.
    """

    def __init__(self, lr: float = 0.001, factor: float = 0.25, patience: int = 5,
                 lr_min: float = 2.5e-5, min_delta: float = 1e-5):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.lr_min = lr_min
        self.min_delta = min_delta
        self.best = float("inf")
        self.wait = 0

    def update(self, val_loss: float) -> float:
        """Record one epoch's validation loss; returns the rate for the next epoch."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.wait = 0
            return self.lr
        self.wait += 1
        if self.wait >= self.patience:
            self.lr = max(self.lr * self.factor, self.lr_min)
            self.wait = 0
        return self.lr


class _FlatParams:
    """``model.params`` re-homed as reshaped views into one contiguous vector.

    The current values are copied in, and each store entry is replaced by a
    view of its slice, so forward and backward read the vector and one Adam
    update (elementwise, hence bit-identical to one update per array) moves
    every parameter. Gradients are gathered into a second vector of the same
    layout.
    """

    def __init__(self, model):
        params = model.params
        self.names = list(params)
        self.values = np.empty(sum(arr.size for arr in params.values()))
        self.grad = np.empty_like(self.values)
        offset = 0
        for name in self.names:
            arr = params[name]
            view = self.values[offset: offset + arr.size].reshape(arr.shape)
            view[...] = arr
            params[name] = view
            offset += arr.size

    def step(self, grads, state: AdamState) -> None:
        """One Adam update of every parameter from the ``grads`` store."""
        np.concatenate([np.ravel(grads[name]) for name in self.names], out=self.grad)
        try:
            adam_step(self.values, self.grad, state)
        except NonFiniteError:
            name = next(name for name in self.names if not np.isfinite(grads[name]).all())
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'") from None


def _loss_and_grads(model, inputs, targets):
    pred, cache = model.forward(inputs)
    loss, dpred = mse_loss(pred, targets)
    grads = model.backward(cache, dpred)
    return loss, grads


def _val_loss(model, dataset) -> float:
    pred = model.predict(dataset.inputs)
    loss, _ = mse_loss(pred, dataset.targets)
    return loss


def train(model, train_set, val_set, config: TrainConfig = TrainConfig()):
    """Train ``model`` in place with the shared recipe; returns (model, history).

    ``train_set`` and ``val_set`` expose float64 ``inputs`` and ``targets``
    matrices (WindowedDataset does). Batches are drawn by a seeded shuffle
    each epoch, the full validation loss is computed after every epoch, and
    the weights of the best validation epoch are restored before returning.
    Identical inputs, seed and config reproduce the identical history.

    Training first re-homes ``model.params`` into one contiguous float64
    buffer: every entry of the store is replaced by a view into it, and one
    Adam step per batch updates them all. Arrays taken from ``model.params``
    before the call keep their old values and no longer alias the model;
    read the store again afterwards.
    """
    if len(train_set.inputs) == 0 or len(val_set.inputs) == 0:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    flat = _FlatParams(model)
    state = AdamState.for_param(flat.values, lr=config.lr, beta1=config.beta1,
                                beta2=config.beta2, epsilon=config.epsilon)
    stopper = EarlyStopper(config.es_patience, config.es_start_epoch, config.es_min_delta)
    scheduler = PlateauScheduler(config.lr, config.plateau_factor, config.plateau_patience,
                                 config.lr_min, config.es_min_delta)
    history = TrainHistory()
    best_values = flat.values.copy()
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
                flat.step(grads, state)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"epoch {epoch}, batch starting at {start}: {exc}"
                ) from exc
            batch_losses.append(loss)
        val_loss = _val_loss(model, val_set)
        if not np.isfinite(val_loss):
            raise NonFiniteError(f"epoch {epoch}: validation loss is {val_loss!r}")
        seconds = time.perf_counter() - tic
        history.records.append(EpochRecord(
            epoch=epoch, train_loss=float(np.mean(batch_losses)),
            val_loss=val_loss, lr=epoch_lr, seconds=seconds,
        ))
        improved = val_loss < stopper.best
        stop = stopper.update(epoch, val_loss)
        if improved:
            np.copyto(best_values, flat.values)
        scheduler.update(val_loss)
        logger.debug("epoch %d: train %.6f val %.6f lr %.2e", epoch, history.records[-1].train_loss, val_loss, epoch_lr)
        if stop:
            history.stopped_early = True
            break

    np.copyto(flat.values, best_values)
    history.best_epoch = stopper.best_epoch
    history.best_val_loss = stopper.best
    history.final_lr = scheduler.lr
    return model, history


def overfit_probe(model, dataset, steps: int = 2000, lr: float = 0.001) -> float:
    """Full-batch Adam on a tiny dataset; returns the final training loss.

    A capacity smoke test: a healthy network should be able to memorize a
    handful of windows. Raises DivergenceError if the loss exceeds 1e6. Like
    ``train``, it re-homes ``model.params`` into one contiguous buffer, so
    arrays taken from the store beforehand no longer alias the model.
    """
    flat = _FlatParams(model)
    state = AdamState.for_param(flat.values, lr=lr)
    for step in range(steps):
        loss, grads = _loss_and_grads(model, dataset.inputs, dataset.targets)
        if not np.isfinite(loss):
            raise NonFiniteError(f"probe step {step}: loss is {loss!r}")
        if loss > 1e6:
            raise DivergenceError(f"probe step {step}: loss {loss:.3e} exceeds 1e6")
        flat.step(grads, state)
    final, _ = _loss_and_grads(model, dataset.inputs, dataset.targets)
    if not np.isfinite(final):
        raise NonFiniteError(f"probe final loss is {final!r}")
    if final > 1e6:
        raise DivergenceError(f"probe final loss {final:.3e} exceeds 1e6")
    return final
