"""Shared fixtures: synthetic series and stub models reused across test modules."""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from stanforge.data import TimeSeries, hourly_timestamps
from stanforge.stan_core import VectorStore, gradcheck_problem
from stanforge.star_classic import LstarParams, simulate_lstar


def nonlinear_generator() -> LstarParams:
    """Regime-switching generator with a spread-out AR backbone.

    The lag-1 regime shift is strong enough that a linear fit is clearly
    misspecified, while the higher lags keep validation loss moving during
    the early epochs in which a freshly initialized network is still an
    affine model.
    """
    return LstarParams(
        phi0=0.4,
        phi=[0.35, 0.12, 0.10, 0.08, 0.06, 0.05, 0.04, 0.03],
        theta=[-1.5, 0, 0, 0, 0, 0, 0, 0],
        gamma=10.0,
        c=0.7,
        sigma=0.05,
    )


@pytest.fixture(scope="session")
def advantage_series() -> TimeSeries:
    # one simulation shared by the benchmark and acceptance tests
    return simulate_lstar(nonlinear_generator(), n=5000, seed=0)


class ConstantModel:
    """Predicts a constant; gradients are zero, so every epoch looks identical.

    With ``val_losses``, the n-th ``predict`` (``train``'s validation pass
    after epoch n) predicts ``sqrt(val_losses[n - 1])`` instead, so that on
    zero targets epoch n's validation loss is that value, up to rounding.
    Once the sequence runs out it predicts ``value`` again.
    """

    kind = "stub"

    def __init__(self, value: float = 1.0, val_losses=()):
        self.value = value
        self.val_losses = iter(val_losses)
        self.params = VectorStore({"w": (1,)}, "ConstantModel")
        self.grads = VectorStore({"w": (1,)}, "ConstantModel")

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.full((x.shape[0], 1), self.value), None

    def backward(self, cache, dpred):
        return dict(self.grads)

    def predict(self, x):
        loss = next(self.val_losses, None)
        pred = self.forward(x)[0]
        return pred if loss is None else np.full_like(pred, np.sqrt(loss))


@pytest.fixture
def constant_model_cls():
    return ConstantModel


def stan_fd_problem(spec, seed: int = 0, batch: int = 4):
    """Loss closure plus parameter store for finite-difference refereeing:
    the problem ``stanforge gradcheck`` checks."""
    return gradcheck_problem(spec, seed, batch)


def sine_series(n: int = 400, name: str = "SINE") -> TimeSeries:
    t = np.arange(n, dtype=np.float64)
    values = 100.0 + 10.0 * np.sin(2.0 * np.pi * t / 24.0) + 0.01 * t
    return TimeSeries(name=name, timestamps=hourly_timestamps(n), values=values)


@pytest.fixture
def short_series() -> TimeSeries:
    return sine_series()


# JSON files that do not decode, each with the start of the reason ``data.read_json`` names; before 3.11
# Python converts an integer of any length, so the long integer is a refusal only from 3.11 on
UNDECODABLE_JSON = [
    pytest.param(b'{"n": "\xff"}', "'utf-8' codec can't decode byte 0xff", id="not-utf8"),
    pytest.param(b'{"n": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)", id="5000-digit-integer",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python converts an integer of any length")),
    pytest.param(b"[" * 200_000, "maximum recursion depth exceeded", id="nested-too-deep"),
]


def with_undecodable_byte(path: Path, line: int) -> Path:
    """Rewrite the CSV at ``path`` with a 0xff byte ending its value cell on file ``line``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rstrip(b"\r\n") + b"\xff\r\n"
    path.write_bytes(b"".join(lines))
    return path
