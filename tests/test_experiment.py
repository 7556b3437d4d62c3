"""The VAR(1) experiment in steps: one base fit per family serves every
variant and embedding dimension, and gives the accuracies that
``reproduce_var1`` reports."""
import numpy as np
import pytest

import tck.ensemble
from tck import data as dt
from tck import experiment

SMALL = {"n_init": 1, "component_counts": (2, 3)}


@pytest.fixture
def fits(monkeypatch):
    """A list that gains one entry per ``train_ensemble`` call."""
    calls, original = [], tck.ensemble.train_ensemble

    def counted(*args, **kwargs):
        calls.append(args[1].seed)
        return original(*args, **kwargs)
    monkeypatch.setattr(tck.ensemble, "train_ensemble", counted)
    return calls


def test_one_fit_per_family_serves_every_variant_and_dimension(fits):
    report = experiment.reproduce_var1(seed=0, replicates=1, **SMALL)
    assert len(fits) == 2 and len(set(fits)) == 2

    data = experiment.var1_data(0)
    for family in ("tck", "tck_im"):
        ens, kernel, factories = experiment.fit_family(data, family, **SMALL)
        assert list(factories) == [family, "ss" + family, "s" + family]
        fitted = len(fits)
        for variant, factory in factories.items():
            at = {d: experiment.variant_accuracy(data, ens, kernel, factory, d=d)
                  for d in (5, 10)}
            assert 0.0 <= at[5] <= 1.0
            assert at[10] == report["per_replicate"][0][variant]
        assert len(fits) == fitted
    assert len(fits) == 4


def test_fit_family_checks_label_options_before_fitting(fits):
    data = experiment.var1_data(0)
    with pytest.raises(ValueError, match="--h"):
        experiment.fit_family(data, "tck_im", h=1.5, **SMALL)
    with pytest.raises(ValueError, match="--components"):
        experiment.fit_family(data, "tck", n_init=1, component_counts=(1, 2))
    assert fits == []


@pytest.fixture(scope="module")
def raw_train():
    return experiment.var1_data(0).train


@pytest.mark.parametrize("variant", sorted(experiment.VARIANTS))
def test_training_data_is_standardized_once(monkeypatch, raw_train, variant):
    calls, apply = [], dt.StandardizationStats.apply

    def counted(self, data):
        calls.append(data)
        return apply(self, data)
    monkeypatch.setattr(dt.StandardizationStats, "apply", counted)
    prepared, stats = experiment.prepare_training_data(raw_train, variant)
    assert len(calls) == 1
    expected = experiment.prepare_eval_data(raw_train, variant, stats)
    for field in ("values", "mask", "labels", "ids"):
        got, want = getattr(prepared, field), getattr(expected, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field
    assert prepared.n_classes == expected.n_classes
