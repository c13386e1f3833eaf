"""The BLAS thread budget: getter/setter, core shares, refcounted holds."""

import os

import pytest

from repro.utils import threads
from repro.utils.threads import (
    BlasBudget,
    blas_threads,
    cpu_budget,
    explicit_thread_env,
    set_blas_threads,
    usable_cores,
)


def test_get_set_round_trip(blas_at_4):
    assert blas_threads() == 4
    set_blas_threads(1)
    assert blas_threads() == 1
    set_blas_threads(3)
    assert blas_threads() == 3


def test_cpu_budget_is_a_floor_share_of_usable_cores(monkeypatch):
    monkeypatch.setattr(threads, "usable_cores", lambda: 8)
    assert cpu_budget(1) == 8
    assert cpu_budget(3) == 2
    assert cpu_budget(9) == 1  # never zero


def test_usable_cores_follows_the_affinity_mask():
    assert 1 <= usable_cores() <= (os.cpu_count() or 1)


def test_budget_pins_and_restores(blas_at_4):
    with BlasBudget(2):
        assert blas_threads() == 2
    assert blas_threads() == 4


def test_nested_budgets_restore_the_original(blas_at_4):
    with BlasBudget(3):
        with BlasBudget(1):
            assert blas_threads() == 1
        # An inner release never raises the count while a hold remains.
        assert blas_threads() == 1
    assert blas_threads() == 4


def test_overlapping_budgets_restore_the_original(blas_at_4):
    first = BlasBudget(2).acquire()
    second = BlasBudget(1).acquire()
    first.release()
    assert blas_threads() == 1
    second.release()
    assert blas_threads() == 4


def test_budget_never_raises_the_count(blas_at_4):
    set_blas_threads(1)
    with BlasBudget(3):
        assert blas_threads() == 1
    assert blas_threads() == 1


def test_acquire_and_release_are_idempotent(blas_at_4):
    hold = BlasBudget(2)
    hold.acquire().acquire()
    other = BlasBudget(2).acquire()
    hold.release()
    hold.release()
    assert blas_threads() == 2  # ``other`` still holds
    other.release()
    assert blas_threads() == 4


@pytest.mark.parametrize("name", threads.THREAD_ENV_VARS)
def test_explicit_env_makes_the_budget_a_no_op(blas_at_4, monkeypatch, name):
    monkeypatch.setenv(name, "4")
    assert explicit_thread_env()
    with BlasBudget(1):
        assert blas_threads() == 4
    assert blas_threads() == 4


def test_explicit_env_reads_a_given_mapping():
    assert explicit_thread_env({"OMP_NUM_THREADS": "2"})
    assert not explicit_thread_env({"MKL_NUM_THREADS": "2"})
    assert not explicit_thread_env({"OPENBLAS_NUM_THREADS": ""})


def test_missing_library_reads_none_and_is_a_no_op(monkeypatch):
    for name in threads.THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(threads, "_openblas", lambda: None)
    assert blas_threads() is None
    set_blas_threads(1)  # must not raise
    with BlasBudget(1):
        assert blas_threads() is None
