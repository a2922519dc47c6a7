"""The forked worker behind --workers >= 2: replies, errors and reaping."""

import os

import numpy as np
import pytest

from dyncov._worker import ForkWorker
from dyncov.covariance import train_cov_forests
from dyncov.forest import ForestConfig
from tests.conftest import make_dataset, same_forest


class NeedsTwoArgs(Exception):
    """Pickles, but unpickling calls it with one argument and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_needs_two_args():
    raise NeedsTwoArgs("x", "y")


def raise_linalg(text):
    raise np.linalg.LinAlgError(text)


@pytest.fixture
def worker():
    with ForkWorker() as w:
        yield w
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(-1, os.WNOHANG)


def test_replies_in_order(worker):
    for k in range(3):
        worker.submit(pow, 2, k)
        assert worker.result() == 2**k
    worker.submit(os.getpid)
    assert worker.result() == worker.pid != os.getpid()


def test_exception_keeps_type_and_message(worker):
    worker.submit(raise_linalg, "no convergence")
    with pytest.raises(np.linalg.LinAlgError, match="^no convergence$"):
        worker.result()
    worker.submit(pow, 3, 2)  # the worker goes on serving
    assert worker.result() == 9


def test_exception_that_does_not_unpickle_keeps_its_text(worker):
    worker.submit(raise_needs_two_args)
    with pytest.raises(RuntimeError, match="^NeedsTwoArgs: x and y$"):
        worker.result()


def test_unread_reply_is_dropped_by_the_next_submit(worker):
    worker.submit(pow, 2, 5)  # the caller raised before it read this reply
    worker.submit(pow, 2, 6)
    assert worker.result() == 64


def test_forests_match_the_in_process_ones(worker):
    ds = make_dataset(n=30, p=3, d=2, seed=2)
    cfg = ForestConfig(n_trees=5, min_leaf=2)
    here = train_cov_forests(ds, cfg, 4, None)
    forked = train_cov_forests(ds, cfg, 4, worker)
    assert same_forest(here.mean, forked.mean)
    assert same_forest(here.second_moment, forked.second_moment)
