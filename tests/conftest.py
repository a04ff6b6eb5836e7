import pathlib

import numpy as np
import pytest

import safemdp as sm
from corpus import (
    _fill,
    feasible_p,
    random_initial,
    random_model,
    random_model_small,
    random_policy,
    sparse_model,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def ex1_model():
    return sm.load_model((DATA / "ex1_model.json").read_text())


@pytest.fixture(scope="session")
def ex1_policy(ex1_model):
    return sm.load_policy((DATA / "ex1_policy.json").read_text(), ex1_model)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def solver_corpus():
    """25 feasible constrained instances; seed frozen with its margins."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(25):
        model = random_model(rng)
        out.append((model, feasible_p(rng, model)))
    return out


@pytest.fixture(scope="session")
def chain_corpus():
    """100 (model, policy, initial) triples on at most 6 states."""
    rng = np.random.default_rng(411)
    out = []
    for _ in range(100):
        model = random_model_small(rng)
        policy = random_policy(rng, model)
        initial = random_initial(rng, model)
        out.append((model, policy, initial))
    return out


@pytest.fixture(scope="session")
def oracle_cases(ex1_model, solver_corpus, chain_corpus):
    """(model, p) pairs for the enumeration oracles.

    ex1 at several levels, both corpora, 60 sparse models (some with
    non-transient pure policies), a model with h = 9 and m = 2 whose
    value rows are long enough for numpy's unrolled sums, and one whose
    duplicated actions make runs of tied summed values.
    """
    levels = (0.0, 0.2, 0.5, 1.0)
    cases = [(ex1_model, p) for p in (0.0, 0.1, 0.3, 0.5, 1.0)]
    cases += solver_corpus
    cases += [(m, levels[k % 4]) for k, (m, _, _) in enumerate(chain_corpus)]
    rng = np.random.default_rng(88)
    cases += [(sparse_model(rng), levels[k % 4]) for k in range(60)]
    wide = _fill(rng, 9, 1, 2, 2, 0.1)
    cases.append((wide, feasible_p(rng, wide)))
    base = _fill(rng, 4, 1, 1, 2, 0.1)
    tied = sm.MdpModel(
        states=base.states,
        actions=("a0", "a1", "a0'", "a1'"),
        partition=base.partition,
        transitions=np.tile(base.transitions, (1, 2, 1)),
        rewards=np.tile(base.rewards, (2, 1)),
    )
    cases.append((tied, feasible_p(rng, tied)))
    return cases
