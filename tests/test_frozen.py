"""The contract of the package's record classes: read-only fields set by the
constructor, in its parameters' order; value equality and hashing for the
classes that describe a configuration or a result, identity for those that
hold arrays or operators."""

import inspect

import numpy as np
import pytest

from squeezetransfer.dynamics import CoefficientSet, ManifoldState, coefficients
from squeezetransfer.hamiltonian import (
    ManifoldBlock,
    ModelParams,
    build_hamiltonian,
    extract_manifold_block,
)
from squeezetransfer.hilbert import (
    CompositeSpace,
    DensityMatrix,
    HermitianOperator,
    Kind,
    Operator,
    SubsystemSpec,
    atom,
    standard_space,
)
from squeezetransfer.operators import QuadraturePair, SpinTriple
from squeezetransfer.sweep import GridSpec, SweepConfig, SweepResult, TimeGrid
from squeezetransfer.witness import BranchWitnesses, OssiReport

QUBIT = CompositeSpace((atom(),))


def _diagonal(cls, k):
    return cls(QUBIT, np.diag([1.0 - k / 2, k / 2]))


def _state(k):
    return ManifoldState(np.array([1.0, 0.0, 0.0, 0.0]) * 1j**k, 0.0)


# Per class: a function of k in {0, 1} that builds an instance (two calls with
# the same k give equal fields, the two k differ), and whether instances
# compare by value.
CASES = {
    SubsystemSpec: (lambda k: SubsystemSpec(Kind.PHOTON_MODE, 3 + k), True),
    CompositeSpace: (lambda k: CompositeSpace((atom(),) * (1 + k)), True),
    Operator: (lambda k: _diagonal(Operator, k), False),
    HermitianOperator: (lambda k: _diagonal(HermitianOperator, k), False),
    DensityMatrix: (lambda k: _diagonal(DensityMatrix, k), False),
    SpinTriple: (lambda k: SpinTriple(*[_diagonal(HermitianOperator, k)] * 3), False),
    QuadraturePair: (lambda k: QuadraturePair(*[_diagonal(HermitianOperator, k)] * 2), False),
    ModelParams: (lambda k: ModelParams(mu=0.5 * k), True),
    ManifoldBlock: (lambda k: extract_manifold_block(
        build_hamiltonian(ModelParams(zeta=k), standard_space())), False),
    ManifoldState: (_state, False),
    CoefficientSet: (lambda k: coefficients(_state(k)), False),
    OssiReport: (lambda k: OssiReport(0.5 * k, 0.0, {"x": 0.0}, {"x": 1.0}), True),
    BranchWitnesses: (lambda k: BranchWitnesses(1.0, 0.5 * k), True),
    GridSpec: (lambda k: GridSpec(0.0, 1.0, 2 + k), True),
    TimeGrid: (lambda k: TimeGrid(0.0, 1.0, 2 + k), True),
    SweepConfig: (lambda k: SweepConfig(params=ModelParams(mu=0.5 * k)), True),
    SweepResult: (lambda k: SweepResult(np.zeros(1), np.zeros(2), {"x": np.full((1, 2), k)}),
                  False),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_parameters_and_read_only(cls):
    record = CASES[cls][0](0)
    assert type(record) is cls
    assert list(vars(record)) == list(inspect.signature(cls).parameters)
    assert repr(record).startswith(f"{cls.__name__}({next(iter(vars(record)))}=")
    for name, value in vars(record).items():
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equality_and_hashing(cls):
    make, by_value = CASES[cls]
    a, same, other = make(0), make(0), make(1)
    assert a == a and a is not same
    assert a != other
    if not by_value:
        assert a != same and len({a, same}) == 2
        return
    assert a == same and not a != same
    if cls is OssiReport:  # the tuple of its fields holds dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(same) == hash(tuple(vars(a).values()))
        assert len({a, same, other}) == 2


def test_only_the_exact_class_is_equal():
    # a TimeGrid differs from the GridSpec with its fields only in its messages
    assert GridSpec(0.0, 1.0, 2) != TimeGrid(0.0, 1.0, 2)
    assert GridSpec(0.0, 1.0, 2).__eq__((0.0, 1.0, 2)) is NotImplemented


def test_defaults():
    assert vars(ModelParams()) == dict(omega=0.0, mu=0.0, eta=0.0, lam=1.0, zeta=0.0,
                                       e_g=0.0, e_e=0.0)
    config = SweepConfig()
    assert (config.params, config.zeta_grid, config.time_grid) == (
        ModelParams(), GridSpec(0.0, 2.0, 201), TimeGrid(0.0, 20.0, 401))
    assert type(config.time_grid) is TimeGrid
    assert config.observables == ("ineq_a", "ineq_p", "var_x1", "var_x2")
    assert (config.branch.value, config.method.value) == ("entangled", "closed_form")
