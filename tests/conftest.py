import os

import numpy as np
import pytest

from squeezetransfer.hamiltonian import ModelParams, build_hamiltonian, extract_manifold_block
from squeezetransfer.hilbert import CompositeSpace, atom, photon_mode, standard_space
from squeezetransfer.operators import collective_atomic_spin, photonic_pseudospin, quadratures


@pytest.fixture(autouse=True)
def no_leftover_process_or_file(request):
    """After every test: no child process of this one is left, reaped or
    not, and the test's tmp_path, if it has one, holds no temporary file of
    the atomic writer.  The CLI's part files are tempfile.TemporaryFile
    files in $TMPDIR, not in tmp_path, and have no name; TestParts checks
    that they leave nothing behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    tmp_path = request.node.funcargs.get("tmp_path")
    if tmp_path is not None:
        assert [p.name for p in tmp_path.rglob("*.tmp*")] == []


@pytest.fixture(scope="session")
def space():
    return standard_space()


@pytest.fixture(scope="session")
def atom_space():
    return CompositeSpace((atom(), atom()))


@pytest.fixture(scope="session")
def photon_space():
    return CompositeSpace((photon_mode(2), photon_mode(2)))


@pytest.fixture(scope="session")
def atom_spin(atom_space):
    return collective_atomic_spin(atom_space)


@pytest.fixture(scope="session")
def photon_spin(photon_space):
    return photonic_pseudospin(photon_space)


@pytest.fixture(scope="session")
def default_params():
    return ModelParams(zeta=0.5)


@pytest.fixture(scope="session")
def default_hamiltonian(default_params, space):
    return build_hamiltonian(default_params, space)


@pytest.fixture(scope="session")
def default_block(default_hamiltonian):
    return extract_manifold_block(default_hamiltonian)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_qubit_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_separable_two_qubit(rng, max_terms=4):
    """Random mixture of product states on two qubits."""
    k = rng.integers(1, max_terms + 1)
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        a = random_qubit_state(rng)
        b = random_qubit_state(rng)
        v = np.kron(a, b)
        rho += w * np.outer(v, v.conj())
    return rho
