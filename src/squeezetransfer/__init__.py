"""Spin squeezing and particle entanglement transfer between atoms and
photons in two optical cavities coupled by two-photon exchange."""

from .hamiltonian import ManifoldBlock, ModelParams, build_hamiltonian, extract_manifold_block
from .hilbert import (
    CompositeSpace,
    DensityMatrix,
    HermitianOperator,
    Operator,
    SubsystemSpec,
    atom,
    expectation,
    photon_mode,
    standard_space,
)
from .dynamics import (
    CoefficientSet,
    InitialState,
    ManifoldState,
    coefficients,
    evolve_closed_form,
    evolve_numeric_oracle,
)
from .operators import (
    QuadraturePair,
    SpinTriple,
    collective_atomic_spin,
    ladder,
    photonic_pseudospin,
    quadratures,
)
from .sweep import GridSpec, Method, SweepConfig, SweepResult, emit, run_sweep
from .witness import (
    BranchWitnesses,
    OssiReport,
    branch_witnesses,
    kitagawa_ueda_xi,
    ossi,
    quadrature_variances,
    sorensen_xi_e2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
