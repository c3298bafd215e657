"""Per-function call counts and self time for the squeezetransfer package,
measured from outside by wrapping its public functions.

Each target is wrapped once: in its defining module and under every name by
which another package module imported it, or on its class for methods and
constructors.  Coarse boundaries are also kept as spans (name, start, end,
parent span); everything else is aggregated into counts plus self time, where
self time is a call's duration minus that of the wrapped calls inside it.
A target that no longer exists is listed as absent rather than failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "squeezetransfer"


@dataclass(frozen=True)
class Target:
    metric: str  # metric prefix, '<layer>.<function>'
    module: str  # defining module inside the package
    attr: str  # attribute path in that module; 'Class.method' for methods
    span: bool = False  # keep each call as a span as well


# Layers follow the package's modules.  standard_space is defined in hilbert
# but is one-off set-up, so it is grouped with the set-up operators; the
# hilbert metrics then count only per-cell density-matrix work.
TARGETS = (
    Target("hamiltonian.build_hamiltonian", "hamiltonian", "build_hamiltonian", span=True),
    Target("hamiltonian.extract_manifold_block", "hamiltonian", "extract_manifold_block", span=True),
    Target("dynamics.evolve_closed_form_grid", "dynamics", "evolve_closed_form_grid", span=True),
    Target("dynamics.coefficients", "dynamics", "coefficients"),
    Target("dynamics.ManifoldState", "dynamics", "ManifoldState.__init__"),
    Target("dynamics.SpectralPropagator", "dynamics", "SpectralPropagator.__init__", span=True),
    Target("dynamics.SpectralPropagator.evolve_grid", "dynamics", "SpectralPropagator.evolve_grid", span=True),
    Target("dynamics.analytic_rho_atoms", "dynamics", "analytic_rho_atoms"),
    Target("dynamics.analytic_rho_photons", "dynamics", "analytic_rho_photons"),
    Target("hilbert.DensityMatrix", "hilbert", "DensityMatrix.__init__"),
    Target("hilbert.expectation", "hilbert", "expectation"),
    Target("witness.branch_witnesses", "witness", "branch_witnesses"),
    Target("witness.closed_form_quadrature_variance", "witness", "closed_form_quadrature_variance"),
    Target("witness.spin_moments", "witness", "spin_moments"),
    Target("witness.ossi", "witness", "ossi"),
    Target("witness.kitagawa_ueda_xi", "witness", "kitagawa_ueda_xi"),
    Target("witness.sorensen_xi_e2", "witness", "sorensen_xi_e2"),
    Target("operators.standard_space", "hilbert", "standard_space"),
    Target("operators.collective_atomic_spin", "operators", "collective_atomic_spin"),
    Target("operators.photonic_pseudospin", "operators", "photonic_pseudospin"),
    Target("operators.quadratures", "operators", "quadratures"),
    Target("sweep.main", "sweep", "main", span=True),
    Target("sweep.run_sweep", "sweep", "run_sweep", span=True),
    Target("sweep.emit", "sweep", "emit", span=True),
)


class CallTrace:
    """In-memory call statistics and spans; nothing is written until dump()."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stats: dict[str, list] = {}  # metric -> [calls, self_s, total_s]
        self.spans: list[dict] = []
        self.absent: list[str] = []
        # One frame per active wrapped call: [child seconds, enclosing span index].
        self._stack: list[list] = []

    def install(self, targets=TARGETS) -> "CallTrace":
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in targets:
            owner = sys.modules.get(f"{PACKAGE}.{target.module}")
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(target.metric)
                continue
            self.stats[target.metric] = [0, 0.0, 0.0]
            wrapper = self._wrap(target.metric, fn, target.span)
            if path:
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
        return self

    def _wrap(self, metric, fn, span):
        stack, stats, spans = self._stack, self.stats[metric], self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if span:
                frame[1] = len(spans)
                spans.append({"name": metric, "parent": parent})
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[frame[1]].update(start=start - self.origin, end=end - self.origin)

        return wrapper

    def summary(self) -> dict:
        return {
            "stats": {
                m: {"calls": c, "self_s": s, "total_s": t} for m, (c, s, t) in self.stats.items()
            },
            "absent": self.absent,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.summary(), "spans": self.spans}, fh)
