"""Spin squeezing and particle entanglement transfer between atoms and
photons in two optical cavities coupled by two-photon exchange."""

__version__ = "0.1.0"
