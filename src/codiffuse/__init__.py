"""Co-diffusion of two coupled contagions on a lattice + random-regular multiplex."""

__version__ = "0.1.0"
