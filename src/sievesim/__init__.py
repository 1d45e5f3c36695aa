"""sievesim: simulation and numerical verification of nested occupancy
schemes driven by heavy-tailed stick-breaking."""

__version__ = "0.1.0"
