"""Femtocell network toolkit: minimum-power layered multicast and
stochastic scheduling of scalable video over sensed licensed spectrum."""

__version__ = "0.1.0"
