"""Layered host-cost benchmark of the simulator (see README.md)."""
