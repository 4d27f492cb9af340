"""Deliberately naive reference models that tests compare the simulator against."""
