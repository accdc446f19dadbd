"""Deterministic THz inter-satellite link simulator with debris sensing.

The package simulates debris-perturbed multi-ray MIMO channels, measures
QPSK link BER, extracts CSI-magnitude statistics and runs a two-stage
SVM pipeline for debris detection and classification.
"""

__version__ = "0.1.0"
