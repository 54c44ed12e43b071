"""Exact finite-group character theory and fusion-rule positivity audits.

Constructs an order-128 group with an indicator +1 irreducible whose
tensor square contains an indicator -1 constituent, verifies every step
with exact cyclotomic arithmetic, and scans arbitrary small groups'
fusion data for violations of the positivity and Wang conjectures.
"""

__version__ = "0.1.0"
