"""Brute-force reference implementations kept only as test oracles.

Nothing under ``src/`` imports from here; each module is the slow,
obviously-correct form a faster ``src/`` routine is pinned against.
"""
