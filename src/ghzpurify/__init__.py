"""Exact simulation of logic Bell pairs built from GHZ blocks, their
purification against logic and physical errors, and direct correction of
single physical bit flips, plus a sampling harness and a dense
density-matrix cross-check engine.

The package root exports nothing: import from the layer modules
(ghzpurify.protocol, ghzpurify.harness, ...).
"""
