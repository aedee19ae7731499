"""Partially directed configuration-model graphs and their distortion metrics.

Pipeline: draw degree triples (degrees), pair the stubs uniformly
(matching), erase what a simple graph cannot keep (simplify), then
measure what the erasures did (metrics, components, saveprob).  ingest
brings external edge lists into the same representation; experiment and
cli wire everything into reproducible runs.
"""
