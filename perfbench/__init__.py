"""Benchmark of the gmspectra CLI on seeded planted-subspace graphs."""
