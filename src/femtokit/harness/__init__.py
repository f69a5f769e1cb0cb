"""Batch experiment harness: JSON scenario configs, Monte-Carlo runners,
deterministic CSV output, and self-checking oracles."""
