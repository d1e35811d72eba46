"""Measurement pipeline and experiment harness (tables T1–T8)."""
