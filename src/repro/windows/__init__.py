"""Windowing of the block stream (paper §II.C fixed, §III.A sliding)."""
