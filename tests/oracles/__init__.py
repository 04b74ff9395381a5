"""Frozen reference implementations the engines are checked against."""
