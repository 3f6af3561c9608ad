"""Workbench for finitary monads, equational theories, and distributive laws."""

__version__ = "0.1.0"
