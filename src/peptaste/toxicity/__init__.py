"""Toxicity screening: from-scratch base classifiers, MCC-first metrics,
descriptor selection, weight-grid search, and the voting ensemble."""
