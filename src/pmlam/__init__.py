"""Probabilistic metric learning for top-K recommendation.

Users and items are Gaussian embeddings compared by the closed-form squared
Wasserstein-2 distance; triplet hinge losses use per-triplet margins from a
small network trained by bilevel optimization, with extra user-user and
item-item relation losses built from thresholded cosine neighborhoods.
"""
