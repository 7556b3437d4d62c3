"""How component posteriors become class posteriors.

A fitted mixture assigns each series a probability vector over its components.
With labels for some series, a row-stochastic matrix W maps components to
classes: rows with enough labeled evidence keep their own class profile,
label-starved rows borrow the profile of the nearest component (symmetrized
KL between the component Gaussians).
"""
import numpy as np

from tck.data import labels_to_onehot
from tck.mixture import GAUSSIAN_ONLY, MixtureParams, _symmetric_kls
from tck.transform import (apply_transform, semisupervised_transform,
                           supervised_transform)

print(__doc__)

# Three components on a line; only the outer two ever host labeled series.
params = MixtureParams(GAUSSIAN_ONLY, np.full(3, 1 / 3),
                       np.array([[[0.0]], [[2.0]], [[10.0]]]),
                       np.ones((3, 1)), None)

posteriors = np.array([
    [0.97, 0.03, 0.00],   # labeled class 1
    [0.95, 0.05, 0.00],   # labeled class 1
    [0.00, 0.02, 0.98],   # labeled class 2
    [0.00, 0.05, 0.95],   # labeled class 2
    [0.10, 0.85, 0.05],   # unlabeled, sits in the middle component
])
labels = labels_to_onehot(np.array([1, 1, 2, 2, 0]), 2)

tm = semisupervised_transform(posteriors, labels, params, h=0.1)
print("unnormalized row evidence:", np.round(tm.row_evidence, 3))
print("W (component -> class):")
print(np.round(tm.weights, 3))
to_left, to_right = _symmetric_kls(params, 1, [0, 2])
print(f"\nThe middle component saw no labels, so it copied its nearest "
      f"neighbor in\ndivergence: d(mid, left) = {to_left:.1f} "
      f"vs d(mid, right) = {to_right:.1f}.")

pi = posteriors[4]
print(f"\nunlabeled series posterior {pi} -> class posterior "
      f"{np.round(apply_transform(tm, pi), 3)}")

# With every series labeled the same machinery reduces to pure counting.
full = labels_to_onehot(np.array([1, 1, 2, 2, 1]), 2)
sup = supervised_transform(posteriors, full)
print("\nfully labeled W:")
print(np.round(sup.weights, 3))
