"""Walk through the two-class benchmark: how much does modeling the mask buy?

Generates a controlled dataset where the *pattern* of missing values carries
class information, then compares a Gaussian-only kernel against the
mixed-mode kernel that models the observation mask, with and without label
information. Runs at a reduced ensemble size so it finishes in ~20 seconds;
`tck reproduce` runs the full-size version.
"""
from tck.cli import _derive_seed, stratified_label_subset
from tck.data import labels_to_onehot, standardize
from tck.ensemble import (EnsembleConfig, apply_posterior_transform,
                          kernel_test, train_ensemble)
from tck.evaluation import knn_predict, kpca
from tck.mixture import GAUSSIAN_ONLY, MIXED_MODE
from tck.synth import gen_var1, inject_var1_mnar
from tck.transform import make_semisupervised_factory, make_supervised_factory

SEED = 0

print(__doc__)

# --- data: two VAR(1) classes, then value-dependent cell removal ------------
train, test = gen_var1(seed=SEED)
train = inject_var1_mnar(train, seed=_derive_seed(SEED, 11))
test = inject_var1_mnar(test, seed=_derive_seed(SEED, 12))
print(f"training series: {train.n}, test series: {test.n}, "
      f"missing fraction: {1 - train.mask.mean():.2f}")

train_std, stats = standardize(train)
test_std = stats.apply(test)

full_labels = labels_to_onehot(train.labels, 2)
partial = stratified_label_subset(train.labels, 20, _derive_seed(SEED, 13))
partial_labels = labels_to_onehot(partial, 2)
print(f"label budget for the semi-supervised variants: "
      f"{int((partial > 0).sum())} of {train.n} series\n")


def accuracy(ens, kernel):
    embedding, projector = kpca(kernel, d=10)
    kstar = kernel_test(ens, test_std)
    preds = knn_predict(embedding.coords, train.labels,
                        projector.transform(kstar), k=1)
    return (preds == test.labels).mean()


for mode, family in ((GAUSSIAN_ONLY, "values only"), (MIXED_MODE, "values + mask")):
    cfg = EnsembleConfig(n_init=8, component_counts=tuple(range(2, 13)),
                         seed=_derive_seed(SEED, 21 if mode == GAUSSIAN_ONLY else 22),
                         mode=mode)
    ens, kernel = train_ensemble(train_std, cfg)
    ss = apply_posterior_transform(ens, make_semisupervised_factory(partial_labels, 0.1))
    sup = apply_posterior_transform(ens, make_supervised_factory(full_labels))
    print(f"{family}:")
    print(f"  unsupervised kernel      -> 1-NN accuracy {accuracy(ens, kernel):.3f}")
    print(f"  + 20 labels (anchored)   -> 1-NN accuracy {accuracy(*ss):.3f}")
    print(f"  + all labels             -> 1-NN accuracy {accuracy(*sup):.3f}")

print("\nThe mask-aware family wins because the drop probability depends on "
      "the class,\nso the missingness pattern itself is a feature.")
