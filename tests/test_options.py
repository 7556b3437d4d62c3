"""Every option a caller can set through ``tck``'s public API is listed here,
so that a change which adds or removes one shows it in its diff."""
import dataclasses
import inspect

import tck

# (public name, parameter or field) for each defaulted parameter of a public
# function or method and each defaulted field of a public dataclass.
OPTIONS = {
    ("Dataset.restrict", "attributes"), ("Dataset.restrict", "time"),
    ("EnsembleConfig", "component_counts"), ("EnsembleConfig", "em_max_iter"),
    ("EnsembleConfig", "mode"), ("EnsembleConfig", "n_init"),
    ("EnsembleConfig", "normalize_by_models"), ("EnsembleConfig", "seed"),
    ("EnsembleConfig", "t_min"),
    ("Metrics", "f1"), ("Metrics", "fn"), ("Metrics", "fp"),
    ("Metrics", "sensitivity"), ("Metrics", "specificity"), ("Metrics", "tn"),
    ("Metrics", "tp"),
    ("TrainedEnsemble", "failed"), ("TrainedEnsemble", "transforms"),
    ("Var1Params", "length"), ("Var1Params", "n_per_class"),
    ("classification_metrics", "positive_class"),
    ("fit_map_em", "max_iter"), ("fit_map_em", "mode"), ("fit_map_em", "tol"),
    ("gen_var1", "params"), ("gen_var1", "seed"),
    ("inject_rate_mar", "seed"), ("inject_rate_mnar", "seed"),
    ("inject_var1_mnar", "seed"),
    ("kfold_evaluate", "folds"), ("kfold_evaluate", "positive_class"),
    ("kfold_evaluate", "seed"),
    ("knn_predict", "k"), ("kpca", "d"),
    ("load_dataset", "label_path"), ("save_dataset", "label_path"),
    ("make_semisupervised_factory", "h"), ("semisupervised_transform", "h"),
    ("select_k", "seed"),
    ("train_ensemble", "n_jobs"),
    ("tune_informativeness", "seed"),
}


def defaulted(name: str, function) -> set:
    return {(name, p.name) for p in inspect.signature(function).parameters.values()
            if p.default is not p.empty}


def public_options() -> set:
    """The (name, parameter or field) pairs of ``tck``'s public names."""
    found = set()
    for name, obj in vars(tck).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isfunction(obj):
            found |= defaulted(name, obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found |= {(name, f.name) for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING}
            for method, function in vars(obj).items():
                if not method.startswith("_") and inspect.isfunction(function):
                    found |= defaulted(f"{name}.{method}", function)
    return found


def test_public_options_are_the_listed_ones():
    assert len(OPTIONS) == 41
    assert public_options() == OPTIONS
