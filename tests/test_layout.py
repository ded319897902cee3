"""Every fit and prediction is a function of a table's values, not of its
memory layout: a row-major table, its column-major copy, a column-strided
view of it and a DataMatrix column selection give the same bits, on the
training side and on the query side."""

import json

import numpy as np
import pytest

from tocc import DataMatrix, RngStream, load_glass, save_model
from tocc.classifier import pam
from tocc.density import fit_gmm
from tocc.evaluation import ALL_METHODS, fit_method
from tocc.featsel import fit_rp_ensemble, pca_reduce
from tocc.numcore import spatial_median


def versions(table: DataMatrix, features):
    """The named columns of table as a row-major array, its column-major
    copy, a view whose columns lie two apart, and select_features."""
    selected = table.select_features(features)
    rows = np.ascontiguousarray(selected.values)
    wide = np.zeros((rows.shape[0], 2 * rows.shape[1]))
    wide[:, ::2] = rows
    strided = wide[:, ::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    return {"C": rows, "F": np.asfortranarray(rows), "strided": strided,
            "selected": selected}


def glass_case():
    # Si and Mg: the glass column pair whose column-major copy moved the
    # Gaussian, mixture and kernel scores, the spatial median and the
    # mixture fit before the layout was fixed in one place.
    glass = load_glass()
    target = glass.select_rows(glass.is_target())
    return versions(target, ["Si", "Mg"]), versions(glass, ["Si", "Mg"])


def random_case(seed):
    gen = np.random.default_rng(seed)
    mix = gen.normal(size=(3, 3))
    train = DataMatrix(gen.normal(size=(60, 3)) @ mix, ["a", "b", "c"])
    queries = DataMatrix(gen.normal(size=(40, 3)) @ mix * 1.5, ["a", "b", "c"])
    return versions(train, ["c", "a", "b"]), versions(queries, ["c", "a", "b"])


CASES = {"glass-Si-Mg": glass_case, "random": lambda: random_case(1)}
# A mixture search over G = 1..4 with two restarts each keeps the mixture
# fits quick; tocc-db takes the fewest draws an integrator allows.
SETTINGS = dict(components_range=(1, 4), n_restarts=2, mc_samples=10_000)


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


def fields(model, tmp_path):
    """A fitted model's saved fields but its feature names, which a plain
    array does not have."""
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["feature_names"]
    return doc


def same_prediction(a, b):
    assert np.array_equal(a.accept, b.accept)
    assert np.array_equal(a.score, b.score)
    assert np.array_equal(a.cluster, b.cluster)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_methods(case, method, tmp_path):
    # Equal saved fields make equal models, so the queries go to one.
    train, queries = case
    model = fit_method(method, train["C"], 0.9, RngStream(3), **SETTINGS)
    want = fields(model, tmp_path)
    for kind, X in train.items():
        got = fit_method(method, X, 0.9, RngStream(3), **SETTINGS)
        assert fields(got, tmp_path) == want, kind
    prediction = model.predict(queries["C"])
    for Z in queries.values():
        same_prediction(model.predict(Z), prediction)


@pytest.mark.parametrize("variant", ["df", "pam_df"])
def test_ensembles(case, variant):
    train, queries = case
    ensembles = {kind: fit_rp_ensemble(X, 1, 5, 4, 0.9, RngStream(4),
                                       variant=variant, k=3)
                 for kind, X in train.items()}
    ensemble = ensembles["C"]
    for kind, ens in ensembles.items():
        for P, Q in zip(ens.projections, ensemble.projections):
            assert np.array_equal(P, Q), kind
        for sub, ref in zip(ens.sub_models, ensemble.sub_models):
            assert np.array_equal(sub.prototypes, ref.prototypes), kind
            assert np.array_equal(sub.thresholds, ref.thresholds), kind
            for group, ref_group in zip(sub.groups, ref.groups):
                assert np.array_equal(group, ref_group), kind
    prediction = ensemble.predict(queries["C"])
    for Z in queries.values():
        same_prediction(ensemble.predict(Z), prediction)


def test_primitives(case):
    train, queries = case
    want_median = spatial_median(train["C"])
    want_gmm = fit_gmm(train["C"], (1, 4), RngStream(5), n_restarts=2)
    want_pam = pam(train["C"], 3)
    reducer, reduced = pca_reduce(train["C"], 2)
    want_applied = reducer.apply(queries["C"]).values
    for kind, X in train.items():
        assert np.array_equal(spatial_median(X), want_median), kind
        f = fit_gmm(X, (1, 4), RngStream(5), n_restarts=2)
        for got, ref in ((f.weights, want_gmm.weights), (f.means, want_gmm.means),
                         (f.covariances, want_gmm.covariances)):
            assert np.array_equal(got, ref), kind
        p = pam(X, 3)
        assert (p.medoids, p.total_cost) == (want_pam.medoids, want_pam.total_cost)
        assert np.array_equal(p.assignment, want_pam.assignment), kind
        r, values = pca_reduce(X, 2)
        assert np.array_equal(r.mean, reducer.mean), kind
        assert np.array_equal(r.basis, reducer.basis), kind
        assert np.array_equal(values.values, reduced.values), kind
    for kind, Z in queries.items():
        assert np.array_equal(reducer.apply(Z).values, want_applied), kind
