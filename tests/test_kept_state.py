"""Results do not depend on what earlier calls left in the package's stores.

The speed-ups keep state between calls in ten stores: the seven
``functools.lru_cache``s in the package's modules, plus three hand-made
stores.  Runs with every store cleared before each trial must equal runs
that read what earlier trials left behind.
"""
import importlib
import pkgutil

import chirpkey
from chirpkey import ExperimentConfig, channel, pipeline, reconciliation
from chirpkey.pipeline import rows_to_csv, run_sweep, run_trials

HAND_MADE = {
    "channel._normals": channel._normals,
    "channel._legs": channel._legs,
    "reconciliation._spare_tables": reconciliation._spare_tables,
}


def _lru_caches() -> dict:
    """Every cached function defined in one of the package's modules, by name."""
    caches = {}
    for info in pkgutil.iter_modules(chirpkey.__path__):
        module = importlib.import_module(f"chirpkey.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    return caches


def _clear_every_store() -> None:
    for cache in _lru_caches().values():
        cache.cache_clear()
    for store in HAND_MADE.values():
        store.clear()


def test_every_store_is_found():
    assert len(_lru_caches()) + len(HAND_MADE) == 10, sorted(_lru_caches())


def _digests(results) -> list[bytes]:
    return [r.confirmation.digest_a.digest + r.confirmation.digest_g.digest for r in results]


def test_results_equal_cold_and_warm(monkeypatch):
    trials = ExperimentConfig(trials=20)
    sweep = ExperimentConfig(trials=10, sweep_axis="alpha", sweep_values=(0.3, 0.7))

    observe = pipeline.observe

    def cold_observe(config, trial_seed):
        _clear_every_store()
        return observe(config, trial_seed)

    monkeypatch.setattr(pipeline, "observe", cold_observe)
    cold = _digests(run_trials(trials)), rows_to_csv(run_sweep(sweep))
    monkeypatch.setattr(pipeline, "observe", observe)
    warm = _digests(run_trials(trials)), rows_to_csv(run_sweep(sweep))
    assert len(cold[0]) == 20
    assert cold == warm
