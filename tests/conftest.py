import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def set_buckets(monkeypatch):
    """``set_buckets(n)`` fixes the bucket count of every shuffle
    (``bucketed.co_partition`` and its wrappers) for the rest of the
    test, in place of the cluster rule."""
    from mlscraper_ray.functions import bucketed

    def set_count(n: int) -> None:
        monkeypatch.setattr(bucketed, "_n_buckets", lambda: n)

    return set_count
