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


@pytest.fixture
def set_pull_cap(monkeypatch):
    """``set_pull_cap(n)`` sets the byte cap of ``broadcast.pull`` for
    the rest of the test, in place of ``_MAX_PULL_BYTES``, and returns
    a list of the path each later pull took: ``"broadcast"`` when it
    returned the frames, ``"shuffle"`` when it returned ``None``."""
    from mlscraper_ray.functions import broadcast

    real_pull = broadcast.pull
    paths: list[list[str]] = [[]]

    def recording_pull(*datasets):
        frames = real_pull(*datasets)
        paths[-1].append("shuffle" if frames is None else "broadcast")
        return frames

    monkeypatch.setattr(broadcast, "pull", recording_pull)

    def set_cap(n: int) -> list[str]:
        monkeypatch.setattr(broadcast, "_MAX_PULL_BYTES", n)
        paths.append([])
        return paths[-1]

    return set_cap
