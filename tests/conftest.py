import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture
def executions(monkeypatch):
    """The number of Ray Data executor runs started during the test
    (``StreamingExecutor.execute`` wrapped)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    n = [0]
    real = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        n[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return n


@pytest.fixture
def partition_counts(monkeypatch):
    """The partition counts the sized exchanges choose during the test,
    in call order (``bsp.sized_parts`` wrapped)."""
    from text_to_rdf_ray.stages import bsp

    chosen: list = []
    real_sized_parts = bsp.sized_parts
    monkeypatch.setattr(bsp, "sized_parts", lambda *a: chosen.append(
        real_sized_parts(*a)) or chosen[-1])
    return chosen


@pytest.fixture
def sized_and_capped(monkeypatch, partition_counts):
    """``run()`` at the sized partition count and with every exchange at
    its cap (one partition per byte of input, through the Ray context's
    target_min_block_size): ``[(result, sorted counts chosen)] * 2``."""
    from ray.data import DataContext

    def runs(run):
        ctx = DataContext.get_current()
        out = []
        for part_bytes in (ctx.target_min_block_size, 1):
            monkeypatch.setattr(ctx, "target_min_block_size", part_bytes)
            partition_counts.clear()
            out.append((run(), sorted(set(partition_counts))))
        return out

    return runs
