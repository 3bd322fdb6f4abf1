import threading
import time

import numpy as np
import pytest

from solq.scenarios import _sweep


def _outcome(call):
    """('ok', result) or ('raised', type, args) of call()."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "raised", type(exc), exc.args


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("length", [0, 1, 2, 5])
def test_sweep_matches_a_serial_loop(threads, length):
    for values in (list(range(length)), np.linspace(0.0, 1.0, length)):
        index = {float(v): i for i, v in enumerate(values)}
        for failing in (set(), {length - 1}, set(range(1, length, 2)), set(range(length))):

            def fn(v):
                if index[float(v)] in failing:
                    raise ValueError(index[float(v)])
                return 2.0 * v + 1.0

            want = _outcome(lambda: [fn(v) for v in values])
            assert _outcome(lambda: _sweep(fn, values, threads)) == want


@pytest.mark.parametrize("raising", [0, 1])
def test_sweep_raises_only_after_every_chunk_finished(raising):
    # three chunks of one value each: the caller's (0) or a worker's (1)
    # raises at once, while the others sleep first
    finished = []

    def fn(v):
        if v == raising:
            raise RuntimeError(v)
        time.sleep(0.05)
        finished.append(v)

    with pytest.raises(RuntimeError) as exc:
        _sweep(fn, [0, 1, 2], 3)
    assert exc.value.args == (raising,)
    assert sorted(finished) == [v for v in (0, 1, 2) if v != raising]


@pytest.mark.parametrize("threads", [2, 3])
def test_back_to_back_sweeps_reuse_their_workers(threads):
    caller = threading.current_thread()
    # tasks that outlast their submission start every worker of the pool
    _sweep(lambda v: time.sleep(0.01), range(threads), threads)
    count = threading.active_count()
    workers = set()
    for _ in range(20):
        ran_on = _sweep(lambda v: threading.current_thread(), range(2 * threads), threads)
        assert ran_on[0] is caller  # the caller takes the first share
        workers.update(t for t in ran_on if t is not caller)
        assert threading.active_count() == count
    assert 1 <= len(workers) <= threads - 1
