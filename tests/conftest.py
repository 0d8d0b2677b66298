"""Shared test oracles and helpers.

The correlation oracles below are the package's only direct-sum
reference forms.  They are deliberately written as plain Python
loops over Python complex numbers, independent of the package's numpy
implementations, so the two can disagree.
"""

import os
import socket
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import settings

from chansounder import frames
from chansounder.calib import CalibrationProfile
from chansounder.config import CampaignConfig

# the scripts of tools/ import as modules: check_memory's traced_peak is the
# tracemalloc window of every memory bound in tier 1
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))


def oracle_pccf(a, b):
    """Periodic cross-correlation by the direct definition, O(N^2)."""
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    assert len(a) == len(b)
    n = len(a)
    out = []
    for k in range(n):
        acc = 0j
        for i in range(n):
            acc += a[i] * b[(i - k) % n].conjugate()
        out.append(acc)
    return out


def oracle_pacf(a):
    return oracle_pccf(a, a)


#: Registered, not loaded: ``--hypothesis-profile=wide`` runs every
#: property (the transport property above all) at 1,000 examples.
settings.register_profile("wide", max_examples=1000)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def unit_profile(n_seq):
    """A profile that corrects nothing: a unit impulse of ``n_seq`` samples."""
    return CalibrationProfile(np.eye(1, n_seq)[0])


def range_checked_keys():
    """The config keys declared with a range check (``_setting(valid=)``),
    read from the rule each keeps in its field's metadata."""
    return {f.metadata["key"] for f in fields(CampaignConfig) if f.metadata.get("valid")}


@contextmanager
def on_cpus(count):
    """Run the block as if the process could run on ``count`` CPUs: the
    stages of :func:`frames.on_slices` cut their matrices that many ways."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "usable_cpus", lambda: count)
        yield


@contextmanager
def serving(serve, timeout=10.0):
    """Run ``serve(lsock)`` on a daemon thread, ``lsock`` listening on an
    ephemeral loopback port, and yield ``(endpoint, result)``: the
    ``host:port`` of ``lsock`` and a list that holds what ``serve``
    returned once the block has left.  On exit, also when the block
    fails, join the thread within ``timeout`` s and close ``lsock``; then
    raise again what ``serve`` raised, and fail if it is still running."""
    lsock = socket.create_server(("127.0.0.1", 0))
    result, raised = [], []

    def run():
        try:
            result.append(serve(lsock))
        except BaseException as exc:  # raised again on the caller's thread
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % lsock.getsockname()[1], result
    finally:
        thread.join(timeout)
        lsock.close()
        if raised:
            raise raised[0]
        assert not thread.is_alive(), f"the server still runs after {timeout} s"
