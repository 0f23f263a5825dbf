"""Shared probes for the test suite."""


def assert_quiescent(backend):
    """Assert ``backend`` holds no request.

    An engine: no twin riding an in-flight request, an empty queue, and
    no in-flight reservation left. A ``FleetRouter``: every replica's
    engine, dead or alive. A ``PyramidService``: no outstanding tile,
    and its backend quiescent.
    """
    if hasattr(backend, "pyramid"):
        assert backend.outstanding == 0, \
            f"{backend.outstanding} tiles still outstanding"
        backend = backend.backend
    if hasattr(backend, "replicas"):
        for replica in backend.replicas:
            assert_quiescent(replica.engine)
        return
    with backend._cond:
        reserved = list(backend._inflight.values())
        waiting = len(backend._queue)
    assert not any(r.twins for r in reserved), "a request still carries twins"
    assert waiting == 0, f"{waiting} requests still queued"
    assert not reserved, f"{len(reserved)} in-flight reservations left"
