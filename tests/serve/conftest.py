"""Shared probes for the serving tests."""


def assert_quiescent(engine):
    """Assert ``engine`` holds no request: no twin riding an in-flight
    request, an empty queue, and no in-flight reservation left."""
    with engine._cond:
        reserved = list(engine._inflight.values())
        waiting = len(engine._queue)
    assert not any(r.twins for r in reserved), "a request still carries twins"
    assert waiting == 0, f"{waiting} requests still queued"
    assert not reserved, f"{len(reserved)} in-flight reservations left"
