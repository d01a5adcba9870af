"""Reading one operation's probes back out of a probe log."""


def segment(trace, op_id) -> list[int]:
    """Addresses the operation probed, in probe order."""
    return [address for op, _, address, _ in trace.rows() if op == op_id]
