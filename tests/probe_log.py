"""Reading one operation's probes back out of a probe log, and asking a
structure one query."""

from cplab.chronogram import replay_queries


def segment(trace, op_id) -> list[int]:
    """Addresses the operation probed, in probe order."""
    return [address for op, _, address, _ in trace.rows() if op == op_id]


def ask(structure, q) -> tuple[int, tuple[int, ...]]:
    """The structure's answer to q and the addresses it read, by replay."""
    ((answer, addresses),) = replay_queries(structure, [q])
    return answer, addresses
