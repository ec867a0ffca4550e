"""The tokenizing erasure, kept as the oracle for the erasure that
:class:`retrans.metrics.DisplayFold` folds from a cut at the displays'
shared prefix.

Every display is tokenized in full and compared with the previous one
token by token, by a literal prefix count: no code is shared with
:mod:`retrans.metrics` or :mod:`retrans.align`.
"""

from __future__ import annotations

from typing import Sequence

from retrans.eventlog import EventLog, tokenize


def common_prefix_len(a: Sequence[str], b: Sequence[str]) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def tokenizing_erasure(log: EventLog) -> list[int]:
    """Tokens retracted at each event: the previous display's length minus
    the prefix the new display keeps, the first event against an empty one."""
    previous: list[str] = []
    retracted = []
    for event in log:
        current = tokenize(event.output_text)
        retracted.append(len(previous) - common_prefix_len(current, previous))
        previous = current
    return retracted
