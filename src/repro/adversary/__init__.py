"""Misbehaving-peer models and the deterministic feedback fuzzer.

The trust boundary this package attacks is the acknowledgment stream:
every model wraps the reverse (feedback-direction) port of a
connection and rewrites, withholds, replays, or garbles frames in
flight, while the data direction stays honest.  The sender's feedback
guard (:mod:`repro.transport.guard`, DESIGN.md section 17) is the
defense under test; the chaos plane sweeps the models across the
scheme matrix (``adv-*`` scenarios) and :mod:`repro.adversary.fuzz`
replays seeded mutation corpora asserting full-delivery-or-clean-abort.

Quickstart::

    from repro.adversary import fuzz_run, make_adversary

    result = fuzz_run(scheme="tcp-tack", seed=7)
    assert result.ok, result.to_dict()

    # or wrap a reverse port by hand:
    adv = make_adversary("optimistic-acker", sim, path.reverse)
    conn.wire(path.forward, adv)

CLI: ``python -m repro.adversary fuzz``; one model's transfer is
``python -m repro.chaos run --scenario adv-<model>``.
"""

from repro.adversary.models import (
    ADVERSARIES,
    AckWithholder,
    AdversaryPort,
    FbSeqReplayer,
    FieldMangler,
    OptimisticAcker,
    PullFlooder,
    RttPoisoner,
    make_adversary,
)
from repro.adversary.fuzz import (
    CLEAN_ABORT_REASONS,
    FUZZ_SCHEMES,
    CorpusReport,
    FeedbackFuzzer,
    FuzzResult,
    fuzz_corpus,
    fuzz_run,
)

__all__ = [
    "ADVERSARIES",
    "AckWithholder",
    "AdversaryPort",
    "CLEAN_ABORT_REASONS",
    "CorpusReport",
    "FUZZ_SCHEMES",
    "FbSeqReplayer",
    "FeedbackFuzzer",
    "FieldMangler",
    "FuzzResult",
    "OptimisticAcker",
    "PullFlooder",
    "RttPoisoner",
    "fuzz_corpus",
    "fuzz_run",
    "make_adversary",
]
