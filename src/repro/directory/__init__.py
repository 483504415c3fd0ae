"""Directory-based coherence: entries, policies, and the adaptive protocol."""

from repro.directory.entry import DirectoryEntry, DirState
from repro.directory.policy import (
    AGGRESSIVE,
    BASIC,
    CONSERVATIVE,
    CONVENTIONAL,
    PAPER_POLICIES,
    STENSTROM,
    AdaptivePolicy,
    policy_by_name,
)
from repro.directory.protocol import DirectoryProtocol
from repro.directory.representation import (
    DirectoryRepresentation,
    FullMapDirectory,
    LimitedPointerDirectory,
)

__all__ = [
    "AGGRESSIVE",
    "AdaptivePolicy",
    "BASIC",
    "CONSERVATIVE",
    "CONVENTIONAL",
    "DirState",
    "DirectoryEntry",
    "DirectoryProtocol",
    "DirectoryRepresentation",
    "FullMapDirectory",
    "LimitedPointerDirectory",
    "PAPER_POLICIES",
    "STENSTROM",
    "policy_by_name",
]
