"""The "manual labelling" oracle.

In the paper, Coremail's professionals hand-label the top-200 Drain
templates into the 16 types and flag templates whose text is too vague to
label (Table 6).  This module encodes that human judgement as an ordered
keyword rule engine operating on template/message *text only* — it is the
labelling function, not a shortcut into simulator ground truth (tests
verify it against ground truth exactly because the two are independent).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.taxonomy import BounceType

#: Ambiguous wordings (Table 6): no reason is recoverable from the text.
AMBIGUOUS_PATTERNS: list[re.Pattern] = [
    re.compile(r"access denied\. as\(\d+\)", re.I),
    re.compile(r"message rejected due to local policy", re.I),
    re.compile(r"mail is rejected by recipients", re.I),
    re.compile(r"not allowed\.\(connect\)", re.I),
    re.compile(r"relay access denied", re.I),
]

#: Wordings that are classifiable but carry no recoverable reason — the
#: paper's T16 examples ("not RFC 5322 compliant", "Intrusion prevention
#: active").  Distinct from AMBIGUOUS_PATTERNS (Table 6), which are
#: excluded from classification entirely.
UNKNOWN_TYPE_PATTERNS: list[re.Pattern] = [
    re.compile(r"not rfc 5322 compliant", re.I),
    re.compile(r"intrusion prevention active", re.I),
    re.compile(r"unexpected condition, contact postmaster", re.I),
    re.compile(r"administrative prohibition", re.I),
]


@dataclass(frozen=True)
class LabelRule:
    pattern: re.Pattern
    bounce_type: BounceType
    note: str = ""


def _rule(regex: str, bounce_type: BounceType, note: str = "") -> LabelRule:
    return LabelRule(re.compile(regex, re.I), bounce_type, note)


#: Ordered rules: first match wins.  Order matters where wordings overlap
#: (e.g. "over quota and inactive" must hit T9 before the inactive rule).
LABEL_RULES: list[LabelRule] = [
    # -- T9 mailbox full (before inactive/user rules) -------------------------
    _rule(r"over quota", BounceType.T9),
    _rule(r"mailbox (is )?full", BounceType.T9),
    _rule(r"mailbox size limit", BounceType.T9),
    _rule(r"disk space limit", BounceType.T9),
    _rule(r"insufficient.*storage", BounceType.T9),
    _rule(r"over its storage limit", BounceType.T9),
    # -- T5 blocklists ---------------------------------------------------------
    _rule(r"spamhaus", BounceType.T5),
    _rule(r"spamcop", BounceType.T5),
    _rule(r"\brbl\b", BounceType.T5),
    _rule(r"blocklist|blacklist|banned sending ip", BounceType.T5),
    _rule(r"blocked using", BounceType.T5),
    _rule(r"poor reputation", BounceType.T5),
    # -- T6 greylisting ----------------------------------------------------------
    _rule(r"greylist|graylist|postgrey", BounceType.T6),
    # -- T7 too fast ----------------------------------------------------------------
    _rule(r"rate that prevents", BounceType.T7),
    _rule(r"deferred due to unexpected volume", BounceType.T7),
    _rule(r"too many connections", BounceType.T7),
    _rule(r"connection rate limit", BounceType.T7),
    # -- T3 authentication ------------------------------------------------------------
    _rule(r"spf|dkim|dmarc", BounceType.T3),
    _rule(r"authentication (checks|information)", BounceType.T3),
    _rule(r"unauthenticated email", BounceType.T3),
    _rule(r"sender authentication policy", BounceType.T3),
    # -- T4 STARTTLS -------------------------------------------------------------------
    _rule(r"starttls|must issue a starttls", BounceType.T4),
    _rule(r"requires tls|tls required", BounceType.T4),
    _rule(r"encryption required", BounceType.T4),
    _rule(r"security subsystem", BounceType.T4),
    # -- T1 sender domain DNS -------------------------------------------------------------
    _rule(r"sender address rejected: domain not found", BounceType.T1),
    _rule(r"sender domain must resolve", BounceType.T1),
    _rule(r"verify sender domain", BounceType.T1),
    _rule(r"sender domain .* does not exist", BounceType.T1),
    _rule(r"domain of sender address .* does not resolve", BounceType.T1),
    _rule(r"sender domain .* does not resolve", BounceType.T1),
    # -- T2 receiver domain DNS ------------------------------------------------------------
    _rule(r"domain lookup failed", BounceType.T2),
    _rule(r"nxdomain", BounceType.T2),
    _rule(r"host unknown", BounceType.T2),
    _rule(r"no mail hosts", BounceType.T2),
    _rule(r"name service error", BounceType.T2),
    _rule(r"invalid mx record", BounceType.T2),
    _rule(r"receiver domain .* does not resolve", BounceType.T2),
    # -- T14 timeout (before generic connection words) -----------------------------------------
    _rule(r"timed out|timeout", BounceType.T14),
    _rule(r"did not respond within", BounceType.T14),
    # -- T15 interruption ---------------------------------------------------------------------------
    _rule(r"lost connection", BounceType.T15),
    _rule(r"connection dropped", BounceType.T15),
    _rule(r"closed connection unexpectedly|broken pipe", BounceType.T15),
    _rule(r"connection reset by peer", BounceType.T15),
    _rule(r"session .* was interrupted", BounceType.T15),
    # -- T10 too many recipients ---------------------------------------------------------------------
    _rule(r"too many (invalid )?recipients", BounceType.T10),
    # -- T11 recipient rate/volume ----------------------------------------------------------------------
    _rule(r"receiving mail too quickly", BounceType.T11),
    _rule(r"unusual rate of unsolicited mail destined", BounceType.T11),
    _rule(r"daily message quota", BounceType.T11),
    _rule(r"incoming message limit", BounceType.T11),
    # -- T12 size -----------------------------------------------------------------------------------------
    _rule(r"message size exceeds|exceeded our message size", BounceType.T12),
    _rule(r"size .* exceeds the limit", BounceType.T12),
    _rule(r"message too large", BounceType.T12),
    # -- T13 content spam --------------------------------------------------------------------------------------
    _rule(r"likely unsolicited mail", BounceType.T13),
    _rule(r"rejected as spam|spam or virus", BounceType.T13),
    _rule(r"consider spam|considered spam", BounceType.T13),
    _rule(r"content filtering|content rule set", BounceType.T13),
    _rule(r"probability of spam", BounceType.T13),
    _rule(r"spam scale|spamassassin", BounceType.T13),
    _rule(r"classified as spam", BounceType.T13),
    # -- T8 no such user / inactive (late: wording overlaps with much else) ----------------------------------------
    _rule(r"over quota and inactive", BounceType.T9),
    _rule(r"does not exist|doesn't (exist|have)", BounceType.T8),
    _rule(r"user unknown|no such user", BounceType.T8),
    _rule(r"recipientnotfound|not found by smtp address lookup", BounceType.T8),
    _rule(r"could not be found, or was misspelled", BounceType.T8),
    _rule(r"account .* is (disabled|inactive)", BounceType.T8),
    _rule(r"inactive user", BounceType.T8),
    _rule(r"mailbox unavailable", BounceType.T8),
    _rule(r"no mailbox here by that name", BounceType.T8),
]


# The patterns above searched case-sensitively over lower-cased text.  On
# ASCII text they match exactly where the re.I patterns do, since every
# pattern is written in lower case with no bracketed character class and
# no inline flag (tests/test_labeling.py holds them to that).  re.I also
# folds some non-ASCII letters onto rule letters ("ſ" onto "s", the
# Kelvin sign onto "k", "İ" and "ı" onto "i") where str.lower() does not,
# so non-ASCII text keeps the re.I patterns.
_LOWER_AMBIGUOUS = [re.compile(p.pattern) for p in AMBIGUOUS_PATTERNS]
_LOWER_RULES = [(re.compile(r.pattern.pattern), r.bounce_type) for r in LABEL_RULES]
_RULES = [(r.pattern, r.bounce_type) for r in LABEL_RULES]


def _scan(text: str) -> tuple[str, list, list]:
    """The text to search and the ambiguity and rule patterns to search
    it with: ASCII text lower-cased once, other text as it is."""
    if text.isascii():
        return text.lower(), _LOWER_AMBIGUOUS, _LOWER_RULES
    return text, AMBIGUOUS_PATTERNS, _RULES


def rule_verdict(text: str) -> tuple[bool, BounceType | None]:
    """Whether ``text`` is ambiguous, and otherwise its first
    :data:`LABEL_RULES` match (``None`` when ambiguous or unmatched),
    from one lower-cased pass."""
    text, ambiguous, rules = _scan(text)
    for pattern in ambiguous:
        if pattern.search(text):
            return True, None
    for pattern, bounce_type in rules:
        if pattern.search(text):
            return False, bounce_type
    return False, None


def is_ambiguous_text(text: str) -> bool:
    text, ambiguous, _ = _scan(text)
    return any(p.search(text) for p in ambiguous)


def label_text(text: str) -> BounceType | None:
    """Expert label for one template/message text.

    Returns ``None`` for ambiguous or unrecognised wordings (the expert
    declines to label — such templates are excluded from training, and at
    prediction time unmatched messages fall into T16).
    """
    return rule_verdict(text)[1]


def match_rules(text: str) -> BounceType | None:
    """The first :data:`LABEL_RULES` match, without the ambiguity check
    of :func:`label_text`."""
    text, _, rules = _scan(text)
    for pattern, bounce_type in rules:
        if pattern.search(text):
            return bounce_type
    return None
