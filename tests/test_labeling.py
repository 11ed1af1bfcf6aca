"""Unit tests for the expert labelling rules."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import SimulationConfig, run_simulation
from repro.analysis.label import RuleLabeler
from repro.core.labeling import (
    AMBIGUOUS_PATTERNS,
    LABEL_RULES,
    UNKNOWN_TYPE_PATTERNS,
    is_ambiguous_text,
    label_text,
    match_rules,
)
from repro.core.taxonomy import BounceType

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse


class TestAmbiguity:
    @pytest.mark.parametrize(
        "text",
        [
            "ABCDEF 5.4.1 Recipient address rejected: Access denied. AS(201806281)",
            "554 5.7.1 xyz Message rejected due to local policy.",
            "550 q Mail is rejected by recipients a@b.c",
            "10.0.0.1 Not allowed.(CONNECT)",
            "454 Relay access denied q123",
        ],
    )
    def test_table6_templates_ambiguous(self, text):
        assert is_ambiguous_text(text)
        assert label_text(text) is None

    def test_informative_not_ambiguous(self):
        assert not is_ambiguous_text("550 5.1.1 user does not exist")

    def test_unknown_type_patterns_distinct_from_ambiguous(self):
        text = "550 QQ This message is not RFC 5322 compliant"
        assert not is_ambiguous_text(text)
        assert label_text(text) is None
        assert any(p.search(text) for p in UNKNOWN_TYPE_PATTERNS)


class TestRules:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("450 4.1.8 <a@b.c>: Sender address rejected: Domain not found", BounceType.T1),
            ("554 5.4.4 [internal] domain lookup failed for x.com: Host not found", BounceType.T2),
            ("550 5.4.4 DNS lookup for x.com returned NXDOMAIN", BounceType.T2),
            ("550-5.7.26 ... fails to pass authentication checks (SPF or DKIM)", BounceType.T3),
            ("530 5.7.0 Must issue a STARTTLS command first", BounceType.T4),
            ("554 5.7.1 Service unavailable; Client host [1.2.3.4] blocked using zen.spamhaus.org", BounceType.T5),
            ("451 4.7.1 Greylisting in action, please come back later", BounceType.T6),
            ("421 4.7.0 [1.2.3.4] Messages from this IP temporarily deferred due to unexpected volume", BounceType.T7),
            ("550-5.1.1 The email account that you tried to reach does not exist.", BounceType.T8),
            ("452-4.2.2 The email account that you tried to reach is over quota", BounceType.T9),
            ("452 4.5.3 Too many recipients; message not accepted", BounceType.T10),
            ("554 5.7.1 Daily message quota exceeded for recipient a@b.c", BounceType.T11),
            ("552 5.3.4 Message size exceeds fixed maximum message size (1000 bytes)", BounceType.T12),
            ("554 5.7.1 Message rejected as spam by Content Filtering", BounceType.T13),
            ("conversation with mx1.b.com[1.2.3.4] timed out while receiving the initial server greeting", BounceType.T14),
            ("lost connection with mx1.b.com[1.2.3.4] while sending message body", BounceType.T15),
        ],
    )
    def test_representative_wordings(self, text, expected):
        assert label_text(text) is expected

    def test_over_quota_and_inactive_is_t9(self):
        # Rule-ordering subtlety from Appendix B.
        text = "552-5.2.2 The email account that you tried to reach is over quota and inactive"
        assert label_text(text) is BounceType.T9

    def test_inactive_account_is_t8(self):
        assert label_text("554 5.7.1 Account a@b.c is inactive and cannot receive email") is BounceType.T8

    def test_overloaded_5_7_1_not_resolved_by_code(self):
        """The same 550-5.7.1 code labels three different types — the
        paper's Appendix B point that codes alone cannot classify."""
        texts = {
            "550 5.7.1 Recipient address rejected: user a@b.c does not exist": BounceType.T8,
            "550 5.7.1 This email was rejected because it violates our security policy. Remotehost is listed in the following RBL lists: SpamCop": BounceType.T5,
            "550 5.7.1 Message contains spam or virus. (Q123)": BounceType.T13,
        }
        for text, expected in texts.items():
            assert label_text(text) is expected

    def test_unrecognised_returns_none(self):
        assert label_text("591 something entirely novel happened") is None

    def test_rules_cover_all_classifiable_types(self):
        covered = {rule.bounce_type for rule in LABEL_RULES}
        expected = {t for t in BounceType if t is not BounceType.T16}
        assert covered == expected

    def test_patterns_compiled(self):
        assert all(hasattr(p, "search") for p in AMBIGUOUS_PATTERNS)


# -- the lower-cased scan ----------------------------------------------------------
#
# ASCII text is lower-cased once and searched with case-sensitive twins of
# the patterns; other text is searched with the re.I patterns themselves.
# Every entry point must agree with a plain loop over the re.I patterns.


def _reference(text: str) -> tuple[bool, BounceType | None]:
    """Whether a re.I ambiguity pattern matches ``text``, and the first
    re.I rule that does, in LABEL_RULES order."""
    ambiguous = any(p.search(text) for p in AMBIGUOUS_PATTERNS)
    for rule in LABEL_RULES:
        if rule.pattern.search(text):
            return ambiguous, rule.bounce_type
    return ambiguous, None


def assert_scans_agree(text: str) -> None:
    ambiguous, rule = _reference(text)
    assert is_ambiguous_text(text) is ambiguous
    assert match_rules(text) is rule
    label = None if ambiguous else rule
    assert label_text(text) is label
    if label is None and not ambiguous:
        label = BounceType.T16
    assert RuleLabeler().classify(text) is label


def _failure_texts(records) -> list[str]:
    return sorted({a.result for r in records for a in r.attempts if not a.succeeded})


def test_scan_agrees_on_the_seed_9_log():
    texts = _failure_texts(run_simulation(SimulationConfig(scale=0.03, seed=9)).dataset)
    assert len(texts) > 1000
    for text in texts:
        assert_scans_agree(text)


def test_scan_agrees_on_the_session_dataset(dataset):
    texts = _failure_texts(dataset)
    assert len(texts) > 1000
    for text in texts:
        assert_scans_agree(text)


#: re.I folds each of these letters onto an ASCII rule letter, and
#: str.lower() does not: "ſ" (long s), "K" (Kelvin sign), "İ" and "ı".
@pytest.mark.parametrize("text,expected", [
    ("550 listed at \u017fpamhaus.org", BounceType.T5),
    ("554 client host bloc\u212aed using zen", BounceType.T5),
    ("550 \u0130nactive user", BounceType.T8),
    ("550 \u0131nactive user", BounceType.T8),
])
def test_non_ascii_text_keeps_the_re_i_folds(text, expected):
    assert label_text(text) is expected
    assert_scans_agree(text)


_PHRASES = [p.pattern for p in AMBIGUOUS_PATTERNS] + [r.pattern.pattern for r in LABEL_RULES]
_ASCII = st.characters(max_codepoint=127)
#: The non-ASCII letters that re.I folds onto ASCII rule letters.
_FOLDS = {"s": "\u017f", "k": "\u212a", "i": "\u0130\u0131"}


@st.composite
def _rule_texts(draw, alphabet, folds):
    """One to three phrases that rule or ambiguity patterns match, each
    letter in random case or swapped for one of its ``folds``, with
    random text from ``alphabet`` around them."""
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        phrase = draw(st.from_regex(draw(st.sampled_from(_PHRASES)),
                                    fullmatch=True, alphabet=alphabet))
        text += draw(st.text(alphabet, max_size=12))
        text += "".join(draw(st.sampled_from([c, c.upper(), *folds.get(c, "")]))
                        for c in phrase)
    return text + draw(st.text(alphabet, max_size=12))


@settings(max_examples=300, deadline=None)
@given(_rule_texts(_ASCII, {}))
def test_scan_agrees_on_ascii_rule_phrases(text):
    assert_scans_agree(text)


@settings(max_examples=300, deadline=None)
@given(_rule_texts(st.characters(), _FOLDS))
def test_scan_agrees_on_rule_phrases_among_any_characters(text):
    assert_scans_agree(text)


def _case_free(parsed) -> bool:
    """Whether a parsed pattern matches the same ASCII text with and
    without re.I once the text is lower-cased: lower-case literals, no
    bracketed character class (``\\d`` and the like stay) and no
    inline flag."""
    for op, av in parsed:
        if op is sre_parse.LITERAL:
            if not chr(av).isascii() or chr(av) != chr(av).lower():
                return False
        elif op is sre_parse.IN:
            if any(item_op is not sre_parse.CATEGORY for item_op, _ in av):
                return False
        elif op in (sre_parse.MAX_REPEAT, sre_parse.MIN_REPEAT):
            if not _case_free(av[2]):
                return False
        elif op is sre_parse.SUBPATTERN:
            _, add_flags, del_flags, body = av
            if add_flags or del_flags or not _case_free(body):
                return False
        elif op is sre_parse.BRANCH:
            if not all(_case_free(branch) for branch in av[1]):
                return False
        elif op not in (sre_parse.ANY, sre_parse.AT):
            return False
    return True


def _written_for_the_scan(source: str) -> bool:
    return (
        source == source.lower()
        and re.compile(source).flags == re.U  # no global inline flag
        and _case_free(sre_parse.parse(source))
    )


@pytest.mark.parametrize("pattern", [*AMBIGUOUS_PATTERNS, *(r.pattern for r in LABEL_RULES)],
                         ids=lambda p: p.pattern)
def test_patterns_are_written_for_the_lower_cased_scan(pattern):
    assert pattern.flags == re.I | re.U
    assert _written_for_the_scan(pattern.pattern)


@pytest.mark.parametrize("source", ["Spamhaus", "[A-Z]pam", "sp[ab]m", "\\x53pam", "\\Spam",
                                    "(?i)spam", "(?i:spam)", "(?-i:spam)"])
def test_the_guard_refuses_case_dependent_patterns(source):
    assert not _written_for_the_scan(source)
