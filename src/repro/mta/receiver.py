"""The receiver-MTA decision gauntlet.

``ReceiverMTA.evaluate`` walks one delivery attempt through the checks a
real incoming MTA performs, in the order real stacks perform them:

1. transport (STARTTLS requirement),
2. source reputation (DNSBL),
3. greylisting,
4. source rate limits,
5. sender-domain resolution and authentication (SPF/DKIM/DMARC),
6. recipient validity (existence, inactive, quota),
7. envelope limits (recipient count, message size, recipient rate),
8. content filtering.

The first failing check decides the bounce type; the NDR text is rendered
in the domain's dialect, possibly ambiguously (Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from repro.auth.evaluator import AuthFailureMode, AuthResult
from repro.core.taxonomy import BounceType
from repro.dnsbl.service import DNSBLService
from repro.mta.filters import SpamFilter, SpamVerdict
from repro.mta.greylist import Greylist
from repro.mta.policies import ReceiverPolicy, TLSRequirement
from repro.obs import metrics as obs_metrics
from repro.smtp.ndr import NDR
from repro.smtp.templates import NDRTemplateBank, TemplateDialect
from repro.util.rng import RandomSource
from repro.util.text import split_address


class RecipientStatus(str, Enum):
    OK = "ok"
    NO_SUCH_USER = "no_such_user"
    INACTIVE = "inactive"
    FULL = "full"
    #: Recipient exists but receives so much mail it is rate limited.
    OVER_RATE = "over_rate"


@dataclass
class AttemptContext:
    """Everything the receiver can observe about one attempt."""

    t: float
    proxy_ip: str
    sender_address: str
    receiver_address: str
    uses_tls: bool
    spamminess: float
    size_bytes: int
    recipient_count: int
    #: True while the sender's domain fails to resolve (drives T1).
    sender_domain_unresolvable: bool
    #: Authentication evaluation for this attempt; ``None`` when the
    #: receiver does not enforce authentication (drives T3).
    auth_result: AuthResult | None
    recipient_status: RecipientStatus
    mx_host: str = "mx1.example.com"


@dataclass(frozen=True)
class Decision:
    """Outcome of one attempt at the receiver."""

    accepted: bool
    bounce_type: BounceType | None = None
    ndr: NDR | None = None
    #: Whether retrying (possibly from another proxy) can plausibly help.
    retryable: bool = False
    #: The receiver filter's verdict when content filtering ran (for the
    #: filter-divergence analysis).
    receiver_verdict: SpamVerdict | None = None


#: Bounce types for which Coremail's change-proxy-and-retry strategy can
#: succeed: reputation/greylist/rate issues are per-source, transport
#: issues are per-session.
RETRYABLE_TYPES = frozenset(
    {
        BounceType.T4,
        BounceType.T5,
        BounceType.T6,
        BounceType.T7,
        BounceType.T11,
        BounceType.T14,
        BounceType.T15,
    }
)


#: Sentinel for :meth:`ReceiverMTA.evaluate`'s ``greylist`` parameter:
#: "use the MTA's own shared greylist" (``None`` means "no greylisting").
_SHARED_GREYLIST = object()


class GauntletProfile(NamedTuple):
    """The RNG-free facts of one MTA's gauntlet, flattened for batching.

    Everything :meth:`ReceiverMTA.evaluate` reads off the policy (but
    never off the attempt) in the order the gauntlet reads it.  The
    columnar delivery planner snapshots one profile per receiver domain
    and evaluates the pure predicates (quota/size/gate comparisons) over
    whole chunks; the stateful checks (greylist, DNSBL lookup, auth) and
    every draw stay live in the executor.
    """

    tls_mandatory: bool
    has_dnsbl: bool
    uses_dnsbl: bool
    dnsbl_adoption_ts: float
    dnsbl_reject_probability: float
    greylisting: bool
    rate_limit_probability: float
    enforces_auth: bool
    max_recipients: int
    max_message_bytes: int
    recipient_rate_probability: float
    spam_threshold: float
    spam_noise_sigma: float


class ReceiverMTA:
    """One receiver domain's incoming MTA."""

    def __init__(
        self,
        domain: str,
        dialect: TemplateDialect,
        policy: ReceiverPolicy,
        spam_filter: SpamFilter,
        bank: NDRTemplateBank,
        dnsbl: DNSBLService | None = None,
    ) -> None:
        self.domain = domain
        self.dialect = dialect
        self.policy = policy
        self.spam_filter = spam_filter
        self.bank = bank
        self.dnsbl = dnsbl
        self.greylist = (
            Greylist(
                delay_s=policy.greylist_delay_s,
                network_prefix=policy.greylist_network_prefix,
            )
            if policy.greylisting
            else None
        )
        # Telemetry (no-op unless repro.obs is enabled at construction).
        self._obs_on = obs_metrics.enabled()
        self._m_verdicts = obs_metrics.counter(
            "repro_receiver_verdicts_total",
            "Receiver-MTA policy verdicts (accepted or rendered bounce type)",
            label="verdict",
        )

    def rebind_telemetry(self) -> None:
        """Re-attach telemetry to this process's registry (an MTA restored
        from a checkpoint carries detached instrument copies)."""
        self._obs_on = obs_metrics.enabled()
        self._m_verdicts = obs_metrics.counter(
            "repro_receiver_verdicts_total",
            "Receiver-MTA policy verdicts (accepted or rendered bounce type)",
            label="verdict",
        )

    def gauntlet_profile(self) -> GauntletProfile:
        """Snapshot the gauntlet's RNG-free policy facts (see
        :class:`GauntletProfile`).  Pure read; callers own revalidation
        (the frozen-world contract: policies are frozen per world between
        purges, and whatever mutates one calls
        :meth:`WorldModel.purge_caches` afterwards)."""
        policy = self.policy
        return GauntletProfile(
            tls_mandatory=policy.tls is TLSRequirement.MANDATORY,
            has_dnsbl=self.dnsbl is not None,
            uses_dnsbl=policy.uses_dnsbl,
            dnsbl_adoption_ts=policy.dnsbl_adoption_ts,
            dnsbl_reject_probability=policy.dnsbl_reject_probability,
            greylisting=policy.greylisting,
            rate_limit_probability=policy.rate_limit_probability,
            enforces_auth=policy.enforces_auth,
            max_recipients=policy.max_recipients,
            max_message_bytes=policy.max_message_bytes,
            recipient_rate_probability=policy.recipient_rate_probability,
            spam_threshold=self.spam_filter.threshold,
            spam_noise_sigma=self.spam_filter.noise_sigma,
        )

    def new_greylist(self) -> Greylist | None:
        """A fresh greylist store for this MTA's policy (``None`` when the
        policy doesn't greylist).

        The delivery engine holds one store per (engine, domain) so that
        greylist state — inherently an accumulating side effect — is owned
        by the execution slice, not shared across slices or workers.
        """
        if not self.policy.greylisting:
            return None
        return Greylist(
            delay_s=self.policy.greylist_delay_s,
            network_prefix=self.policy.greylist_network_prefix,
        )

    # -- main entry -----------------------------------------------------------

    def evaluate(
        self,
        ctx: AttemptContext,
        rng: RandomSource,
        greylist: Greylist | None = _SHARED_GREYLIST,  # type: ignore[assignment]
    ) -> Decision:
        """Walk one attempt through the gauntlet.

        ``greylist`` overrides the MTA's shared greylist store with a
        caller-owned one (pass ``None`` to disable greylisting for the
        call); when omitted, the MTA's own store is used.
        """
        policy = self.policy
        if greylist is _SHARED_GREYLIST:
            greylist = self.greylist

        # 1. transport: mandatory TLS rejects plaintext sessions.
        if policy.tls is TLSRequirement.MANDATORY and not ctx.uses_tls:
            return self._reject(BounceType.T4, ctx, rng)

        # 2. source reputation.
        if (
            self.dnsbl is not None
            and policy.dnsbl_active_at(ctx.t)
            and self.dnsbl.is_listed(ctx.proxy_ip, ctx.t)
            and rng.chance(policy.dnsbl_reject_probability)
        ):
            return self._reject(BounceType.T5, ctx, rng)

        # 3. greylisting.
        if greylist is not None:
            if not greylist.check(
                ctx.proxy_ip, ctx.sender_address, ctx.receiver_address, ctx.t
            ):
                return self._reject(BounceType.T6, ctx, rng)

        # 4. source rate limiting.
        if policy.rate_limit_probability > 0 and rng.chance(policy.rate_limit_probability):
            return self._reject(BounceType.T7, ctx, rng)

        # 5. sender-domain resolution, then authentication.
        if ctx.sender_domain_unresolvable:
            return self._reject(BounceType.T1, ctx, rng)
        if (
            policy.enforces_auth
            and ctx.auth_result is not None
            and not ctx.auth_result.authenticated
        ):
            # DMARC p=reject rejections cite the policy; otherwise the
            # wording is a receiver habit — some cite "both", most cite
            # "SPF or DKIM" (the paper's 42.09% / 55.19% split).
            if ctx.auth_result.failure_mode is AuthFailureMode.DMARC:
                tag = "dmarc"
            else:
                tag = rng.weighted_choice(["both", "either"], [0.43, 0.57])
            return self._reject(BounceType.T3, ctx, rng, tag=tag)

        # 6. recipient validity.
        if ctx.recipient_status is RecipientStatus.NO_SUCH_USER:
            return self._reject(BounceType.T8, ctx, rng)
        if ctx.recipient_status is RecipientStatus.INACTIVE:
            return self._reject(BounceType.T8, ctx, rng, tag="inactive")
        if ctx.recipient_status is RecipientStatus.FULL:
            return self._reject(BounceType.T9, ctx, rng)

        # 7. envelope limits.
        if ctx.recipient_count > policy.max_recipients:
            return self._reject(BounceType.T10, ctx, rng)
        if ctx.size_bytes > policy.max_message_bytes:
            return self._reject(BounceType.T12, ctx, rng)
        if ctx.recipient_status is RecipientStatus.OVER_RATE or (
            policy.recipient_rate_probability > 0
            and rng.chance(policy.recipient_rate_probability)
        ):
            return self._reject(BounceType.T11, ctx, rng)

        # 8. content filtering.
        verdict = self.spam_filter.classify(ctx.spamminess, rng)
        if verdict is SpamVerdict.SPAM:
            decision = self._reject(BounceType.T13, ctx, rng)
            return Decision(
                accepted=False,
                bounce_type=decision.bounce_type,
                ndr=decision.ndr,
                retryable=decision.retryable,
                receiver_verdict=verdict,
            )

        if self._obs_on:
            self._m_verdicts.labels("accepted").inc()
        return Decision(accepted=True, receiver_verdict=verdict)

    # -- helpers ------------------------------------------------------------------

    def render_reject(
        self,
        bounce_type: BounceType,
        rng: RandomSource,
        context: dict[str, str],
        tag: str = "",
    ) -> NDR:
        """Render the NDR for a rejection decided outside :meth:`evaluate`.

        The columnar executor inlines the gauntlet's predicates but must
        render (and count) rejections exactly as the reference does: the
        unknown-render roll, the T16 obfuscation, the ambiguity roll and
        the verdict telemetry all live here, shared with :meth:`_reject`.
        ``context`` must carry the same keys ``_reject`` builds.
        """
        if self.policy.unknown_render > 0 and rng.chance(self.policy.unknown_render):
            ndr = self.bank.render_unknown(rng, self.dialect, context=context)
            if self._obs_on:
                self._m_verdicts.labels(BounceType.T16.value).inc()
            return ndr
        ndr = self.bank.render(
            bounce_type,
            self.dialect,
            rng,
            context=context,
            ambiguity=self.policy.ambiguity,
            tag=tag,
        )
        if self._obs_on:
            self._m_verdicts.labels(bounce_type.value).inc()
        return ndr

    def note_accept(self) -> None:
        """Count an acceptance decided outside :meth:`evaluate` (the
        columnar executor's inlined gauntlet)."""
        if self._obs_on:
            self._m_verdicts.labels("accepted").inc()

    def _reject(
        self,
        bounce_type: BounceType,
        ctx: AttemptContext,
        rng: RandomSource,
        tag: str = "",
    ) -> Decision:
        user, domain = split_address(ctx.receiver_address)
        sender_domain = ctx.sender_address.rsplit("@", 1)[-1]
        ndr = self.render_reject(
            bounce_type,
            rng,
            context={
                "address": ctx.receiver_address,
                "user": user,
                "domain": self.domain,
                "sender_domain": sender_domain,
                "ip": ctx.proxy_ip,
                "mx": ctx.mx_host,
            },
            tag=tag,
        )
        final_type = (
            BounceType.T16 if ndr.truth_type == BounceType.T16.value else bounce_type
        )
        return Decision(
            accepted=False,
            bounce_type=final_type,
            ndr=ndr,
            retryable=bounce_type in RETRYABLE_TYPES,
        )
