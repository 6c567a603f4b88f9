"""Pluggable repair policies over per-link health signals.

A :class:`PolicyEngine` watches the :class:`~repro.faults.health.
HealthTracker`'s closed windows for each (src, dst) link and drives a
small per-link mode machine:

``do_nothing``
    the control arm: always ``normal``;
``retransmit_tuning``
    an unhealthy link gets aggressive per-link retransmit knobs
    (timeout and backoff scaled down) until it has been healthy for
    ``recover_windows`` consecutive observed windows;
``disable_and_repair``
    an unhealthy link is taken out of service for ``repair_delay_us``:
    its traffic detours via an alternate next-hop (paying two healthy
    hops instead of one lossy one) — or, with no third node, falls
    back to the AM/RPC path — and the link is restored when the repair
    timer expires (health state resets, so a later flap re-trips it);
``path_failover``
    the Storm result as a policy: KV stores flip affected traffic from
    the one-sided path to RPC while the link is unhealthy (an RPC
    retry re-issues cheaply; a one-sided retry pays RDMA invalidation
    + AM re-validation on top).

Determinism: every decision is a pure fold over *closed* health
windows in index order (see :mod:`repro.faults.health` for why closed
windows are layout-invariant), so the same trace + seed produces the
identical decision sequence across shard layouts.
Queries for a *future* instant (the traffic harness plans whole retry
chains at issue time) pass the issue time as ``horizon`` — state only
ever advances on knowledge that was closed at the horizon, while the
returned mode accounts for repair timers expiring before the queried
instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.health import HealthTracker, fold_ewma
from repro.faults.trace import fate_hash
from repro.obs.events import POLICY_ACTION

Link = Tuple[int, int]

#: Per-link modes.
MODE_NORMAL = "normal"
MODE_TUNED = "tuned"
MODE_DISABLED = "disabled"
MODE_FAILOVER = "failover"

#: Policy registry order is also the bench's comparison order.
POLICIES = ("do_nothing", "retransmit_tuning", "disable_and_repair",
            "path_failover")

#: Delivery-EWMA smoothing factor.
EWMA_ALPHA = 0.4
#: A window is unhealthy when its timeout rate exceeds this ...
TIMEOUT_RATE_THRESHOLD = 0.08
#: ... or the link's delivery EWMA has sunk below this.
EWMA_THRESHOLD = 0.85
#: Per-link retransmit knobs while ``retransmit_tuning`` is active.
TUNED_TIMEOUT_SCALE = 0.5
TUNED_BACKOFF_SCALE = 0.25

_MASK64 = (1 << 64) - 1
_ACTION_CODE = {"tune": 1, "untune": 2, "disable": 3, "restore": 4,
                "failover": 5, "failback": 6}


@dataclass(frozen=True)
class PolicyConfig:
    """Thresholds and knobs shared by every policy."""

    #: Health-window width (µs of virtual time).
    window_us: float = 500.0
    #: Windows a link must look healthy for before tuning/failover
    #: reverts.
    recover_windows: int = 2
    #: Minimum attempts in a window before it can flag unhealthy
    #: (tiny windows don't flap policies).
    min_attempts: int = 6
    #: How long ``disable_and_repair`` keeps a link out of service.
    repair_delay_us: float = 2500.0

    def __post_init__(self) -> None:
        if self.window_us <= 0:
            raise ValueError("window_us must be positive")
        if self.repair_delay_us <= 0:
            raise ValueError("repair_delay_us must be positive")


class LinkMode:
    """What the actuation layers read back for one link."""

    __slots__ = ("mode", "timeout_scale", "backoff_scale", "via",
                 "until_us")

    def __init__(self, mode: str = MODE_NORMAL,
                 timeout_scale: float = 1.0, backoff_scale: float = 1.0,
                 via: Optional[int] = None,
                 until_us: float = 0.0) -> None:
        self.mode = mode
        self.timeout_scale = timeout_scale
        self.backoff_scale = backoff_scale
        self.via = via
        self.until_us = until_us

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" via={self.via}" if self.via is not None else ""
        return f"<LinkMode {self.mode}{extra}>"


#: Shared healthy mode — returned for untouched links.
NORMAL = LinkMode()


def decisions_digest(decisions) -> int:
    """Order-independent digest of a decision set (summed per-decision
    hashes, mod 2^64) — per-shard digests merge by modular addition
    into a layout-invariant whole.  Free function so harnesses that
    ship plain decision lists across process boundaries can digest
    them without reconstructing an engine."""
    acc = 0
    for d in decisions:
        acc = (acc + fate_hash(int(round(d["t_us"] * 1e6)),
                               d["src"], d["dst"],
                               _ACTION_CODE[d["action"]])) & _MASK64
    return acc


def emit_policy_action(log, now: float, d: dict) -> None:
    """Put decision ``d`` on flight recorder ``log``'s timeline at
    ``now`` (nothing when the recorder is off)."""
    if log.enabled:
        log.emit(now, POLICY_ACTION, node=d["src"], dst=d["dst"],
                 action=d["action"], mode=d["mode"], t_us=d["t_us"],
                 policy=d["policy"])


class _LinkState:
    """Per-link fold state (advanced monotonically, never rewound)."""

    __slots__ = ("ewma", "mode", "until_us", "via", "last_idx",
                 "healthy_run")

    def __init__(self) -> None:
        self.ewma = 1.0
        self.mode = MODE_NORMAL
        self.until_us = 0.0
        self.via: Optional[int] = None
        self.last_idx = -1
        self.healthy_run = 0


class PolicyEngine:
    """Folds link health into per-link modes for one run (or one
    shard of a run — links are keyed by source node, and all of a
    node's traffic lives on one shard, so per-shard engines never need
    cross-shard state).
    """

    def __init__(self, policy: str, config: Optional[PolicyConfig] = None,
                 health: Optional[HealthTracker] = None,
                 nnodes: int = 0,
                 on_decision: Optional[Callable[[dict], None]] = None
                 ) -> None:
        if policy not in POLICIES:
            names = ", ".join(POLICIES)
            raise ValueError(f"unknown repair policy {policy!r} "
                             f"(expected one of: {names})")
        self.policy = policy
        self.config = config or PolicyConfig()
        self.health = health or HealthTracker(self.config.window_us)
        if self.health.window_us != self.config.window_us:
            raise ValueError("health tracker and policy config disagree "
                             "on window_us")
        self.nnodes = nnodes
        #: Called with each decision dict as it is made (flight
        #: recorder / SLO hookup); decisions also accumulate below.
        self.on_decision = on_decision
        self.decisions: List[dict] = []
        self._states: Dict[Link, _LinkState] = {}

    # -- decision bookkeeping -------------------------------------------

    def _decide(self, t_us: float, link: Link, action: str, mode: str,
                until_us: float = 0.0) -> None:
        d = {"t_us": t_us, "src": link[0], "dst": link[1],
             "action": action, "mode": mode, "until_us": until_us,
             "policy": self.policy}
        self.decisions.append(d)
        if self.on_decision is not None:
            self.on_decision(d)

    # -- the fold -------------------------------------------------------

    def _alternate_hop(self, link: Link) -> Optional[int]:
        """Deterministic detour node for a disabled link (the smallest
        node that is neither endpoint), or None on a 2-node fabric."""
        for via in range(self.nnodes):
            if via != link[0] and via != link[1]:
                return via
        return None

    def _advance(self, link: Link, upto: int) -> _LinkState:
        st = self._states.get(link)
        if st is None:
            st = self._states[link] = _LinkState()
        if self.policy == "do_nothing":
            return st
        cfg = self.config
        for w in self.health.closed_windows(link[0], link[1],
                                            st.last_idx, upto):
            st.last_idx = w.index
            w_start = w.index * cfg.window_us
            w_end = (w.index + 1) * cfg.window_us
            if st.mode == MODE_DISABLED:
                if w_start < st.until_us:
                    # Repair in progress: traffic is detoured, these
                    # windows say nothing about the broken link.
                    continue
                # Repair timer expired before this window: restore
                # (decision was recorded at disable time) and reset the
                # health fold so a re-flap re-trips the policy.
                st.mode = MODE_NORMAL
                st.ewma = 1.0
                st.healthy_run = 0
                st.via = None
            st.ewma = fold_ewma(st.ewma, w.delivery_rate, EWMA_ALPHA)
            significant = w.attempts >= cfg.min_attempts
            unhealthy = significant and (
                w.timeout_rate > TIMEOUT_RATE_THRESHOLD
                or st.ewma < EWMA_THRESHOLD)
            healthy = (w.attempts > 0 and w.timeouts == 0
                       and st.ewma >= EWMA_THRESHOLD)
            if unhealthy:
                st.healthy_run = 0
                if self.policy == "retransmit_tuning":
                    if st.mode != MODE_TUNED:
                        st.mode = MODE_TUNED
                        self._decide(w_end, link, "tune", MODE_TUNED)
                elif self.policy == "disable_and_repair":
                    st.mode = MODE_DISABLED
                    st.until_us = w_end + cfg.repair_delay_us
                    st.via = self._alternate_hop(link)
                    self._decide(w_end, link, "disable", MODE_DISABLED,
                                 until_us=st.until_us)
                    self._decide(st.until_us, link, "restore",
                                 MODE_NORMAL)
                elif self.policy == "path_failover":
                    if st.mode != MODE_FAILOVER:
                        st.mode = MODE_FAILOVER
                        self._decide(w_end, link, "failover",
                                     MODE_FAILOVER)
            elif healthy and st.mode in (MODE_TUNED, MODE_FAILOVER):
                st.healthy_run += 1
                if st.healthy_run >= cfg.recover_windows:
                    action = ("untune" if st.mode == MODE_TUNED
                              else "failback")
                    st.mode = MODE_NORMAL
                    st.healthy_run = 0
                    self._decide(w_end, link, action, MODE_NORMAL)
        return st

    # -- queries --------------------------------------------------------

    def mode_of(self, src: int, dst: int, t: float,
                horizon: Optional[float] = None) -> LinkMode:
        """The mode of link ``src -> dst`` at instant ``t``.

        ``horizon`` (default ``t``) bounds the health knowledge the
        answer may use: only windows closed at the horizon fold in.
        Callers planning future attempts pass their issue time, so the
        answer is identical whatever layout executes the plan.
        """
        if self.policy == "do_nothing":
            return NORMAL
        link = (src, dst)
        upto = self.health.horizon(horizon if horizon is not None else t)
        st = self._advance(link, upto)
        if st.mode == MODE_TUNED:
            return LinkMode(MODE_TUNED,
                            timeout_scale=TUNED_TIMEOUT_SCALE,
                            backoff_scale=TUNED_BACKOFF_SCALE)
        if st.mode == MODE_DISABLED:
            if t >= st.until_us:
                # Repair timer expires before the queried instant; the
                # stored transition happens on the next fold.
                return NORMAL
            return LinkMode(MODE_DISABLED, via=st.via,
                            until_us=st.until_us)
        if st.mode == MODE_FAILOVER:
            return LinkMode(MODE_FAILOVER)
        return NORMAL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PolicyEngine {self.policy} "
                f"links={len(self._states)} "
                f"decisions={len(self.decisions)}>")
