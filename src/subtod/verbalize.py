"""Prompt serialization and the flat text grammar for states and acts.

Prompts are built from the special tokens ``[C] [U] [R] [B] [A]`` (context
opener, user utterance, system response, belief state, system acts). Belief
states verbalize as ``<domain> <slot>: <value>;`` clauses with the domain
named once per group, domains and slots in lexicographic order::

    train departure: london liverpool street; destination: cambridge;

Act lists verbalize as ``<domain> <verb> <SLOT>;`` clauses where the domain
prefix sticks until it changes and an optional leading ``booking`` marks
transactional acts::

    booking hotel inform NAME; inform PRICE;

Parsing is lenient: malformed clauses are skipped and reported as diagnostics,
never raised. ``parse_state(verbalize_state(b)) == b`` holds for canonical
states (lowercase slots, clean values); the reverse composition canonicalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, NamedTuple, Sequence

from .model import BeliefState, DialogAct, DialogContext, SubgoalKind

TOKEN_CONTEXT = "[C]"
TOKEN_USER = "[U]"
TOKEN_RESPONSE = "[R]"
TOKEN_STATE = "[B]"
TOKEN_ACTS = "[A]"

BOOKING_PREFIX = "booking"

# Distinct generated texts (with their vocabulary) whose parse is kept. The
# parsers are pure and their results are never mutated (see ``model``), so
# one parse serves every goal and ``--workers`` thread that meets the text.
PARSE_MEMO_SIZE = 4096

DEFAULT_DOMAINS = frozenset(
    {"attraction", "hospital", "hotel", "police", "restaurant", "taxi", "train"}
)
DEFAULT_ACT_VERBS = frozenset(
    {
        "inform",
        "request",
        "recommend",
        "select",
        "book",
        "offer",
        "offerbook",
        "nooffer",
        "nobook",
        "general",
        "greet",
        "bye",
        "welcome",
        "reqmore",
    }
)


@dataclass(frozen=True)
class Prompt:
    text: str
    stage: SubgoalKind


class ParsedState(NamedTuple):
    state: BeliefState
    diagnostics: tuple[str, ...]


class ParsedActResponse(NamedTuple):
    acts: tuple[DialogAct, ...]
    response: str
    diagnostics: tuple[str, ...]


def _clean(text: str) -> str:
    return " ".join(text.lower().split())


def serialize_state_prompt(context: DialogContext) -> Prompt:
    """``[C]`` + alternating ``[U]``/``[R]`` history + the current ``[U]``."""
    parts = [TOKEN_CONTEXT]
    for pair in context.pairs:
        parts.extend([TOKEN_USER, _clean(pair.user), TOKEN_RESPONSE, _clean(pair.system.response)])
    parts.extend([TOKEN_USER, _clean(context.user)])
    return Prompt(text=" ".join(p for p in parts if p), stage=SubgoalKind.STATE)


def serialize_act_prompt(context: DialogContext, state: BeliefState) -> Prompt:
    """State prompt extended with a trailing ``[B]`` segment."""
    text = act_prompt_text(serialize_state_prompt(context).text, state)
    return Prompt(text=text, stage=SubgoalKind.ACT_RESPONSE)


def act_prompt_text(state_prompt: str, state: BeliefState) -> str:
    """The act/response prompt text from its context's state prompt text."""
    verbalized = verbalize_state(state)
    text = f"{state_prompt} {TOKEN_STATE}"
    return f"{text} {verbalized}" if verbalized else text


def verbalize_state(state: BeliefState) -> str:
    parts = []
    for domain in sorted(state):
        slots = state[domain]
        first = True
        for slot in sorted(slots):
            prefix = f"{domain} " if first else ""
            parts.append(f"{prefix}{slot}: {slots[slot]};")
            first = False
    return " ".join(parts)


def parse_state(text: str, *, domains: Collection[str] = DEFAULT_DOMAINS) -> ParsedState:
    """Parse a verbalized state; skips malformed clauses with diagnostics.

    An empty string parses to an empty state. A leading ``[B]`` token is
    tolerated so raw generations can be fed in directly. Parses are memoized
    per text and vocabulary: every caller that parses the same text gets the
    same ``ParsedState``, whose state must therefore not be mutated.
    """
    return _parse_state(text, frozenset(domains))


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_state(text: str, domains: frozenset[str]) -> ParsedState:
    text = text.strip()
    if text.startswith(TOKEN_STATE):
        text = text[len(TOKEN_STATE) :].strip()
    state: BeliefState = {}
    diagnostics: list[str] = []
    current: str | None = None
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, sep, value = clause.partition(":")
        if not sep:
            diagnostics.append(f"state clause without separator: {clause!r}")
            continue
        value = value.strip()
        tokens = head.split()
        if tokens and tokens[0].lower() in domains:
            current = tokens[0].lower()
            tokens = tokens[1:]
        if current is None:
            diagnostics.append(f"state clause before any domain: {clause!r}")
            continue
        if not tokens:
            diagnostics.append(f"state clause without a slot name: {clause!r}")
            continue
        if not value:
            diagnostics.append(f"state clause without a value: {clause!r}")
            continue
        slot = " ".join(t.lower() for t in tokens)
        state.setdefault(current, {})[slot] = value
    return ParsedState(state=state, diagnostics=tuple(diagnostics))


def state_text(state: BeliefState) -> str:
    """Full generation text for the state stage: ``[B] <verbalized state>``."""
    return " ".join(p for p in (TOKEN_STATE, verbalize_state(state)) if p)


def turn_text(acts: Sequence[DialogAct], response: str) -> str:
    """Full generation text for the turn stage: ``[A] <acts> [R] <response>``."""
    return verbalized_turn_text(verbalize_acts(acts), response)


def verbalized_turn_text(acts: str, response: str) -> str:
    """``turn_text`` for acts already verbalized by ``verbalize_acts``."""
    return " ".join(p for p in (TOKEN_ACTS, acts, TOKEN_RESPONSE, response) if p)


def verbalize_acts(acts: Sequence[DialogAct]) -> str:
    parts = []
    previous: tuple[bool, str] | None = None
    for act in acts:
        key = (act.booking, act.domain)
        clause = []
        if key != previous:
            if act.booking:
                clause.append(BOOKING_PREFIX)
            clause.append(act.domain)
        clause.append(act.act)
        if act.slot:
            clause.append(act.slot.upper())
        parts.append(" ".join(clause) + ";")
        previous = key
    return " ".join(parts)


def parse_act_response(
    text: str,
    *,
    domains: Collection[str] = DEFAULT_DOMAINS,
    verbs: Collection[str] = DEFAULT_ACT_VERBS,
) -> ParsedActResponse:
    """Split ``[A] <acts> [R] <response>`` and parse the act clauses.

    Missing tokens degrade instead of failing: without ``[R]`` the whole text
    becomes the response and no acts are returned. Memoized like
    ``parse_state``; the result is shared between callers.
    """
    return _parse_act_response(text, frozenset(domains), frozenset(verbs))


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_act_response(
    text: str, domains: frozenset[str], verbs: frozenset[str]
) -> ParsedActResponse:
    text = text.strip()
    diagnostics: list[str] = []
    if TOKEN_RESPONSE not in text:
        diagnostics.append(f"missing {TOKEN_RESPONSE} token")
        return ParsedActResponse(acts=(), response=text, diagnostics=tuple(diagnostics))
    acts_part, _, response = text.partition(TOKEN_RESPONSE)
    acts_part = acts_part.strip()
    if acts_part.startswith(TOKEN_ACTS):
        acts_part = acts_part[len(TOKEN_ACTS) :].strip()
    elif acts_part:
        diagnostics.append(f"missing {TOKEN_ACTS} token")

    acts: list[DialogAct] = []
    booking = False
    domain: str | None = None
    for clause in acts_part.split(";"):
        tokens = clause.split()
        if not tokens:
            continue
        i = 0
        new_booking = False
        new_domain = None
        if tokens[i].lower() == BOOKING_PREFIX:
            new_booking = True
            i += 1
        if i < len(tokens) and tokens[i].lower() in domains:
            new_domain = tokens[i].lower()
            i += 1
        if new_domain is not None:
            booking, domain = new_booking, new_domain
        elif new_booking:
            booking = True
        if i >= len(tokens):
            diagnostics.append(f"act clause without a verb: {clause.strip()!r}")
            continue
        verb = tokens[i].lower()
        if verb not in verbs:
            diagnostics.append(f"unknown act verb: {clause.strip()!r}")
            continue
        if domain is None:
            diagnostics.append(f"act clause before any domain: {clause.strip()!r}")
            continue
        slot = " ".join(t.lower() for t in tokens[i + 1 :]) or None
        acts.append(DialogAct(domain=domain, act=verb, slot=slot, booking=booking))
    return ParsedActResponse(
        acts=tuple(acts), response=response.strip(), diagnostics=tuple(diagnostics)
    )
