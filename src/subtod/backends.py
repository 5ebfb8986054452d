"""Generation backends: the interface they share and a scripted, corpus-driven stand-in.

The scripted backend answers the exact prompts built from its corpus's dialog
contexts. Greedy requests return the ground-truth state or act/response pair
verbatim; sampled requests return deterministic variations that are textually
distinct but evaluation-neutral (value casing for states, a politeness tail
for responses). With a noise rate, a site may instead receive one genuinely
wrong generation: whether it does, its error, the sample that carries it and
the slot it hits all come from the construction seed. So outputs are
bit-identical across runs and worker counts; the per-request ``seed``
argument is accepted for interface parity and ignored.

The HTTP client lives in ``subtod.http_backend``, so that importing this
module loads no network code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .corpus import Corpus
from .errors import BackendError
from .model import (
    BeliefState,
    Dialog,
    SubgoalKind,
    UserGoal,
    normalize_value,
    placeholder,
)
from .verbalize import (
    split_act_prompt,
    state_prompts,
    state_text,
    turn_text,
    verbalize_acts,
    verbalized_turn_text,
)

try:  # the interpreter's built-in SHA-256: ``hashlib`` would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

DEFAULT_MAX_TOKENS = 256


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary parts; hash() is salted, this isn't."""
    return int.from_bytes(sha256(":".join(map(str, parts)).encode()).digest()[:8], "big")


class GeneratorBackend(Protocol):
    """Text-completion interface shared by all backends.

    Implementations must be deterministic for a fixed (prompt, seed, params)
    tuple, or document themselves as best-effort. A backend may also offer a
    ``prefetch(requests)`` context manager (see ``http_backend.HttpBackend``),
    which ``sampling.answer_wave`` uses to send a wave of requests at once.
    """

    def generate(
        self,
        prompt: str,
        n: int,
        *,
        greedy: bool,
        temperature: float = 1.0,
        seed: int = 0,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> list[str]: ...


class ErrorKind(Enum):
    DROP_SLOT = "drop_slot"
    WRONG_VALUE = "wrong_value"
    SWAP_DEPARTURE_DESTINATION = "swap_departure_destination"
    OMIT_REQUESTED_SLOT_IN_RESPONSE = "omit_requested_slot_in_response"


STATE_ERRORS = (
    ErrorKind.DROP_SLOT,
    ErrorKind.WRONG_VALUE,
    ErrorKind.SWAP_DEPARTURE_DESTINATION,
)


@dataclass(frozen=True)
class Injection:
    """The error one site receives.

    ``sample`` is the 1-based sampled-generation index that carries it;
    greedy generations are never corrupted.
    """

    error: ErrorKind
    sample: int


@dataclass(frozen=True)
class ErrorInjectionConfig:
    # Probability that a site (dialog, turn, kind) gets one seeded injection.
    rate: float = 0.0

    def __post_init__(self):
        if not 0 <= self.rate <= 1:  # NaN fails too
            raise ValueError(f"noise rate must be in [0, 1], got {self.rate}")


def _case_variant_value(value: str, i: int) -> str:
    """Uppercase the first ``i`` letters; distinct per i, equal under matching."""
    out = []
    seen = 0
    for ch in value:
        if ch.isalpha():
            seen += 1
            out.append(ch.upper() if seen <= i else ch.lower())
        else:
            out.append(ch)
    return "".join(out)


def _copy_state(state: BeliefState) -> BeliefState:
    return {domain: dict(slots) for domain, slots in state.items()}


_RESPONSE_TAILS = (
    "is there anything else i can help you with?",
    "can i help you with anything else?",
    "anything else i can do for you?",
    "let me know if you need anything else.",
)


def _response_variant(response: str, i: int) -> str:
    tail = _RESPONSE_TAILS[(i - 1) % len(_RESPONSE_TAILS)]
    reps = 1 + (i - 1) // len(_RESPONSE_TAILS)
    return f"{response} " + " ".join([tail] * reps)


def _strip_placeholder(response: str, token: str) -> str:
    return " ".join(response.replace(token, " ").split())


class ScriptedBackend:
    """Deterministic stand-in for a dialog LM, driven by a corpus world.

    A site is one state prompt (a dialog context). Contexts that several
    dialogs share are answered from the first such dialog, so their gold
    system turns must agree; construction raises ``ValueError`` otherwise.
    """

    def __init__(self, world: Corpus, noise: ErrorInjectionConfig | None = None, seed: int = 0):
        self.world = world
        self.noise = noise or ErrorInjectionConfig()
        self.seed = seed
        # State prompt -> (dialog, turn, site index) of its first dialog.
        self._sites: dict[str, tuple[Dialog, int, int]] = {}
        for dialog in list(world.dialogs) + list(world.dev_dialogs):
            for t, prompt in enumerate(state_prompts(dialog.turns)):
                first, first_t, _ = self._sites.setdefault(prompt, (dialog, t, len(self._sites)))
                if first is not dialog and first.turns[first_t].system != dialog.turns[t].system:
                    raise ValueError(
                        f"dialogs {first.id!r} (turn {first_t}) and {dialog.id!r} (turn {t}) "
                        "share a context but not its gold system turn"
                    )
        # Per-site values keyed by site index, filled on first use: the
        # injection per (site, stage, n) and the verbalized gold acts per site.
        self._injections: dict[tuple[int, SubgoalKind, int], Injection | None] = {}
        self._gold_acts: dict[int, str] = {}
        self._value_pool: dict[tuple[str, str], list[str]] = {}
        for domain, entities in world.database.tables.items():
            for entity in entities:
                for slot, value in entity.items():
                    pool = self._value_pool.setdefault((domain, slot), [])
                    if value not in pool:
                        pool.append(value)

    def close(self) -> None:
        """Nothing to release; callers may close any backend they built."""

    # -- generation ------------------------------------------------------

    def generate(
        self,
        prompt: str,
        n: int,
        *,
        greedy: bool,
        temperature: float = 1.0,
        seed: int = 0,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> list[str]:
        state_key, is_act_prompt = split_act_prompt(prompt)
        stage = SubgoalKind.ACT_RESPONSE if is_act_prompt else SubgoalKind.STATE
        site = self._sites.get(state_key)
        if site is None:
            raise BackendError("prompt does not match any known dialog context", prompt=prompt)
        dialog, turn, index = site
        system = dialog.turns[turn].system
        if stage is SubgoalKind.STATE:
            if greedy:
                return [state_text(system.state)] * n
            injection = self._injection(index, dialog, turn, stage, n)
            return [self._sampled_state(dialog, turn, i, injection) for i in range(1, n + 1)]
        acts = self._gold_acts.get(index)
        if acts is None:
            acts = self._gold_acts[index] = verbalize_acts(system.acts)
        if greedy:
            return [verbalized_turn_text(acts, system.response)] * n
        injection = self._injection(index, dialog, turn, stage, n)
        return [self._sampled_turn(dialog, turn, acts, i, injection) for i in range(1, n + 1)]

    def _sampled_state(self, dialog: Dialog, turn: int, i: int, injection: Injection | None) -> str:
        state = dialog.turns[turn].system.state
        if injection is not None and injection.sample == i:
            return state_text(self._apply_state_error(dialog, turn, state, injection))
        return state_text(self._neutral_state(state, i))

    def _sampled_turn(
        self, dialog: Dialog, turn: int, gold_acts: str, i: int, injection: Injection | None
    ) -> str:
        if injection is not None and injection.sample == i:
            return turn_text(*self._apply_response_error(dialog, turn))
        response = _response_variant(dialog.turns[turn].system.response, i)
        return verbalized_turn_text(gold_acts, response)

    # -- noise -----------------------------------------------------------

    def _goal_of(self, dialog: Dialog) -> UserGoal | None:
        return self.world.goals.get(dialog.goal_id) or self.world.dev_goals.get(dialog.goal_id)

    def _injection(
        self, index: int, dialog: Dialog, turn: int, stage: SubgoalKind, n: int
    ) -> Injection | None:
        """``_site_injection`` for site ``index``, decided once."""
        key = (index, stage, n)
        if key not in self._injections:
            self._injections[key] = self._site_injection(dialog, turn, stage, n)
        return self._injections[key]

    def _site_injection(
        self, dialog: Dialog, turn: int, stage: SubgoalKind, n: int
    ) -> Injection | None:
        if self.noise.rate <= 0.0:
            return None
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, stage.value))
        if rng.random() >= self.noise.rate:
            return None
        if stage is SubgoalKind.STATE:
            if not dialog.turns[turn].system.state:
                return None
            error = STATE_ERRORS[rng.randrange(len(STATE_ERRORS))]
        else:
            goal = self._goal_of(dialog)
            if goal is None:
                return None
            if not self._requested_tokens(goal, dialog.turns[turn].system.response):
                return None
            error = ErrorKind.OMIT_REQUESTED_SLOT_IN_RESPONSE
        return Injection(error=error, sample=rng.randrange(1, n + 1))

    def _requested_tokens(self, goal: UserGoal, response: str) -> list[tuple[str, str, str]]:
        """``(placeholder, domain, slot)`` per requested slot whose placeholder ``response`` holds."""
        tokens = []
        for domain in goal.domain_names():
            for slot in sorted(goal.domains[domain].requests):
                token = placeholder(domain, slot)
                if token in response:
                    tokens.append((token, domain, slot))
        return tokens

    def _neutral_state(self, state: BeliefState, i: int) -> BeliefState:
        out = _copy_state(state)
        for domain in sorted(out):
            for slot in sorted(out[domain]):
                value = out[domain][slot]
                if any(ch.isalpha() for ch in value):
                    out[domain][slot] = _case_variant_value(value, i)
                    return out
        return out

    def _apply_state_error(
        self, dialog: Dialog, turn: int, state: BeliefState, injection: Injection
    ) -> BeliefState:
        """``state`` with ``injection``'s error; the state is not empty."""
        out = _copy_state(state)
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, "err", injection.sample))
        domains = sorted(out)
        if injection.error is ErrorKind.SWAP_DEPARTURE_DESTINATION:
            for domain in domains:
                slots = out[domain]
                if "departure" in slots and "destination" in slots:
                    slots["departure"], slots["destination"] = (
                        slots["destination"],
                        slots["departure"],
                    )
                    return out
            # No route to swap anywhere; a wrong value instead.
        domain = domains[rng.randrange(len(domains))]
        ordered = sorted(out[domain])
        slot = ordered[rng.randrange(len(ordered))]
        slots = out[domain]
        if injection.error is ErrorKind.DROP_SLOT:
            del slots[slot]
            if not slots:
                del out[domain]
            return out
        current = normalize_value(slots[slot])
        pool = [
            v
            for v in self._value_pool.get((domain, slot), ())
            if normalize_value(v) not in (current, "dontcare")
        ]
        slots[slot] = pool[rng.randrange(len(pool))] if pool else f"not {slots[slot]}"
        return out

    def _apply_response_error(self, dialog: Dialog, turn: int):
        """The gold turn without one requested slot's placeholder and act; the site has one."""
        system = dialog.turns[turn].system
        tokens = self._requested_tokens(self._goal_of(dialog), system.response)
        rng = random.Random(stable_seed(self.seed, dialog.id, turn, "omit"))
        token, domain, slot = tokens[rng.randrange(len(tokens))]
        response = _strip_placeholder(system.response, token)
        acts = tuple(a for a in system.acts if not (a.domain == domain and a.slot == slot))
        return acts, response
