"""Per-turn candidate sampling.

For each dialog context, draw a greedy belief state plus ``k`` sampled ones,
then for every distinct surviving state draw a greedy act/response completion
plus ``k`` sampled ones. Duplicates are removed early (keeping the first
occurrence, so the greedy variant survives any tie) because identical
fragments can only produce identical downstream dialogs. The requests of each
stage, across all contexts sampled together, form one wave, which a backend
that can prefetch sends concurrently.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Sequence

from .backends import GeneratorBackend, stable_seed
from .errors import BackendError, IncompleteSamples
from .model import BeliefState, DialogAct, DialogContext, Ontology
from .verbalize import (
    act_prompt_text,
    parse_act_response,
    parse_state,
    serialize_state_prompt,
)


@dataclass(frozen=True)
class SamplingConfig:
    k: int = 2
    temperature: float = 1.0
    seed: int = 0
    include_greedy: bool = True
    max_tokens: int = 256

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


# The arguments of one ``generate`` call: (prompt, n, greedy, temperature, seed, max_tokens).
Request = tuple[str, int, bool, float, int, int]


@dataclass(frozen=True)
class TurnCompletion:
    acts: tuple[DialogAct, ...]
    response: str


@dataclass
class SampledTurnSet:
    """Deduplicated generations for one turn, greedy variant first when present.

    ``states`` holds distinct states, and ``completions[i]`` distinct
    completions for state ``i``, so distinct indices mean distinct fragments.
    """

    states: list[BeliefState]
    completions: dict[int, list[TurnCompletion]]
    has_greedy: bool
    diagnostics: list[str] = field(default_factory=list)


def generation_request(prompt: str, stage: str, cfg: SamplingConfig, *, greedy: bool) -> Request:
    """The greedy (n=1) or the ``k``-sample request for ``prompt``.

    ``stage`` is ``"state"`` or ``"turn"``; the seed is derived from the
    prompt text and the stage tag, so equal requests get equal seeds.
    """
    tag = f"greedy-{stage}" if greedy else stage
    return (
        prompt,
        1 if greedy else cfg.k,
        greedy,
        cfg.temperature,
        stable_seed(cfg.seed, prompt, tag),
        cfg.max_tokens,
    )


def generate_wave(
    backend: GeneratorBackend, requests: Sequence[Request]
) -> tuple[list[list[str]], BackendError | None]:
    """Answer ``requests`` in order, one ``backend.generate`` call each, up to the first failure.

    Returns the replies before the first request that failed and its error,
    or every reply and ``None``. A backend with a ``prefetch`` context manager
    receives the whole wave first, so it can send the requests concurrently;
    the calls, their order and their results are those of the plain
    sequential loop.
    """
    replies: list[list[str]] = []
    prefetch = getattr(backend, "prefetch", None)
    with prefetch(requests) if prefetch is not None else contextlib.nullcontext():
        for prompt, n, greedy, temperature, seed, max_tokens in requests:
            try:
                reply = backend.generate(
                    prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
                )
            except BackendError as exc:
                return replies, exc
            replies.append(reply)
    return replies, None


def sample_turns(
    backend: GeneratorBackend,
    contexts: Sequence[DialogContext],
    cfg: SamplingConfig,
    ontology: Ontology,
    *,
    greedy_only: bool = False,
) -> list[SampledTurnSet]:
    """Sample every context in two request waves: all states, then every distinct state's acts.

    Contexts are ground-truth prefixes, so no request waits on another
    context's replies. ``greedy_only`` draws only the greedy state and
    completion. Requests, seeds, calls and results are those of sampling the
    contexts one by one, and so is the error raised when requests fail: the
    first in context order, a context's state requests before its
    act/response requests. A failed state request therefore still lets the
    act/response requests of the contexts before it run. Replies are parsed
    with ``ontology``'s domains and act verbs.
    """
    domains, verbs = frozenset(ontology.domains), ontology.act_verbs()
    # The ``greedy`` flag of each request per prompt, greedy first.
    if greedy_only:
        draws: tuple[bool, ...] = (True,)
    else:
        draws = (True, False) if cfg.include_greedy else (False,)
    state_prompts = [serialize_state_prompt(context).text for context in contexts]
    state_replies, error = generate_wave(
        backend,
        [
            generation_request(prompt, "state", cfg, greedy=greedy)
            for prompt in state_prompts
            for greedy in draws
        ],
    )
    sampled: list[tuple[str, list[BeliefState], list[str]]] = []
    for at, context in enumerate(contexts):
        replies = state_replies[at * len(draws) : (at + 1) * len(draws)]
        if len(replies) < len(draws):
            break
        diagnostics: list[str] = []
        states: list[BeliefState] = []
        for pos, raw in enumerate(raw for reply in replies for raw in reply):
            parsed = parse_state(raw, domains=domains)
            for note in parsed.diagnostics:
                diagnostics.append(f"state sample {pos}: {note}")
            if parsed.state not in states:
                states.append(parsed.state)
        if not states:
            error = IncompleteSamples(
                f"no usable states for goal {context.goal_id} turn {context.turn_index}"
            )
            break
        sampled.append((state_prompts[at], states, diagnostics))

    turn_prompts = [
        act_prompt_text(state_prompt, state)
        for state_prompt, states, _ in sampled
        for state in states
    ]
    turn_replies, turn_error = generate_wave(
        backend,
        [
            generation_request(prompt, "turn", cfg, greedy=greedy)
            for prompt in turn_prompts
            for greedy in draws
        ],
    )
    if turn_error is not None:
        raise turn_error
    if error is not None:
        raise error
    replies = iter(turn_replies)
    turn_sets = []
    for _, states, diagnostics in sampled:
        completions: dict[int, list[TurnCompletion]] = {}
        for idx in range(len(states)):
            spots: list[TurnCompletion] = []
            raw_turns = [raw for _ in draws for raw in next(replies)]
            for pos, raw in enumerate(raw_turns):
                parsed = parse_act_response(raw, domains=domains, verbs=verbs)
                for note in parsed.diagnostics:
                    diagnostics.append(f"turn sample {pos} (state {idx}): {note}")
                completion = TurnCompletion(acts=parsed.acts, response=parsed.response)
                if completion not in spots:
                    spots.append(completion)
            completions[idx] = spots
        turn_sets.append(
            SampledTurnSet(
                states=states,
                completions=completions,
                has_greedy=draws[0],
                diagnostics=diagnostics,
            )
        )
    return turn_sets


def sample_turn(
    backend: GeneratorBackend, context: DialogContext, cfg: SamplingConfig, ontology: Ontology
) -> SampledTurnSet:
    """Sample one turn: ``sample_turns`` for a single context."""
    return sample_turns(backend, [context], cfg, ontology)[0]
