"""Per-turn candidate sampling.

For each dialog context, draw a greedy belief state plus ``k`` sampled ones,
then for every distinct surviving state draw a greedy act/response completion
plus ``k`` sampled ones. Duplicates are removed early (keeping the first
occurrence, so the greedy variant survives any tie) because identical
fragments can only produce identical downstream dialogs. The requests of each
stage, across all contexts of all dialogs sampled together, form one wave
with one call per distinct request, which a backend that can prefetch sends
concurrently.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Sequence

from .backends import DEFAULT_MAX_TOKENS, GeneratorBackend, stable_seed
from .errors import BackendError, IncompleteSamples, PipelineError
from .model import BeliefState, DialogContext, Ontology, SystemTurn
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

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


# The arguments of one ``generate`` call: (prompt, n, greedy, temperature, seed, max_tokens).
Request = tuple[str, int, bool, float, int, int]


# Deduplicated generations for one turn: per distinct state (greedy first),
# the distinct system turns sampled for it (greedy first), all sharing that
# state. Distinct indices are distinct fragments.
SampledTurnSet = list[list[SystemTurn]]


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
        DEFAULT_MAX_TOKENS,
    )


def answer_wave(
    backend: GeneratorBackend, requests: Sequence[Request]
) -> dict[Request, list[str] | BackendError]:
    """Answer every distinct request in ``requests`` with one ``backend.generate`` call.

    A request that fails maps to its ``BackendError`` and the wave goes on,
    so requests that share a failed one fail with the same error and no
    others. A backend with a ``prefetch`` context manager receives the
    distinct requests first, so it can send them concurrently.
    """
    distinct = list(dict.fromkeys(requests))
    answers: dict[Request, list[str] | BackendError] = {}
    prefetch = getattr(backend, "prefetch", None)
    with prefetch(distinct) if prefetch is not None else contextlib.nullcontext():
        for request in distinct:
            prompt, n, greedy, temperature, seed, max_tokens = request
            try:
                answers[request] = backend.generate(
                    prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
                )
            except BackendError as exc:
                answers[request] = exc
    return answers


def _replies_until_failure(
    answers: dict[Request, list[str] | BackendError], requests: Sequence[Request]
) -> tuple[list[list[str]], BackendError | None]:
    """The replies to ``requests`` before the first that failed, and its error (or ``None``)."""
    replies = []
    for request in requests:
        reply = answers[request]
        if isinstance(reply, BackendError):
            return replies, reply
        replies.append(reply)
    return replies, None


def sample_dialogs(
    backend: GeneratorBackend,
    dialogs: Sequence[Sequence[DialogContext]],
    cfg: SamplingConfig,
    ontology: Ontology,
    *,
    greedy_only: bool = False,
) -> list[list[SampledTurnSet] | BackendError | IncompleteSamples]:
    """Sample several dialogs' contexts in two waves: all states, then every distinct state's acts.

    Contexts are ground-truth prefixes, so no request waits on another
    context's replies, and each wave holds every distinct request of every
    dialog (``answer_wave``): dialogs that share a request share its reply.
    Each entry is one dialog's turn sets, or the error that sampling its
    contexts alone raises: the first failure in context order, a context's
    state requests before its act/response requests. A failed state request
    therefore still lets the act/response requests of the contexts before it
    run. ``greedy_only`` draws only the greedy state and completion; otherwise
    each prompt gets the greedy request and the ``k``-sample one. Replies are
    parsed with ``ontology``'s domains and act verbs.
    """
    domains, verbs = frozenset(ontology.domains), ontology.act_verbs()
    # The ``greedy`` flag of each request per prompt, greedy first.
    draws: tuple[bool, ...] = (True,) if greedy_only else (True, False)
    state_prompts = [
        [serialize_state_prompt(context) for context in contexts] for contexts in dialogs
    ]
    state_requests = [
        [
            generation_request(prompt, "state", cfg, greedy=greedy)
            for prompt in prompts
            for greedy in draws
        ]
        for prompts in state_prompts
    ]
    state_answers = answer_wave(backend, [r for requests in state_requests for r in requests])

    # Per dialog: (state prompt, distinct states) of each context sampled
    # before the first failure, that failure, and the turn requests.
    partial = []
    for contexts, prompts, requests in zip(dialogs, state_prompts, state_requests):
        state_replies, error = _replies_until_failure(state_answers, requests)
        sampled: list[tuple[str, list[BeliefState]]] = []
        for at, context in enumerate(contexts):
            replies = state_replies[at * len(draws) : (at + 1) * len(draws)]
            if len(replies) < len(draws):
                break
            states: list[BeliefState] = []
            for raw in (raw for reply in replies for raw in reply):
                state = parse_state(raw, domains=domains).state
                if state not in states:
                    states.append(state)
            if not states:
                error = IncompleteSamples(
                    f"no usable states for goal {context.goal_id} turn {context.turn_index}"
                )
                break
            sampled.append((prompts[at], states))
        turn_requests = [
            generation_request(act_prompt_text(state_prompt, state), "turn", cfg, greedy=greedy)
            for state_prompt, states in sampled
            for state in states
            for greedy in draws
        ]
        partial.append((sampled, error, turn_requests))
    turn_answers = answer_wave(backend, [r for _, _, requests in partial for r in requests])

    results: list[list[SampledTurnSet] | BackendError | IncompleteSamples] = []
    for sampled, error, requests in partial:
        turn_replies, turn_error = _replies_until_failure(turn_answers, requests)
        if turn_error is not None or error is not None:
            results.append(turn_error or error)
            continue
        replies = iter(turn_replies)
        turn_sets = []
        for _, states in sampled:
            turn_set: SampledTurnSet = []
            for state in states:
                turns: list[SystemTurn] = []
                for raw in (raw for _ in draws for raw in next(replies)):
                    parsed = parse_act_response(raw, domains=domains, verbs=verbs)
                    turn = SystemTurn(state=state, acts=parsed.acts, response=parsed.response)
                    if turn not in turns:
                        turns.append(turn)
                turn_set.append(turns)
            turn_sets.append(turn_set)
        results.append(turn_sets)
    return results


def sample_turns(
    backend: GeneratorBackend,
    contexts: Sequence[DialogContext],
    cfg: SamplingConfig,
    ontology: Ontology,
    *,
    greedy_only: bool = False,
) -> list[SampledTurnSet]:
    """``sample_dialogs`` for one dialog's contexts; its failure is raised."""
    [result] = sample_dialogs(backend, [contexts], cfg, ontology, greedy_only=greedy_only)
    if isinstance(result, PipelineError):
        raise result
    return result


def sample_turn(
    backend: GeneratorBackend, context: DialogContext, cfg: SamplingConfig, ontology: Ontology
) -> SampledTurnSet:
    """Sample one turn: ``sample_turns`` for a single context."""
    return sample_turns(backend, [context], cfg, ontology)[0]
