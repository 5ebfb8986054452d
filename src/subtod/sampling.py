"""Per-turn candidate sampling.

For one dialog context, draw a greedy belief state plus ``k`` sampled ones,
then for every distinct surviving state draw a greedy act/response completion
plus ``k`` sampled ones. Duplicates are removed early (keeping the first
occurrence, so the greedy variant survives any tie) because identical
fragments can only produce identical downstream dialogs. The requests of each
stage form one wave, which a backend that can prefetch sends concurrently.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Sequence

from .backends import GeneratorBackend, stable_seed
from .errors import IncompleteSamples
from .model import BeliefState, DialogAct, DialogContext
from .verbalize import (
    parse_act_response,
    parse_state,
    serialize_act_prompt,
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
    """Deduplicated generations for one turn, greedy variant first when present."""

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


def _prompt_requests(prompt: str, stage: str, cfg: SamplingConfig) -> list[Request]:
    greedy = [generation_request(prompt, stage, cfg, greedy=True)] if cfg.include_greedy else []
    return greedy + [generation_request(prompt, stage, cfg, greedy=False)]


def generate_wave(backend: GeneratorBackend, requests: Sequence[Request]) -> list[list[str]]:
    """Answer ``requests`` in order, one ``backend.generate`` call each.

    A backend with a ``prefetch`` context manager receives the whole wave
    first, so it can send the requests concurrently; the calls, their order
    and their results are those of the plain sequential loop.
    """
    prefetch = getattr(backend, "prefetch", None)
    with prefetch(requests) if prefetch is not None else contextlib.nullcontext():
        return [
            backend.generate(
                prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
            )
            for prompt, n, greedy, temperature, seed, max_tokens in requests
        ]


def sample_turn(
    backend: GeneratorBackend, context: DialogContext, cfg: SamplingConfig
) -> SampledTurnSet:
    """Sample one turn in two request waves: the states, then every distinct state's acts."""
    prompt = serialize_state_prompt(context)
    diagnostics: list[str] = []
    raw_states = [
        raw
        for reply in generate_wave(backend, _prompt_requests(prompt.text, "state", cfg))
        for raw in reply
    ]
    states: list[BeliefState] = []
    for pos, raw in enumerate(raw_states):
        parsed = parse_state(raw)
        for note in parsed.diagnostics:
            diagnostics.append(f"state sample {pos}: {note}")
        if parsed.state not in states:
            states.append(parsed.state)
    if not states:
        raise IncompleteSamples(f"no usable states for goal {context.goal_id} turn {context.turn_index}")

    turn_requests = [
        _prompt_requests(serialize_act_prompt(context, state).text, "turn", cfg) for state in states
    ]
    replies = iter(generate_wave(backend, [r for group in turn_requests for r in group]))
    completions: dict[int, list[TurnCompletion]] = {}
    for idx, group in enumerate(turn_requests):
        raw_turns = [raw for _ in group for raw in next(replies)]
        spots: list[TurnCompletion] = []
        for pos, raw in enumerate(raw_turns):
            parsed = parse_act_response(raw)
            for note in parsed.diagnostics:
                diagnostics.append(f"turn sample {pos} (state {idx}): {note}")
            completion = TurnCompletion(acts=parsed.acts, response=parsed.response)
            if completion not in spots:
                spots.append(completion)
        completions[idx] = spots
    return SampledTurnSet(
        states=states,
        completions=completions,
        has_greedy=cfg.include_greedy,
        diagnostics=diagnostics,
    )
