"""Per-turn candidate sampling.

For each distinct dialog context, that is each distinct state prompt, draw a
greedy belief state plus ``k`` sampled ones, then for every distinct
surviving state draw a greedy act/response completion plus ``k`` sampled ones.
Once a prompt has two or more distinct states, the greedy state gets only
its greedy completion and each sampled state only its ``k`` sampled ones:
candidates read the greedy state only in the all-greedy dialog, with its
greedy completion, and a sampled state only with its sampled completions
(``assemble_candidates``). Duplicates are removed early (keeping the first
occurrence, so the greedy variant survives any tie) because identical
fragments can only produce identical downstream dialogs. The requests of
each stage, across all dialogs sampled together, form one wave with one call
per distinct request, which a backend that can prefetch sends concurrently.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .backends import DEFAULT_MAX_TOKENS, GeneratorBackend, stable_seed
from .errors import BackendError
from .model import BeliefState, DialogContext, Ontology, SystemTurn
from .verbalize import (
    act_prompt_text,
    parse_act_response,
    parse_state,
    state_prompts,
)


@dataclass(frozen=True)
class SamplingConfig:
    k: int = 2
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


# The arguments of one ``generate`` call: (prompt, n, greedy, temperature, seed, max_tokens).
Request = tuple[str, int, bool, float, int, int]


# Deduplicated generations for one turn: per distinct state (greedy first),
# the distinct system turns sampled for it, all sharing that state. A lone
# state lists its greedy turn, then its samples; when there are several,
# slot 0 holds just the greedy turn and every other slot just its state's
# samples. Distinct indices are distinct fragments.
SampledTurnSet = list[list[SystemTurn]]


def generation_requests(
    prompt: str, stage: str, cfg: SamplingConfig, draws: Sequence[bool]
) -> list[Request]:
    """The greedy (n=1) or ``k``-sample request for ``prompt``, per ``greedy`` flag in ``draws``.

    ``stage`` is ``"state"`` or ``"turn"``. A request's seed is ``stable_seed(cfg.seed, prompt,
    tag)`` with the tag ``stage`` or ``greedy-<stage>``, so equal requests get equal seeds.
    """
    return [
        (prompt, 1 if greedy else cfg.k, greedy, cfg.temperature,
         stable_seed(cfg.seed, prompt, f"greedy-{stage}" if greedy else stage), DEFAULT_MAX_TOKENS)
        for greedy in draws
    ]


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
    prompts: Mapping[str, Sequence[str]],
    cfg: SamplingConfig,
    ontology: Ontology,
    *,
    known: dict[str, SampledTurnSet] | None = None,
    greedy_only: bool = False,
) -> dict[str, list[SampledTurnSet] | BackendError]:
    """Sample several dialogs' turns in two waves: all states, then every distinct state's acts.

    ``prompts`` maps each dialog's key, its goal id (a corpus dialog's id),
    to the state prompts of its turns in turn order (``state_prompts``). A turn's turn set depends
    only on its state prompt, so each distinct prompt is sampled once.
    ``known`` maps prompts already sampled, by calls with the same ``cfg``,
    ``ontology`` and ``greedy_only``, to their turn sets: those are reused,
    and every prompt this call samples without a failure is added to it.

    Prompts are ground-truth prefixes, so no request waits on another
    turn's replies, and each wave holds every distinct request of every
    other prompt (``answer_wave``). The result maps each key, in the same
    order, to its dialog's turn sets, or the error that sampling its turns
    alone raises: the first failure in turn order, a turn's state requests
    before its act/response requests. A prompt's act/response requests go
    out only if some dialog reaches it with no state-stage failure before,
    so a failed state request still lets the act/response requests of the
    turns before it run. ``greedy_only`` draws only the greedy state and
    completion; otherwise each prompt gets the greedy state request and the
    ``k``-sample one, and each of its states the act/response draws that the
    module docstring names. Replies are parsed with ``ontology``'s domains
    and act verbs.
    """
    domains, verbs = frozenset(ontology.domains), ontology.act_verbs()
    # The ``greedy`` flag of each request per prompt, greedy first.
    draws: tuple[bool, ...] = (True,) if greedy_only else (True, False)
    if known is None:
        known = {}
    state_requests = {
        prompt: generation_requests(prompt, "state", cfg, draws)
        for prompt in dict.fromkeys(prompt for ps in prompts.values() for prompt in ps)
        if prompt not in known
    }
    state_answers = answer_wave(backend, [r for rs in state_requests.values() for r in rs])

    # Per new prompt: its distinct states, none if no reply parses, or the
    # failure of its state requests.
    states_of: dict[str, list[BeliefState] | BackendError] = {}
    for prompt, requests in state_requests.items():
        state_replies, error = _replies_until_failure(state_answers, requests)
        if error is not None:
            states_of[prompt] = error
            continue
        states = states_of[prompt] = []
        for raw in (raw for reply in state_replies for raw in reply):
            state = parse_state(raw, domains=domains).state
            if state not in states:
                states.append(state)

    # The act/response requests of every new prompt that some dialog reaches,
    # per distinct state. Once a prompt has two distinct states, candidates
    # read only the greedy turn of the greedy state and only the sampled
    # turns of the others, so each state gets only that draw.
    turn_requests: dict[str, list[list[Request]]] = {}
    for dialog_prompts in prompts.values():
        for prompt in dialog_prompts:
            if prompt in known or prompt in turn_requests:
                continue
            states = states_of[prompt]
            if isinstance(states, BackendError) or not states:
                break
            turn_requests[prompt] = [
                generation_requests(
                    act_prompt_text(prompt, state), "turn", cfg,
                    draws if len(states) == 1 else (i == 0,),
                )
                for i, state in enumerate(states)
            ]
    turn_answers = answer_wave(
        backend, [r for per_state in turn_requests.values() for rs in per_state for r in rs]
    )

    turn_errors: dict[str, BackendError] = {}
    for prompt, per_state in turn_requests.items():
        turn_replies, error = _replies_until_failure(turn_answers, [r for rs in per_state for r in rs])
        if error is not None:
            turn_errors[prompt] = error
            continue
        replies = iter(turn_replies)
        turn_set: SampledTurnSet = []
        for state, requests in zip(states_of[prompt], per_state):
            turns: list[SystemTurn] = []
            for raw in (raw for _ in requests for raw in next(replies)):
                parsed = parse_act_response(raw, domains=domains, verbs=verbs)
                turn = SystemTurn(state=state, acts=parsed.acts, response=parsed.response)
                if turn not in turns:
                    turns.append(turn)
            turn_set.append(turns)
        known[prompt] = turn_set

    results: dict[str, list[SampledTurnSet] | BackendError] = {}
    for key, dialog_prompts in prompts.items():
        turn_sets = results[key] = []
        for t, prompt in enumerate(dialog_prompts):
            if prompt in known:
                turn_sets.append(known[prompt])
                continue
            states = states_of[prompt]
            if isinstance(states, BackendError):
                results[key] = states
            elif not states:
                results[key] = BackendError(f"no usable states for goal {key} turn {t}")
            else:
                results[key] = turn_errors[prompt]
            break
    return results


def sample_turn(
    backend: GeneratorBackend, context: DialogContext, cfg: SamplingConfig, ontology: Ontology
) -> SampledTurnSet:
    """Sample ``context``'s turn: ``sample_dialogs`` over its prefix's prompts; a failure is raised.

    A failure names the goal and turn that sampling the whole dialog would.
    """
    prompts = {context.goal_id: state_prompts([*context.pairs, context])}
    result = sample_dialogs(backend, prompts, cfg, ontology)[context.goal_id]
    if isinstance(result, BackendError):
        raise result
    return result[-1]
