"""Brute-force reference implementations the tests compare the package against.

The functions in the first half are written from the metric definitions using
plain dicts, lists, and explicit loops: a character-walking tokenizer instead
of a regex, greedy multiset matching instead of Counter arithmetic, exhaustive
replacement enumeration instead of the package's traversal. Two independent
implementations rarely share a bug, so agreement is evidence of correctness.

``generation_request`` spells out, with ``hashlib``, the request and seed
that sampling sends for one prompt and draw, apart from
``subtod.backends.stable_seed``. ``sampled_turn_set`` samples one prompt by
sending every draw, one request at a time, with none left out, and
``every_draw_candidates`` builds a goal's candidates from such turn sets.

The adapters at the bottom only convert package objects into the plain data
the oracles consume, a dialog into its per-turn ``DialogContext``s
(``contexts_of``), or one context into its state prompt
(``serialize_state_prompt``); they contain no evaluation logic of their own.
"""

from __future__ import annotations

import hashlib
import math

# --------------------------------------------------------------- plain text


def norm_text(value):
    out = []
    pending_space = False
    for ch in value.strip().lower():
        if ch.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch)
    return "".join(out)


def tokenize(text):
    tokens = []
    word = []
    for ch in text.lower():
        if ch.isalnum() or ch == "_":
            word.append(ch)
            continue
        if word:
            tokens.append("".join(word))
            word = []
        if not ch.isspace():
            tokens.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


def bleu(hypotheses, references):
    """Corpus BLEU-4, 0..100, epsilon-smoothed numerators, standard brevity."""
    if len(hypotheses) != len(references):
        raise ValueError("corpus size mismatch")
    hyp_len = 0
    ref_len = 0
    matched = {1: 0, 2: 0, 3: 0, 4: 0}
    total = {1: 0, 2: 0, 3: 0, 4: 0}
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = tokenize(hyp)
        ref_tokens = tokenize(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in (1, 2, 3, 4):
            grams = [tuple(hyp_tokens[i : i + n]) for i in range(len(hyp_tokens) - n + 1)]
            available = [tuple(ref_tokens[i : i + n]) for i in range(len(ref_tokens) - n + 1)]
            total[n] += len(grams)
            for gram in grams:
                if gram in available:
                    available.remove(gram)
                    matched[n] += 1
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in (1, 2, 3, 4):
        numerator = matched[n] if matched[n] > 0 else 1e-9
        denominator = total[n] if total[n] > 0 else 1
        log_sum += 0.25 * math.log(numerator / denominator)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum)


# ------------------------------------------------------------ goal metrics


def query(table, constraints):
    rows = []
    for row in table:
        keep = True
        for slot, want in constraints.items():
            if norm_text(want) == "dontcare":
                continue
            if slot not in row or norm_text(row[slot]) != norm_text(want):
                keep = False
                break
        if keep:
            rows.append(row)
    return rows


def inform_success(goal, turns, schemas, tables):
    """(inform, success) for one dialog, each a conjunction over goal domains.

    ``goal`` is {domain: {"constraints": {...}, "requests": [...]}}, ``turns``
    a list of {"state": {...}, "response": str, ...} dicts in dialog order.
    """
    inform_all = True
    success_all = True
    for domain in goal:
        constraints = goal[domain].get("constraints", {})
        requests = goal[domain].get("requests", [])
        schema = schemas[domain]
        if not schema.get("entity_bearing", True):
            inform = True
        else:
            name_slot = schema.get("name_slot", "name")
            tag = "[" + domain + "_" + name_slot + "]"
            offer_turn = -1
            for t in range(len(turns)):
                if tag in turns[t]["response"]:
                    offer_turn = t
            if offer_turn < 0:
                inform = len(constraints) == 0
            else:
                belief = {}
                for slot, value in turns[offer_turn].get("state", {}).get(domain, {}).items():
                    if slot in schema.get("informable", []):
                        belief[slot] = value
                offered = query(tables.get(domain, []), belief)
                wanted = query(tables.get(domain, []), constraints)
                wanted_names = [row.get(name_slot, "") for row in wanted]
                inform = False
                for row in offered:
                    if row.get(name_slot, "") in wanted_names:
                        inform = True
                        break
        success = inform
        if success:
            for slot in requests:
                tag = "[" + domain + "_" + slot + "]"
                hit = False
                for turn in turns:
                    if tag in turn["response"]:
                        hit = True
                        break
                if not hit:
                    success = False
                    break
        inform_all = inform_all and inform
        success_all = success_all and success
    return inform_all, success_all


def detect(dialogs, labels, goal, schemas, tables):
    """Every (winner_id, turn, kind, loser_id) whose splice breaks the winner.

    Exhaustive enumeration: each successful dialog x turn x fragment kind x
    unsuccessful dialog, skipping fragments the winner already has and turns
    the loser does not reach.
    """
    winners = [d for d, ok in zip(dialogs, labels) if ok]
    losers = [d for d, ok in zip(dialogs, labels) if not ok]
    flips = set()
    for winner in winners:
        for t in range(len(winner["turns"])):
            mine = winner["turns"][t]
            for kind in ("state", "act_response"):
                for loser in losers:
                    if t >= len(loser["turns"]):
                        continue
                    theirs = loser["turns"][t]
                    if kind == "state":
                        if mine["state"] == theirs["state"]:
                            continue
                        patched = dict(mine, state=theirs["state"])
                    else:
                        if (
                            mine["acts"] == theirs["acts"]
                            and mine["response"] == theirs["response"]
                        ):
                            continue
                        patched = dict(mine, acts=theirs["acts"], response=theirs["response"])
                    spliced = winner["turns"][:t] + [patched] + winner["turns"][t + 1 :]
                    if not inform_success(goal, spliced, schemas, tables)[1]:
                        flips.add((winner["id"], t, kind, loser["id"]))
    return flips


# ---------------------------------------------------------------- requests


def generation_request(prompt, stage, cfg, *, greedy):
    """The greedy (n=1) or ``k``-sample request that sampling sends for ``prompt``.

    ``stage`` is ``"state"`` or ``"turn"``. The seed is the first 8 bytes,
    big-endian, of the SHA-256 of ``"{cfg.seed}:{prompt}:{tag}"``, where the
    tag is ``stage`` or ``greedy-<stage>``; 256 is the package's max_tokens.
    """
    tag = f"greedy-{stage}" if greedy else stage
    digest = hashlib.sha256(f"{cfg.seed}:{prompt}:{tag}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    return (prompt, 1 if greedy else cfg.k, greedy, cfg.temperature, seed, 256)


# ---------------------------------------------------------------- sampling

from subtod.model import Dialog, SystemTurn, Turn  # noqa: E402
from subtod.verbalize import act_prompt_text, parse_act_response, parse_state  # noqa: E402


def _draw_replies(backend, prompt, stage, cfg):
    """The replies to ``prompt``'s greedy request, then to its ``k``-sample one."""
    replies = []
    for greedy in (True, False):
        _, n, _, temperature, seed, max_tokens = generation_request(prompt, stage, cfg, greedy=greedy)
        replies += backend.generate(
            prompt, n, greedy=greedy, temperature=temperature, seed=seed, max_tokens=max_tokens
        )
    return replies


def sampled_continuations(backend, prompt, state, cfg, ontology):
    """``state``'s greedy system turn and its ``k`` sampled ones, duplicates kept."""
    domains, verbs = frozenset(ontology.domains), ontology.act_verbs()
    turns = []
    for raw in _draw_replies(backend, act_prompt_text(prompt, state), "turn", cfg):
        parsed = parse_act_response(raw, domains=domains, verbs=verbs)
        turns.append(SystemTurn(state=state, acts=parsed.acts, response=parsed.response))
    return turns[0], turns[1:]


def sampled_turn_set(backend, prompt, cfg, ontology):
    """One state prompt's turn set from every draw: per distinct state, its distinct turns.

    The greedy and ``k``-sample state requests give the distinct states, and
    each distinct state's greedy and ``k``-sample act/response requests give
    its distinct system turns; each list keeps first occurrences, greedy first.
    """
    domains = frozenset(ontology.domains)
    states = []
    for raw in _draw_replies(backend, prompt, "state", cfg):
        state = parse_state(raw, domains=domains).state
        if state not in states:
            states.append(state)
    turn_set = []
    for state in states:
        greedy, samples = sampled_continuations(backend, prompt, state, cfg, ontology)
        turns = []
        for turn in [greedy, *samples]:
            if turn not in turns:
                turns.append(turn)
        turn_set.append(turns)
    return turn_set


def every_draw_candidates(source, turn_sets, k):
    """The ``k*k + 1`` candidates of ``source`` over ``sampled_turn_set``'s turn sets.

    Candidate 0 takes the greedy state and its greedy turn at every turn.
    Candidate j (1-based) takes, at every turn, sampled state (j-1) // k and
    its sampled turn (j-1) % k: list slots 1 + (j-1) // k and 1 + (j-1) % k,
    since both lists are greedy first, each clamped to the list's last slot.
    A candidate whose turns equal an earlier one's is dropped.
    """
    kept = []
    for j in range(k * k + 1):
        turns = []
        for turn, turn_set in zip(source.turns, turn_sets):
            state_turns = turn_set[0 if j == 0 else min(1 + (j - 1) // k, len(turn_set) - 1)]
            system = state_turns[0 if j == 0 else min(1 + (j - 1) % k, len(state_turns) - 1)]
            turns.append(Turn(user=turn.user, system=system))
        suffix = "0-0" if j == 0 else f"{(j - 1) // k + 1}-{(j - 1) % k + 1}"
        candidate = Dialog(
            id=f"{source.id}/cand-{suffix}", goal_id=source.goal_id, turns=tuple(turns)
        )
        if all(candidate.turns != other.turns for other in kept):
            kept.append(candidate)
    return kept


# ----------------------------------------------- package-object adapters

from subtod.corpus import dialog_to_dict, goal_to_dict  # noqa: E402
from subtod.model import DialogContext  # noqa: E402
from subtod.verbalize import state_prompts  # noqa: E402


def contexts_of(dialog):
    """One context per turn: the first t pairs plus turn t's user utterance."""
    return [
        DialogContext(goal_id=dialog.goal_id, pairs=dialog.turns[:t], user=turn.user)
        for t, turn in enumerate(dialog.turns)
    ]


def serialize_state_prompt(context):
    """The state prompt of one context: the last of ``state_prompts`` over its pairs and itself."""
    return state_prompts([*context.pairs, context])[-1]


def plain_dialog(dialog):
    data = dialog_to_dict(dialog)
    return {"id": data["id"], "turns": data["turns"]}


def plain_goal(goal):
    return goal_to_dict(goal)


def plain_schemas(db):
    return {
        domain: {
            "informable": list(schema.informable),
            "entity_bearing": schema.entity_bearing,
            "name_slot": schema.name_slot,
        }
        for domain, schema in db.ontology.domains.items()
    }


def plain_tables(db):
    return {domain: [dict(e) for e in rows] for domain, rows in db.tables.items()}


def detect_flips(group, samples):
    """Library detection output as the oracle's quadruples, in detection order.

    A sample lists, in loser id order, the same-turn system turn of each
    unsuccessful candidate whose fragment broke the winner. The losers are
    recovered from those turns, and the list must hold exactly one turn per
    recovered loser.
    """
    losers = sorted(group.unsuccessful(), key=lambda d: d.id)
    flips = []
    for sample in samples:
        t = sample.turn
        matched = [d for d in losers if t < len(d.turns) and d.turns[t].system in sample.negatives]
        assert [d.turns[t].system for d in matched] == list(sample.negatives)
        flips += [(sample.dialog_id, t, sample.kind.value, d.id) for d in matched]
    return flips


def detect_flip_set(group, samples):
    """``detect_flips`` as a set."""
    return set(detect_flips(group, samples))
