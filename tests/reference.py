"""The turn-by-turn INFORM/SUCCESS rule, the reference for ``DialogSplices``.

``subtod.evaluate.DialogSplices`` is the package's one implementation of the
rule; it indexes a dialog once and re-checks splices incrementally. These
definitions walk the dialog turn by turn instead, so the tests compare
outcomes, labels, splices and detection results against them. They share
only the database lookups (``_goal_names``, ``_inform`` and
``_offer_constraints``) with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from subtod.errors import PipelineError
from subtod.evaluate import _goal_names, _inform, _offer_constraints
from subtod.model import Database, Dialog, UserGoal, placeholder


class NotInGoal(PipelineError):
    """A per-domain outcome was requested for a domain the goal does not cover."""


@dataclass(frozen=True)
class DomainOutcome:
    domain: str
    inform: bool
    success: bool


def domain_outcome(dialog: Dialog, goal: UserGoal, db: Database, domain: str) -> DomainOutcome:
    """INFORM/SUCCESS for one goal domain of one dialog."""
    if domain not in goal.domains:
        raise NotInGoal(f"domain {domain!r} is not part of goal {dialog.goal_id!r}")
    entry = goal.domains[domain]
    schema = db.ontology.schema(domain)

    if not schema.entity_bearing:
        # Nothing to look up for e.g. taxi; the booked ride always "informs".
        inform = True
    else:
        name_ph = placeholder(domain, schema.name_slot)
        offer_turn = None
        for t, turn in enumerate(dialog.turns):
            if name_ph in turn.system.response:
                offer_turn = t
        if offer_turn is None:
            inform = not entry.constraints
        else:
            constraints = _offer_constraints(db, domain, dialog.turns[offer_turn].system.state)
            inform = _inform(db, domain, constraints, _goal_names(db, domain, entry))

    success = inform and all(
        any(placeholder(domain, slot) in turn.system.response for turn in dialog.turns)
        for slot in entry.requests
    )
    return DomainOutcome(domain=domain, inform=inform, success=success)


def dialog_success(dialog: Dialog, goal: UserGoal, db: Database) -> bool:
    """True iff every domain in the goal reaches SUCCESS."""
    return all(
        domain_outcome(dialog, goal, db, domain).success for domain in goal.domain_names()
    )


def outcomes(dialog: Dialog, goal: UserGoal, db: Database) -> tuple[tuple[str, bool, bool], ...]:
    """``domain_outcome`` of every goal domain, shaped as ``DialogSplices.outcomes``."""
    return tuple(
        (o.domain, o.inform, o.success)
        for o in (domain_outcome(dialog, goal, db, domain) for domain in goal.domain_names())
    )
