"""Subgoal-aware training-data pipeline for task-oriented dialog.

Samples candidate dialogs from a generation backend, evaluates dialog-level
success against user goals and an entity database, detects success-critical
subgoals by single-turn replacement, and emits SFT / preference-pair datasets.
"""

__version__ = "0.1.0"
