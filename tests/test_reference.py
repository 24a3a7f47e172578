"""The batched engine against the scalar reference, row by row.

Every row of a batch must end as :func:`reference.run_session` ends the
same row alone: status, abort step, removed slots, claimed labels, family
and unmasked bits; a few rows' transcripts must match byte for byte.  A
hypothesis fuzz hands both the same per-row removal pools and families,
legal or not, and they must agree on every row's status and abort step.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qotsim.adversary import DishonestRemovalBob, GreedyBob, LeakyBob, PostponeBob
from qotsim.channel import RandomSource
from qotsim.params import Case, validate_params
from qotsim.protocol import (
    STATUSES,
    HonestBob,
    ProtocolOrderError,
    TrialOutcome,
    decode,
    draw_sessions,
    run_protocol,
)
from test_stability import _RepeatingBob

# (6,2,42) is a second low-case set, so that dishonest removal runs at m = 2
SETS = ((3, 1, 6), (2, 1, 18), (4, 1, 40), (4, 2, 20), (5, 2, 25), (6, 2, 42))
ROWS = 256


class _OutOfRangeBob(HonestBob):
    """Names slot N in place of his first subset's first slot on rows whose
    d_0 is 1, else slot -1 on rows whose d_1 is 1."""

    def build_family(self, state):
        family, claimed = super().build_family(state)
        d = state.draws.d
        first = family[0].copy()
        first[:, 0] = np.where(d[:, 0] == 1, state.params.N,
                               np.where(d[:, 1] == 1, -1, first[:, 0]))
        return [first, *family[1:]], claimed


class _FloatSlotBob(HonestBob):
    """Sends his honest family with every slot as a float: the same slots,
    but not integers, so step 5 refuses them."""

    def build_family(self, state):
        family, claimed = super().build_family(state)
        return family.astype(np.float64), claimed


# label -> (engine Bob, reference Bob, strict Alice)
BOBS = {
    "honest": (HonestBob, reference.HonestBob, False),
    "greedy": (GreedyBob, reference.GreedyBob, False),
    "dishonest-removal": (DishonestRemovalBob, reference.DishonestRemovalBob, False),
    "dishonest-removal-strict": (DishonestRemovalBob, reference.DishonestRemovalBob, True),
    "postpone": (PostponeBob, reference.PostponeBob, False),
    "leaky": (LeakyBob, reference.LeakyBob, False),
    "repeating": (_RepeatingBob, reference.RepeatingBob, False),
    "out-of-range": (_OutOfRangeBob, reference.OutOfRangeBob, False),
    "float-slots": (_FloatSlotBob, reference.FloatSlotBob, False),
}
CASES = [
    (nmN, label) for nmN in SETS for label in BOBS
    # dishonest removal applies to the low case only
    if BOBS[label][0] is not DishonestRemovalBob or validate_params(*nmN).case is Case.LOW
]


def engine_rows(state):
    """Each row of a finished batch as :meth:`reference.Session.fields`."""
    status, aborted_at = state.status.tolist(), state.aborted_at.tolist()
    removed = [tuple(np.flatnonzero(row).tolist()) for row in state.removed]
    for k in range(state.rows):
        done, stepped = status[k] == 0, aborted_at[k] in (0, 5)  # reached step 5
        yield (STATUSES[status[k]].value, aborted_at[k], removed[k],
               tuple(np.flatnonzero(state.claimed[k]).tolist()) if stepped else None,
               tuple(map(tuple, state.family[k].tolist())) if done else None,
               tuple(state.recovered[k].tolist()) if done else None)


@functools.cache  # a passing case's endings, so the suite compares each case once
def compare(nmN, label, rows=ROWS):
    """Rows 0 .. rows-1 of the case's stream through the engine and the
    reference: every field of every row, and the transcript bytes of row 0
    and of the first row to end each other way.  Returns {(status, abort
    step): first row to end so}."""
    params = validate_params(*nmN)
    bob, scalar_bob, strict = BOBS[label]
    draws = draw_sessions(params, RandomSource(2032).stream(label), 0, rows)
    state = run_protocol(params, None, None, draws, bob=bob(), strict_removal=strict)
    sessions = [reference.run_session(params, row, scalar_bob(), strict)
                for row in reference.rows(draws)]
    for k, (row, session) in enumerate(zip(engine_rows(state), sessions)):
        assert row == session.fields(), (nmN, label, k)
    ends = {}
    for k, session in enumerate(sessions):
        ends.setdefault((session.status, session.aborted_at), k)
    for k in sorted({0, *ends.values()}):
        assert TrialOutcome(state, k).transcript.to_jsonl() == sessions[k].to_jsonl(), (
            nmN, label, k)
    return ends


@pytest.mark.parametrize("nmN,label", CASES, ids=[f"{label}-{nmN}" for nmN, label in CASES])
def test_engine_rows_are_the_scalar_reference(nmN, label):
    compare(nmN, label)


def test_the_cases_reach_every_ending():
    """Across the cases the rows end every way a session can: completed,
    short of matches at step 4 or 5, caught at step 2 or 4, and an invalid
    family at step 5."""
    ends = set()
    for nmN, label in CASES:
        ends |= set(compare(nmN, label))
    assert ends == {(reference.COMPLETED, 0), (reference.SHORT, 4), (reference.SHORT, 5),
                    (reference.CHEAT, 2), (reference.CHEAT, 4), (reference.INVALID, 5)}


# ---------------------------------------------------------------------------
# fuzz: the same per-row messages, legal or not, through both
# ---------------------------------------------------------------------------

def _planned_pool(plan, match, low):
    """One row's removal pool: the honest one (matches in the low case,
    mismatches in the high), its complement, or the plan's bit mask."""
    kind, mask = plan["pool"]
    if kind == "mask":
        return [bool(mask >> i & 1) for i in range(len(match))]
    return [(m == low) == (kind == "honest") for m in match]


def _planned_family(plan, shape, survivors, removed, n, s):
    """One row's family: its survivors in the plan's order, s to a subset,
    with one slot changed as the plan says, then cut to the batch's shape
    (subset count, and the first subset's size minus s)."""
    slots = random.Random(plan["order"]).sample(survivors, len(survivors))
    kind, at, value = plan["change"]
    if slots and kind != "none":
        at %= len(slots)
        slots[at] = {"repeat": slots[(at + 1) % len(slots)], "removed": min(removed, default=-1),
                     "slot": value}[kind]
    family = [slots[i * s:(i + 1) * s] for i in range(n)]
    count, grow = shape
    family[0] = (family[0] + family[-1])[:s + grow] if grow > 0 else family[0][:s + grow]
    return (family + family)[:count]


def _claimed(plan, n):
    return [bool(plan["claimed"] >> label & 1) for label in range(n)]


class _PlannedBob(HonestBob):
    """Sends each row's planned pool and family; a `meddle` Bob first drives
    step 7 from inside the named hook."""

    def __init__(self, plans, shape, meddle):
        self.plans, self.shape, self.meddle, self.meddled = plans, shape, meddle, False

    def _hook(self, name, state):
        if self.meddle == name:
            self.meddled = True
            decode(state)

    def removal_pool(self, state):
        self._hook("pool", state)
        low = state.params.case is Case.LOW
        return np.array([_planned_pool(plan, match, low)
                         for plan, match in zip(self.plans, state.match_flags().tolist())])

    def build_family(self, state):
        self._hook("family", state)
        p = state.params
        rows = [_planned_family(plan, self.shape, np.flatnonzero(~removed).tolist(),
                                np.flatnonzero(removed).tolist(), p.n, p.subset_size)
                for plan, removed in zip(self.plans, state.removed)]
        family = [np.array([row[label] for row in rows], dtype=np.int64)
                  for label in range(len(rows[0]))]
        return family, np.array([_claimed(plan, p.n) for plan in self.plans])


class _ScalarPlannedBob(reference.HonestBob):
    def __init__(self, plan, shape, measures):
        self.plan, self.shape, self.measures = plan, shape, measures

    def removal_pool(self, trial):
        return _planned_pool(self.plan, trial.match, trial.params.case is Case.LOW)

    def build_family(self, trial):
        p = trial.params
        family = _planned_family(self.plan, self.shape, trial.survivors(), sorted(trial.removed),
                                 p.n, p.subset_size)
        return family, {label for label, c in enumerate(_claimed(self.plan, p.n)) if c}


@st.composite
def _plans(draw, params):
    n, N = params.n, params.N
    slot = st.one_of(st.integers(-(2**63), -1), st.integers(0, N - 1), st.integers(N, 2**63 - 1))
    return {
        "pool": (draw(st.sampled_from(["honest", "honest", "flip", "mask"])),
                 draw(st.integers(0, 2**N - 1))),
        "claimed": draw(st.integers(0, 2**n - 1)),
        "order": draw(st.integers(0, 2**32)),
        "change": (draw(st.sampled_from(["none", "none", "repeat", "removed", "slot"])),
                   draw(st.integers(0, N)), draw(slot)),
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nmN=st.sampled_from(SETS), rows=st.integers(1, 6),
       strict=st.booleans(), seed=st.integers(0, 2**32),
       measures=st.sampled_from([True] * 4 + [False]),
       meddle=st.sampled_from([None] * 6 + ["pool", "family"]))
def test_fuzzed_hooks_end_each_row_as_the_reference(data, nmN, rows, strict, seed, measures,
                                                    meddle):
    """Per-row removal pools and families (wrong subset counts and sizes,
    repeats, negative and out-of-range slots, removed slots) end every row
    with the reference's status and abort step.  The engine raises nothing
    but ProtocolOrderError, and that only for a hook that drove a phase out
    of order."""
    params = validate_params(*nmN)
    plans = [data.draw(_plans(params)) for _ in range(rows)]
    shape = (data.draw(st.sampled_from([params.n] * 4 + [params.n - 1, params.n + 1])),
             data.draw(st.sampled_from([0] * 4 + [-1, 1])))
    draws = draw_sessions(params, RandomSource(seed), 0, rows)
    bob = _PlannedBob(plans, shape, meddle)
    bob.measures = measures
    try:
        state = run_protocol(params, None, None, draws, bob=bob, strict_removal=strict)
    except ProtocolOrderError:
        assert bob.meddled
        return
    assert not bob.meddled
    for k, (plan, row) in enumerate(zip(plans, reference.rows(draws))):
        session = reference.run_session(params, row, _ScalarPlannedBob(plan, shape, measures),
                                        strict)
        assert (STATUSES[state.status[k]].value, int(state.aborted_at[k])) == (
            session.status, session.aborted_at), k
