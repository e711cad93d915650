"""Tests for the Master Task Queue: Table III fields and the Fig. 3 state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.exceptions import ExceptionType
from repro.cpu.mtq import MTQState, MasterTaskQueue, NULL_ASID, StatusWord


class TestStatusWord:
    def test_pack_unpack_roundtrip(self):
        word = StatusWord(valid=True, done=True, asid=17, exception_en=True,
                          exception_type=ExceptionType.BUS_ERROR)
        assert StatusWord.unpack(word.pack()) == word

    @given(
        valid=st.booleans(), done=st.booleans(), asid=st.integers(0, 0xFFFE),
        exc=st.sampled_from(list(ExceptionType)),
    )
    def test_roundtrip_property(self, valid, done, asid, exc):
        word = StatusWord(valid=valid, done=done, asid=asid,
                          exception_en=exc is not ExceptionType.NONE, exception_type=exc)
        assert StatusWord.unpack(word.pack()) == word


class TestAllocation:
    def test_allocate_returns_maids_in_order(self):
        mtq = MasterTaskQueue(num_entries=4)
        assert [mtq.allocate(0) for _ in range(4)] == [0, 1, 2, 3]

    def test_allocate_when_full_returns_none(self):
        mtq = MasterTaskQueue(num_entries=2)
        mtq.allocate(0)
        mtq.allocate(0)
        assert mtq.allocate(0) is None

    def test_new_entry_fields_match_table3(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=5)
        entry = mtq.entries[maid]
        assert entry.valid and not entry.done
        assert entry.asid == 5
        assert not entry.exception_en
        assert entry.exception_type is ExceptionType.NONE

    def test_free_entry_has_null_asid(self):
        mtq = MasterTaskQueue()
        assert all(entry.asid == NULL_ASID for entry in mtq.entries)

    def test_invalid_asid_rejected(self):
        with pytest.raises(ValueError):
            MasterTaskQueue().allocate(NULL_ASID)


class TestFig3StateMachine:
    """The four numbered transitions of the paper's Fig. 3."""

    def test_state1_task_performing(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=0)
        assert mtq.state_of(maid) is MTQState.RUNNING

    def test_state2_done_released_by_owner_ma_state(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=0)
        mtq.mark_done(maid)
        assert mtq.state_of(maid) is MTQState.DONE
        status = StatusWord.unpack(mtq.query_and_release(maid, asid=0))
        assert status.done and status.asid == 0
        assert mtq.state_of(maid) is MTQState.FREE

    def test_state3_entry_reused_by_other_process_asid_mismatch(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=0)
        mtq.mark_done(maid)
        mtq.query_and_release(maid, asid=0)
        # Process #01 grabs the same entry; process #00's later query sees the mismatch.
        new_maid = mtq.allocate(asid=1)
        assert new_maid == maid
        status = StatusWord.unpack(mtq.query(maid))
        assert status.asid == 1  # ASID no longer matches process #00
        # A release attempt by the old owner must not free the new owner's entry.
        mtq.query_and_release(maid, asid=0)
        assert mtq.state_of(maid) is MTQState.RUNNING

    def test_state4_exception_requires_ma_clear(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=0)
        mtq.mark_done(maid, ExceptionType.PAGE_FAULT)
        assert mtq.state_of(maid) is MTQState.DONE_EXCEPTION
        status = StatusWord.unpack(mtq.query_and_release(maid, asid=0))
        assert status.exception_en
        assert status.exception_type is ExceptionType.PAGE_FAULT
        # MA_STATE does not release an excepted entry; MA_CLEAR does.
        assert mtq.state_of(maid) is MTQState.DONE_EXCEPTION
        mtq.clear(maid)
        assert mtq.state_of(maid) is MTQState.FREE

    def test_entries_survive_process_switches(self):
        """MTQ state is keyed by MAID, not by the running process (Section III.C)."""
        mtq = MasterTaskQueue()
        maid_a = mtq.allocate(asid=0)
        maid_b = mtq.allocate(asid=1)
        mtq.mark_done(maid_a)
        # Process 1 querying its own entry does not disturb process 0's entry.
        mtq.query(maid_b)
        status_a = StatusWord.unpack(mtq.query_and_release(maid_a, asid=0))
        assert status_a.done and status_a.asid == 0


class TestQueries:
    def test_query_does_not_release(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=0)
        mtq.mark_done(maid)
        mtq.query(maid)
        assert mtq.state_of(maid) is MTQState.DONE

    def test_release_requires_done(self):
        mtq = MasterTaskQueue()
        maid = mtq.allocate(asid=0)
        mtq.query_and_release(maid, asid=0)
        assert mtq.state_of(maid) is MTQState.RUNNING

    def test_mark_done_on_free_entry_rejected(self):
        mtq = MasterTaskQueue()
        with pytest.raises(ValueError):
            mtq.mark_done(0)

    def test_out_of_range_maid_rejected(self):
        mtq = MasterTaskQueue(num_entries=2)
        with pytest.raises(ValueError):
            mtq.query(5)

    def test_outstanding_tasks(self):
        mtq = MasterTaskQueue()
        a = mtq.allocate(asid=0)
        mtq.allocate(asid=0)
        mtq.mark_done(a)
        assert mtq.outstanding_tasks() == 1


class TestMTQProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["alloc", "done", "state", "clear"]), min_size=1, max_size=60))
    def test_entry_counts_stay_consistent(self, operations):
        mtq = MasterTaskQueue(num_entries=4)
        live = []
        for op in operations:
            if op == "alloc":
                maid = mtq.allocate(asid=0)
                if maid is not None:
                    live.append(maid)
            elif op == "done" and live:
                mtq.mark_done(live[0])
            elif op == "state" and live:
                mtq.query_and_release(live[0], asid=0)
                if mtq.state_of(live[0]) is MTQState.FREE:
                    live.pop(0)
            elif op == "clear" and live:
                mtq.clear(live.pop(0))
            free = sum(1 for e in mtq.entries if e.state is MTQState.FREE)
            assert free == len(mtq) - len(live)
