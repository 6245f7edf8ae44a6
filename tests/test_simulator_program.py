"""Tests for repro.simulator.program."""

from __future__ import annotations

import pytest

from repro.simulator.program import CommunicationProgram, SendInstruction


class TestSendInstruction:
    def test_valid(self):
        instruction = SendInstruction(destination=3, message_size=100, tag="x")
        assert instruction.destination == 3

    def test_rejects_negative_destination(self):
        with pytest.raises(ValueError):
            SendInstruction(destination=-1, message_size=100)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            SendInstruction(destination=0, message_size=-1)

    def test_rejects_non_int_destination(self):
        with pytest.raises(TypeError):
            SendInstruction(destination=1.5, message_size=100)  # type: ignore[arg-type]


class TestProgramConstruction:
    def test_add_send_appends_in_order(self):
        program = CommunicationProgram(num_ranks=4, root=0)
        program.add_send(0, 1, 100)
        program.add_send(0, 2, 100)
        assert [i.destination for i in program.sends_of(0)] == [1, 2]

    def test_add_send_rejects_self(self):
        program = CommunicationProgram(num_ranks=4, root=0)
        with pytest.raises(ValueError):
            program.add_send(1, 1, 100)

    def test_add_send_rejects_out_of_range(self):
        program = CommunicationProgram(num_ranks=4, root=0)
        with pytest.raises(ValueError):
            program.add_send(0, 9, 100)
        with pytest.raises(ValueError):
            program.add_send(9, 0, 100)

    def test_rejects_invalid_root(self):
        with pytest.raises(ValueError):
            CommunicationProgram(num_ranks=4, root=7)

    def test_constructor_validates_preloaded_sends(self):
        with pytest.raises(ValueError):
            CommunicationProgram(
                num_ranks=2, root=0, sends={0: [SendInstruction(destination=5, message_size=1)]}
            )

    def test_totals(self):
        program = CommunicationProgram(num_ranks=4, root=0)
        program.add_send(0, 1, 100)
        program.add_send(1, 2, 300)
        assert program.total_messages() == 2
        assert program.total_bytes() == 400
        assert program.receivers() == {1, 2}

    def test_sends_of_unknown_rank_is_empty(self):
        program = CommunicationProgram(num_ranks=4, root=0)
        assert program.sends_of(3) == []


class TestBroadcastValidation:
    def test_valid_broadcast_chain(self):
        program = CommunicationProgram(num_ranks=3, root=0)
        program.add_send(0, 1, 10)
        program.add_send(1, 2, 10)
        program.validate_broadcast()

    def test_detects_unreached_rank(self):
        program = CommunicationProgram(num_ranks=3, root=0)
        program.add_send(0, 1, 10)
        with pytest.raises(ValueError, match="never receive"):
            program.validate_broadcast()

    def test_detects_duplicate_delivery(self):
        program = CommunicationProgram(num_ranks=3, root=0)
        program.add_send(0, 1, 10)
        program.add_send(0, 2, 10)
        program.add_send(1, 2, 10)
        with pytest.raises(ValueError, match="more than once"):
            program.validate_broadcast()

    def test_detects_root_receiving(self):
        program = CommunicationProgram(num_ranks=2, root=0)
        program.add_send(1, 0, 10)
        with pytest.raises(ValueError, match="root must not receive"):
            program.validate_broadcast()

    def test_detects_disconnected_sender(self):
        program = CommunicationProgram(num_ranks=4, root=0)
        program.add_send(0, 1, 10)
        program.add_send(0, 2, 10)
        program.sends[3] = [SendInstruction(destination=2, message_size=10)]
        with pytest.raises(ValueError):
            program.validate_broadcast()


class TestArrayForm:
    """The flat CSR form built by :meth:`CommunicationProgram.from_arrays`."""

    def test_stable_sort_by_sender_keeps_emission_order(self):
        program = CommunicationProgram.from_arrays(
            4, 0, [2, 0, 2, 0], [3, 1, 1, 2], [1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0],
            ("a", "b"),
        )
        assert program.indptr.tolist() == [0, 2, 2, 4, 4]
        assert program.sends == {
            0: [SendInstruction(1, 2.0, "a"), SendInstruction(2, 4.0, "a")],
            2: [SendInstruction(3, 1.0, "b"), SendInstruction(1, 3.0, "b")],
        }
        assert program.total_messages() == 4
        assert not program.dest.flags.writeable

    def test_add_send_appends_after_array_messages(self):
        program = CommunicationProgram.from_arrays(3, 0, [0], [1], 5, 0, ("x",))
        program.add_send(0, 2, 7, tag="y")
        program.add_send(1, 2, 9)
        assert program.total_messages() == 3
        assert [(i.destination, i.tag) for i in program.sends_of(0)] == [(1, "x"), (2, "y")]
        assert program.tags == ("x", "y", "")
        assert program == CommunicationProgram(
            num_ranks=3,
            root=0,
            sends={
                0: [SendInstruction(1, 5, "x"), SendInstruction(2, 7, "y")],
                1: [SendInstruction(2, 9)],
            },
        )

    def test_pickle_round_trip(self):
        import pickle

        program = CommunicationProgram(num_ranks=3, root=0, name="p")
        program.add_send(0, 1, 10)
        program.add_send(1, 2, 10, tag="t")
        assert pickle.loads(pickle.dumps(program)) == program

    @pytest.mark.parametrize(
        ("arrays", "error"),
        [
            (([0], [4], 1.0, 0), ValueError),  # destination out of range
            (([-1], [1], 1.0, 0), ValueError),  # sender out of range
            (([2], [2], 1.0, 0), ValueError),  # self-send
            (([0], [1], -1.0, 0), ValueError),  # negative size
            (([0], [1], float("nan"), 0), ValueError),  # non-finite size
            (([0], [1], 1.0, 1), ValueError),  # unknown tag code
            (([0, 1], [1], 1.0, 0), ValueError),  # length mismatch
            (([0.0], [1], 1.0, 0), TypeError),  # non-integer ranks
        ],
    )
    def test_rejects_malformed_arrays(self, arrays, error):
        senders, dest, size, tag_code = arrays
        with pytest.raises(error):
            CommunicationProgram.from_arrays(4, 0, senders, dest, size, tag_code, ("t",))

    @pytest.mark.parametrize(
        ("num_ranks", "senders", "dest", "match"),
        [
            (3, [0, 1], [1, 2], None),
            (3, [0], [1], "never receive"),
            (3, [0, 0, 1], [1, 2, 2], "more than once"),
            (2, [1], [0], "root must not receive"),
            # Every rank receives once, but 2 and 3 only feed each other.
            (4, [0, 2, 3], [1, 3, 2], "have sends but never receive"),
        ],
    )
    def test_broadcast_validation_of_array_programs(self, num_ranks, senders, dest, match):
        program = CommunicationProgram.from_arrays(num_ranks, 0, senders, dest, 10, 0, ("",))
        if match is None:
            program.validate_broadcast()
        else:
            with pytest.raises(ValueError, match=match):
                program.validate_broadcast()
