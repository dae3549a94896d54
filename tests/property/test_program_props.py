"""Property-based tests on warp-program and segment structure."""

from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import COMPUTE_OPCODES
from repro.isa.program import MemAccess, Segment, WarpProgram

compute_ops = st.sampled_from(COMPUTE_OPCODES)
accesses = st.lists(
    st.builds(
        MemAccess,
        address=st.integers(min_value=0, max_value=1 << 20).map(
            lambda line: line * 128
        ),
        size=st.just(128),
        is_store=st.booleans(),
    ),
    max_size=4,
).map(tuple)
segment_lists = st.lists(
    st.builds(
        Segment,
        compute=st.dictionaries(
            compute_ops, st.integers(min_value=0, max_value=16), max_size=4
        ),
        accesses=accesses,
    ),
    min_size=1,
    max_size=16,
)


class TestFoldingProperties:
    """Program totals fold the per-segment counts, in segment order."""

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_instruction_count_preserved(self, segments):
        program = WarpProgram(segments)
        assert program.total_instructions == sum(
            sum(segment.compute.values()) + len(segment.accesses)
            for segment in segments
        )

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_access_count_preserved(self, segments):
        program = WarpProgram(segments)
        assert program.total_accesses == sum(
            len(segment.accesses) for segment in segments
        )

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_access_order_preserved(self, segments):
        program = WarpProgram(segments)
        original = [
            (a.address, a.is_store)
            for segment in segments
            for a in segment.accesses
        ]
        folded = [
            (a.address, a.is_store)
            for segment in program
            for a in segment.accesses
        ]
        assert folded == original

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_issue_slots_at_least_instruction_count(self, segments):
        """Issue weights are >= 1, so slots bound instructions from above."""
        program = WarpProgram(segments)
        total_slots = sum(segment.issue_slots for segment in program)
        assert total_slots >= program.total_instructions - 1e-9


class TestSegmentProperties:
    @given(
        st.dictionaries(compute_ops, st.integers(min_value=0, max_value=100),
                        max_size=5),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_totals_consistent(self, compute, num_accesses):
        accesses = tuple(
            MemAccess(address=i * 128, size=128) for i in range(num_accesses)
        )
        segment = Segment(compute=compute, accesses=accesses)
        assert segment.total_instructions == (
            sum(compute.values()) + num_accesses
        )
        assert segment.compute_instructions == sum(compute.values())
        expected_slots = sum(
            count * opcode.issue_weight for opcode, count in compute.items()
        ) + num_accesses
        assert abs(segment.issue_slots - expected_slots) < 1e-9
