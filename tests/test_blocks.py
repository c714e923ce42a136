"""Data blocks: reference counting, copy-on-write, wrapping."""

import copy
import sys
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.blocks import (
    DataBlock,
    copy_payload,
    payload_nbytes,
    release,
    retain,
    unwrap,
    value_nbytes,
    wrap_payload,
)
from repro.runtime.values import NULL, MultiValue, OperatorValue

from tests.conftest import recursive_payload_nbytes


class TestDataBlock:
    def test_fresh_block_has_zero_refs(self):
        assert DataBlock([1, 2]).rc == 0

    def test_unique_iff_rc_one(self):
        block = DataBlock([1])
        block.rc = 1
        assert block.unique()
        block.rc = 2
        assert not block.unique()

    def test_copy_isolates_list_payload(self):
        block = DataBlock([1, [2]])
        clone = block.copy()
        clone.payload[1].append(3)
        assert block.payload == [1, [2]]

    def test_copy_isolates_numpy_payload(self):
        block = DataBlock(np.zeros(4))
        clone = block.copy()
        clone.payload[0] = 9.0
        assert block.payload[0] == 0.0

    def test_copy_starts_unreferenced(self):
        block = DataBlock([1])
        block.rc = 5
        assert block.copy().rc == 0

    def test_nbytes_numpy_exact(self):
        assert DataBlock(np.zeros(10, dtype=np.float64)).nbytes == 80


class TestRetainRelease:
    def test_retain_release_block(self):
        block = DataBlock([1])
        retain(block, 3)
        assert block.rc == 3
        release(block, 2)
        assert block.rc == 1

    def test_retain_recurses_into_multivalue(self):
        a, b = DataBlock([1]), DataBlock([2])
        mv = MultiValue((a, 5, b))
        retain(mv, 2)
        assert a.rc == 2 and b.rc == 2

    def test_nested_multivalue(self):
        a = DataBlock([1])
        mv = MultiValue((MultiValue((a,)),))
        retain(mv)
        assert a.rc == 1

    def test_retain_zero_is_noop(self):
        block = DataBlock([1])
        retain(block, 0)
        assert block.rc == 0

    def test_negative_rc_raises_runtime_error(self):
        # A real error, not an assert: must fire even under ``python -O``.
        block = DataBlock([1])
        with pytest.raises(RuntimeError, match="went negative"):
            release(block, 1)

    def test_negative_rc_restores_count(self):
        block = DataBlock([1])
        retain(block, 1)
        with pytest.raises(RuntimeError):
            release(block, 2)
        assert block.rc == 1  # the failed release must not corrupt rc

    def test_negative_rc_inside_multivalue(self):
        a = DataBlock([1])
        retain(a, 1)
        mv = MultiValue((a,))
        with pytest.raises(RuntimeError):
            release(mv, 2)

    def test_scalars_ignored(self):
        retain(42, 3)
        release("s", 0)
        retain(NULL, 2)  # must not raise


class TestWrapPayload:
    def test_immutable_atoms_pass_through(self):
        for value in (1, 2.5, "s", b"b", True, None):
            assert wrap_payload(value) is value

    def test_numpy_scalar_passes_through(self):
        v = np.float64(1.5)
        assert wrap_payload(v) is v

    def test_mutable_payloads_wrapped(self):
        for payload in ([1], {"a": 1}, np.zeros(3), bytearray(b"x")):
            wrapped = wrap_payload(payload)
            assert isinstance(wrapped, DataBlock)
            assert wrapped.payload is payload

    def test_tuple_becomes_multivalue(self):
        wrapped = wrap_payload((1, [2], "x"))
        assert isinstance(wrapped, MultiValue)
        assert wrapped.items[0] == 1
        assert isinstance(wrapped.items[1], DataBlock)

    def test_existing_wrappers_pass_through(self):
        block = DataBlock([1])
        assert wrap_payload(block) is block
        mv = MultiValue((1,))
        assert wrap_payload(mv) is mv
        op = OperatorValue("f")
        assert wrap_payload(op) is op
        assert wrap_payload(NULL) is NULL

    def test_home_recorded(self):
        assert wrap_payload([1], home=3).home == 3


class TestUnwrap:
    def test_block_unwraps_to_payload(self):
        payload = [1, 2]
        assert unwrap(DataBlock(payload)) is payload

    def test_multivalue_unwraps_to_tuple(self):
        mv = MultiValue((DataBlock([1]), 5))
        assert unwrap(mv) == ([1], 5)

    def test_atoms_unchanged(self):
        assert unwrap(7) == 7
        assert unwrap(NULL) is NULL


_Point = namedtuple("_Point", "x y")

_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
_leaves = st.one_of(
    _hashable_leaves,
    st.builds(np.zeros, st.integers(0, 40)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(bytearray, st.binary(max_size=12)),
    st.frozensets(st.integers(), max_size=4),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda t: _Point(*t)),
        st.sets(_hashable_leaves, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3).map(OrderedDict),
    ),
    max_leaves=40,
)


class TestSizes:
    def test_payload_nbytes_containers(self):
        assert payload_nbytes([np.zeros(10)]) > 80

    @settings(max_examples=300, deadline=None)
    @given(_payloads)
    def test_payload_nbytes_matches_the_recursive_definition(self, payload):
        assert payload_nbytes(payload) == recursive_payload_nbytes(payload)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(), max_size=12),  # one class: a queens board
        st.lists(st.one_of(_hashable_leaves, st.complex_numbers()), max_size=12),
        st.lists(st.lists(st.integers(), max_size=3), max_size=4),
        _payloads,
    ))
    def test_the_flat_list_path_is_the_walk(self, payload):
        # A list of atomics is sized without the walk; the sum must not move.
        assert payload_nbytes(payload) == recursive_payload_nbytes(payload)

    def test_payload_nbytes_counts_shared_children_once_per_path(self):
        shared = [1, 2, 3]
        payload = [shared, shared, {"k": shared}]
        assert payload_nbytes(payload) == recursive_payload_nbytes(payload)

    def test_payload_nbytes_walks_nesting_the_recursion_could_not(self):
        deep = []
        for _ in range(sys.getrecursionlimit() // 2):
            deep = [deep]
        assert payload_nbytes(deep) > 0

    def test_payload_nbytes_refuses_a_cyclic_container(self):
        loop = [1]
        loop.append(loop)
        with pytest.raises(RecursionError):
            payload_nbytes(loop)

    @pytest.mark.xfail(
        strict=True,
        reason="an application object is sized as its shell "
        "(sys.getsizeof); walking its fields moves the memory-path "
        "goldens and simulator tables — ROADMAP items 2(e) and 9(d)",
    )
    def test_payload_nbytes_sees_inside_an_application_object(self):
        from repro.apps.retina.model import Band

        band = Band(0, np.zeros((92, 320)), r0=0, r1=86, top_halo=0)
        assert payload_nbytes(band) >= band.rows.nbytes

    def test_block_of_cyclic_payload_is_only_refused_when_sized(self):
        loop = {}
        loop["self"] = loop
        block = DataBlock(loop)  # constructing measures nothing
        with pytest.raises(RecursionError):
            block.nbytes

    def test_value_nbytes_multivalue_sums(self):
        mv = MultiValue((DataBlock(np.zeros(10)), DataBlock(np.zeros(5))))
        assert value_nbytes(mv) == 120

    def test_value_nbytes_closure_is_small(self):
        assert value_nbytes(OperatorValue("x")) == 16

    def test_copy_payload_deepcopies_objects(self):
        class Thing:
            def __init__(self):
                self.data = [1]

        thing = Thing()
        clone = copy_payload(thing)
        clone.data.append(2)
        assert thing.data == [1]


class _Board(list):
    """A list subclass: may carry state a shallow copy would drop."""


_copyable = st.recursive(
    st.one_of(_hashable_leaves, st.builds(bytearray, st.binary(max_size=4))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=3).map(_Board),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_hashable_leaves, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3).map(OrderedDict),
    ),
    max_leaves=20,
)


def _shares_mutable_part(original, clone):
    """Walk two equal structures: is any mutable node the same object?"""
    if isinstance(original, (list, dict, bytearray)) and original is clone:
        return True
    if isinstance(original, dict):
        return any(
            _shares_mutable_part(original[k], clone[k]) for k in original
        )
    if isinstance(original, (list, tuple)):
        return any(map(_shares_mutable_part, original, clone))
    return False


class TestCopyPayload:
    @settings(max_examples=300, deadline=None)
    @given(_copyable)
    def test_equals_deepcopy_and_shares_nothing_mutable(self, payload):
        clone = copy_payload(payload)
        assert clone == copy.deepcopy(payload)
        assert type(clone) is type(payload)
        assert not _shares_mutable_part(payload, clone)

    def test_flat_list_and_dict_skip_deepcopy(self, monkeypatch):
        monkeypatch.setattr(copy, "deepcopy", None)  # would raise if called
        board = [1, 2.5, "q", b"x", None, True]
        assert copy_payload(board) == board
        assert copy_payload(board) is not board
        row = {"a": 1, 2: "b"}
        assert copy_payload(row) == row and copy_payload(row) is not row

    def test_subclasses_and_nested_containers_take_deepcopy(self, monkeypatch):
        calls = []
        real = copy.deepcopy
        monkeypatch.setattr(
            copy, "deepcopy", lambda p: calls.append(p) or real(p)
        )
        for payload in (_Board([1]), [[1]], {"k": [1]}, {(1, 2): 3}, [1, (2,)]):
            assert copy_payload(payload) == payload
        assert len(calls) == 5
