"""A store keeps its last encoding and reads records out of it.

While every table is a codec state table, :meth:`StateStore.encoded`
patches the records written since the previous encoding into that
encoding instead of encoding the state again, and a checkpoint laid out
like the scheme's own is adopted on reload, not decoded.  Nothing a
caller can observe may tell the two paths apart: every encoding equals
``encode(store.snapshot())``, and a store restored from an image answers
every query exactly as one restored from the decoded dict does.  The
loud paths keep the decoder's contract: bytes laid out otherwise go
through :func:`decode`, and what does not decode is a
:class:`CorruptSegmentError` naming the segment.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SCHEMES, GrepSum
from repro.engine.events import Event
from repro.engine.execution import execute_tpg, preprocess
from repro.engine.functions import register_state_function
from repro.engine.operations import Operation
from repro.engine.refs import StateRef
from repro.engine.serial import execute_serial
from repro.engine.state import StateStore
from repro.engine.tpg import build_tpg
from repro.engine.transactions import Transaction
from repro.errors import CorruptSegmentError, TransactionError
from repro.storage.codec import Encoded, StateImage, decode, encode, layout_of
from repro.storage.device import StorageDevice
from repro.storage.stores import SnapshotStore
from tests.reference_codec import reference_encode

#: A state function whose result is an ``int``: no state table holds it.
register_state_function("test_state_image_truncate", lambda own, reads, params: int(own))


def _restored(state) -> StateStore:
    store = StateStore()
    store.restore(state)
    return store


def _adopted(state) -> StateStore:
    """A store restored from the image of ``state``'s encoding."""
    data = encode(state)
    return _restored(layout_of(data, state).adopt(data))


def _decoded(state) -> StateStore:
    """A store restored from the decoded encoding of ``state``."""
    return _restored(decode(encode(state)))


def _answers(store: StateStore, state, probe_value: float):
    """Everything a caller can ask ``store``, in order, then the same
    after the first write to a record never read."""
    out = []
    for name, records in state.items():
        for key in records:
            ref = StateRef(name, key)
            out.append(("get", ref, store.get(ref), store.peek(ref)))
        for bad in (StateRef(name, 2**40), StateRef(name, "A")):
            with pytest.raises(TransactionError):
                store.get(bad)
            with pytest.raises(TransactionError):
                store.set(bad, 1.0)
            out.append(("peek", bad, store.peek(bad)))
    with pytest.raises(TransactionError):
        store.get(StateRef("no such table", 0))
    out.append(("refs", list(store.refs())))
    out.append(("snapshot", list(store.snapshot().items())))
    twin = _decoded(state)
    out.append(("equals", store.equals(twin), twin.equals(store)))
    # The first write to a record never read, then everything again.
    name, records = next(iter(state.items()))
    ref = StateRef(name, max(records))
    store.set(ref, probe_value)
    twin.set(ref, probe_value)
    out.append(("diff", store.diff(twin), store.diff(_decoded(state))))
    out.append(("after write", list(store.snapshot().items()), store.get(ref)))
    return out


_keys = st.one_of(
    st.integers(0, 255), st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1)
)
_tables = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.dictionaries(_keys, st.floats(allow_nan=False), min_size=1, max_size=12),
    min_size=1,
    max_size=3,
)


@given(_tables, st.floats(allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_an_image_restored_store_answers_as_a_dict_restored_one(state, probe):
    assert _answers(_adopted(state), state, probe) == _answers(
        _decoded(state), state, probe
    )


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, 2),
            st.integers(0, 11),
            st.one_of(st.floats(allow_nan=False), st.integers(-3, 3)),
        ),
        st.tuples(st.sampled_from(["encode", "restore", "restore-image"])),
    ),
    max_size=25,
)


@given(_tables, _steps)
@settings(max_examples=80, deadline=None)
def test_every_encoding_is_the_encoding_of_the_snapshot(state, steps):
    """Random interleavings of writes, restores (from a dict and from an
    image) and encodings over one to three tables, against a model
    dict: each encoding equals ``encode`` of the model, and the store
    agrees with a dict-restored twin after every step."""
    model = {name: dict(records) for name, records in state.items()}
    store = StateStore(model)
    names = sorted(model)
    for step in steps:
        if step[0] == "set":
            _, table, index, value = step
            name = names[table % len(names)]
            keys = sorted(model[name])
            key = keys[index % len(keys)]
            store.set(StateRef(name, key), value)
            model[name][key] = value
        elif step[0] == "encode":
            data = store.encoded()
            assert data == encode(model)
            assert data == encode(store.snapshot())
        elif step[0] == "restore":
            store.restore(decode(encode(model)))
        else:
            data = encode(model)
            layout = layout_of(data, model)
            store.restore(decode(data) if layout is None else layout.adopt(data))
        assert store.snapshot() == model
        assert store.equals(_decoded(model)) and _decoded(model).equals(store)
        assert sorted(store.refs()) == sorted(_decoded(model).refs())
    assert store.encoded() == encode(model)


def _grep_sum(keys: int = 64) -> GrepSum:
    return GrepSum(keys, list_len=4, skew=0.2, multi_partition_ratio=0.5, abort_ratio=0.0)


def _checkpointed_scheme(epochs: int = 4):
    """CKPT on a small Grep&Sum state: checkpoints after epochs 2 and 5."""
    workload = _grep_sum()
    scheme = SCHEMES["CKPT"](
        workload, num_workers=4, epoch_len=32, snapshot_interval=3,
        gc_keep_checkpoints=2,
    )
    scheme.process_stream(workload.generate(32 * epochs, seed=7))
    return workload, scheme


class TestAdoption:
    def test_a_checkpoint_laid_out_like_the_scheme_s_own_is_adopted(self):
        _workload, scheme = _checkpointed_scheme()
        state, _io = scheme.disk.snapshots.load(2, scheme.state_layout)
        assert isinstance(state, StateImage)
        assert StateStore(scheme.disk.snapshots.load(2)[0]).equals(_restored(state))

    def test_recovery_from_an_adopted_checkpoint_is_exact(self):
        workload, scheme = _checkpointed_scheme(epochs=7)
        scheme.crash()
        report = scheme.recover()
        assert report.checkpoint_epoch == 5 and report.ladder == {"fast": 1}
        serial = workload.initial_state()
        execute_serial(serial, preprocess(workload.generate(32 * 7, seed=7), workload, 0))
        assert scheme.store.equals(serial)
        # The recovered store goes on patching the adopted bytes.
        assert scheme.store.encoded() == encode(scheme.store.snapshot())

    def test_other_non_value_bytes_go_through_decode(self):
        """A CRC-valid full snapshot written under the general dict tag
        (the layout older builds wrote) is decoded, not adopted."""
        state = {"records": {k: float(k) for k in range(64)}}
        layout = layout_of(encode(state), state)
        snapshots = SnapshotStore(StorageDevice())
        snapshots.put(0, Encoded(reference_encode(state)))
        loaded, _io = snapshots.load(0, layout)
        assert not isinstance(loaded, StateImage)
        assert loaded == state

    def test_undecodable_bytes_name_the_segment_and_the_ladder_falls_back(self):
        """Key column bytes that repeat a key: not the scheme's layout,
        so decoded, which refuses them by segment; recovery then loads
        the older checkpoint and replays from there."""
        workload, scheme = _checkpointed_scheme(epochs=7)
        data = bytearray(encode(scheme.disk.snapshots.load(5)[0]))
        index, values_at = scheme.state_layout.tables["records"]
        keys_at = values_at - len(index)  # 64 keys: one byte each
        data[keys_at + 1] = data[keys_at]
        scheme.disk.snapshots.put(5, Encoded(bytes(data)))
        with pytest.raises(CorruptSegmentError, match="full snapshot epoch 5"):
            scheme.disk.snapshots.load(5, scheme.state_layout)
        scheme.crash()
        report = scheme.recover()
        assert report.checkpoint_epoch == 2 and report.checkpoint_fallbacks == 1
        assert report.epochs_replayed == 4


class TestFullReencode:
    def test_a_non_float_write_forces_a_full_encoding(self):
        store = StateStore({"t": {0: 1.5, 1: 2.5}})
        assert store.encoded() == encode(store.snapshot())
        assert store.layout is not None
        op = Operation(0, 0, 0, StateRef("t", 1), "test_state_image_truncate", ())
        execute_tpg(store, build_tpg([Transaction(0, 0, Event(0, "x", ()), (op,))]))
        assert store.get(StateRef("t", 1)) == 2 and type(store.get(StateRef("t", 1))) is int
        assert store.encoded() == encode(store.snapshot()) == encode({"t": {0: 1.5, 1: 2}})
        assert store.layout is None
        # A float again: the next encoding starts a new image.
        store.set(StateRef("t", 1), 4.0)
        assert store.encoded() == encode({"t": {0: 1.5, 1: 4.0}})
        assert store.layout is not None

    def test_a_non_table_state_never_takes_the_image_path(self):
        """The ``{"A": 5.0}`` shape of the timing tests: str keys."""
        store = StateStore({"t": {"A": 5.0, "B": 5.0}})
        op = Operation(0, 0, 0, StateRef("t", "A"), "deposit", (1.0,))
        execute_tpg(store, build_tpg([Transaction(0, 0, Event(0, "d", ()), (op,))]))
        assert store.encoded() == encode({"t": {"A": 6.0, "B": 5.0}})
        assert store.layout is None
        assert layout_of(store.encoded(), store.snapshot()) is None
        snapshots = SnapshotStore(StorageDevice())
        snapshots.put(0, Encoded(store.encoded()))
        table_layout = layout_of(encode({"t": {0: 1.0}}), {"t": {0: 1.0}})
        assert snapshots.load(0, table_layout)[0] == {"t": {"A": 6.0, "B": 5.0}}
