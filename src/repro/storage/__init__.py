"""Storage substrates: cuckoo directory, block KV store, attribute store,
binary checkpointing, and the per-shard write-ahead log."""

from repro.storage.attributes import AttributeSchema, AttributeStore
from repro.storage.checkpoint import load_store, save_store
from repro.storage.cuckoo import CuckooHashMap
from repro.storage.kvstore import BlockKVStore
from repro.storage.wal import ShardWAL

__all__ = [
    "AttributeSchema",
    "AttributeStore",
    "load_store",
    "save_store",
    "CuckooHashMap",
    "BlockKVStore",
    "ShardWAL",
]
