"""Storage substrates for the Data Tamer reproduction.

:class:`DocumentStore` is a sharded, extent-based semi-structured document
store standing in for the MongoDB cluster that held the ``dt.instance``
(WEBINSTANCE) and ``dt.entity`` (WEBENTITIES) collections.  Its
``Collection.stats()`` output mirrors ``db.collection.stats()`` so the
paper's Tables I and II can be regenerated directly.  The SQL frontend
(:mod:`repro.sql`) executes over columns of the pinned entity snapshot, not
over a store of its own.
"""

from .document_store import Collection, CollectionStats, DocumentStore
from .index import HashIndex, InvertedIndex
from .persistence import dump_collection, dump_store, load_collection, load_store
from .sharding import ExtentAllocator, ShardRouter

__all__ = [
    "Collection",
    "CollectionStats",
    "DocumentStore",
    "dump_collection",
    "dump_store",
    "load_collection",
    "load_store",
    "HashIndex",
    "InvertedIndex",
    "ExtentAllocator",
    "ShardRouter",
]
