"""Storage substrates for the Data Tamer reproduction.

Two storage engines live here; the first backs the system:

* :class:`DocumentStore` — a sharded, extent-based semi-structured document
  store standing in for the MongoDB cluster that held the ``dt.instance``
  (WEBINSTANCE) and ``dt.entity`` (WEBENTITIES) collections.  Its
  ``Collection.stats()`` output mirrors ``db.collection.stats()`` so the
  paper's Tables I and II can be regenerated directly.
* :class:`RelationalStore` — a small in-memory relational engine.  Nothing
  in the system writes to it any more (the SQL frontend executes over
  columns of the pinned entity snapshot); only its own tests use it.
"""

from .document_store import Collection, CollectionStats, DocumentStore
from .index import HashIndex, InvertedIndex
from .persistence import dump_collection, dump_store, load_collection, load_store
from .relational import Column, RelationalStore, Row, Table
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
    "Column",
    "RelationalStore",
    "Row",
    "Table",
    "ExtentAllocator",
    "ShardRouter",
]
