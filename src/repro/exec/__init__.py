"""Parallel sharded execution engine.

The paper's deployment spreads WEBINSTANCE/WEBENTITIES over sharded 2 GB
extents and curates them with distributed workers; this package is the
laptop-scale analogue.  :class:`ShardedExecutor` deterministically partitions
work items over shards (reusing the storage layer's
:class:`~repro.storage.sharding.ShardRouter`) and runs them inline at
``parallelism == 1`` or on one persistent warm-worker process pool above
it, with a stable-ordered merge, so every parallel code path in the system
is bit-identical to its sequential counterpart.  :class:`BatchScorer`
scores candidate pairs on that executor and caches normalized tokenization
so repeated attribute values are tokenized once, not once per pair.
"""

from .executor import ShardedExecutor, ShardTiming
from .batch import BatchScorer, cached_tokenize, clear_token_cache, token_cache_info
from .pool import PersistentWorkerPool, PoolTaskTiming

__all__ = [
    "BatchScorer",
    "PersistentWorkerPool",
    "PoolTaskTiming",
    "ShardedExecutor",
    "ShardTiming",
    "cached_tokenize",
    "clear_token_cache",
    "token_cache_info",
]
