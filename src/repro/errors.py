"""Exception hierarchy for the Data Tamer reproduction.

Every error raised by the library derives from :class:`TamerError` so callers
can catch one base class at integration boundaries while still being able to
discriminate by subsystem.
"""

from __future__ import annotations


class TamerError(Exception):
    """Base class for all errors raised by the library."""


class ConfigError(TamerError):
    """Raised when a configuration value is missing or invalid."""


class StorageError(TamerError):
    """Base class for storage-layer failures."""


class CollectionNotFound(StorageError):
    """Raised when a document collection name does not exist in the store."""

    def __init__(self, name: str):
        super().__init__(f"collection not found: {name!r}")
        self.name = name


class CollectionExists(StorageError):
    """Raised when creating a collection whose name is already taken."""

    def __init__(self, name: str):
        super().__init__(f"collection already exists: {name!r}")
        self.name = name


class DocumentNotFound(StorageError):
    """Raised when a document id cannot be resolved."""

    def __init__(self, doc_id: object):
        super().__init__(f"document not found: {doc_id!r}")
        self.doc_id = doc_id


class DuplicateDocumentId(StorageError):
    """Raised when inserting a document whose id is already present."""

    def __init__(self, doc_id: object):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class IndexError_(StorageError):
    """Raised for index creation or lookup failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class SchemaError(TamerError):
    """Base class for schema-integration failures."""


class UnknownAttribute(SchemaError):
    """Raised when referencing an attribute absent from the global schema."""

    def __init__(self, name: str):
        super().__init__(f"unknown global attribute: {name!r}")
        self.name = name


class MappingConflict(SchemaError):
    """Raised when two source attributes map to the same global attribute
    within one source in a way the integrator cannot reconcile."""


class IngestError(TamerError):
    """Raised when a source cannot be parsed, flattened or loaded."""


class ParserError(TamerError):
    """Raised by the domain-specific text parser on malformed input."""


class EntityResolutionError(TamerError):
    """Raised by blocking, similarity scoring or clustering failures."""


class ModelError(TamerError):
    """Raised by the ML substrate (untrained model, dimension mismatch)."""


class NotFittedError(ModelError):
    """Raised when predicting with a model that has not been trained."""

    def __init__(self, what: str = "model"):
        super().__init__(f"{what} has not been fitted; call fit() first")


class CleaningError(TamerError):
    """Raised by the data-cleaning and transformation engines."""


class TransformError(CleaningError):
    """Raised when a value cannot be transformed (bad unit, bad format)."""


class ExpertError(TamerError):
    """Raised by the expert-sourcing subsystem."""


class NoExpertAvailable(ExpertError):
    """Raised when a task cannot be routed to any registered expert."""


class QueryError(TamerError):
    """Raised by the query / fusion engine."""


class SqlError(QueryError):
    """Raised by the SQL frontend: lex, parse, bind or execution failures."""


class ServeError(TamerError):
    """Raised by the concurrent query-serving tier."""


class ProtocolError(ServeError):
    """Raised when a serve-tier request violates the JSON wire protocol."""


class Overloaded(ServeError):
    """Raised (or encoded on the wire) when admission control sheds load.

    ``retry_after`` is the server's backoff hint in seconds; clients with
    retry budget honour it before re-sending.
    """

    def __init__(self, message: str = "server overloaded", retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(ServeError):
    """Raised when a request misses its server-side evaluation deadline."""


class InjectedFault(TamerError):
    """Raised by the fault-injection harness at an armed fault point.

    Only ever raised when a :class:`repro.fault.FaultPlan` is active; the
    resilience policies under test must either recover from it or surface
    it as the subsystem's own error type.
    """

    def __init__(self, point: str, message: str = ""):
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


class ObsError(TamerError):
    """Raised by the observability layer (metrics registry, tracing)."""


class UnknownSource(TamerError):
    """Raised when an operation references a source id not in the catalog."""

    def __init__(self, source_id: str):
        super().__init__(f"unknown source: {source_id!r}")
        self.source_id = source_id
