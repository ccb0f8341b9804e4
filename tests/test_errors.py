"""Tests for the exception hierarchy."""


from repro import errors


def test_all_errors_derive_from_tamer_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if (
            isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj is not Exception
        ):
            assert issubclass(obj, errors.TamerError), name


def test_collection_not_found_carries_name():
    err = errors.CollectionNotFound("instance")
    assert err.name == "instance"
    assert "instance" in str(err)


def test_document_not_found_carries_id():
    err = errors.DocumentNotFound(42)
    assert err.doc_id == 42


def test_duplicate_document_id_carries_id():
    err = errors.DuplicateDocumentId("x")
    assert err.doc_id == "x"


def test_unknown_attribute_carries_name():
    err = errors.UnknownAttribute("price")
    assert err.name == "price"


def test_unknown_source_carries_id():
    err = errors.UnknownSource("src1")
    assert err.source_id == "src1"


def test_not_fitted_error_message_mentions_fit():
    err = errors.NotFittedError("MyModel")
    assert "fit()" in str(err)
    assert "MyModel" in str(err)


def test_storage_errors_are_catchable_as_storage_error():
    assert issubclass(errors.CollectionNotFound, errors.StorageError)
    assert issubclass(errors.IndexError_, errors.StorageError)


def test_schema_errors_are_catchable_as_schema_error():
    assert issubclass(errors.UnknownAttribute, errors.SchemaError)
    assert issubclass(errors.MappingConflict, errors.SchemaError)


def test_cleaning_transform_hierarchy():
    assert issubclass(errors.TransformError, errors.CleaningError)


def test_expert_hierarchy():
    assert issubclass(errors.NoExpertAvailable, errors.ExpertError)
