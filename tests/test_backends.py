"""The package exports the name of its stepping kernel."""


def test_current_backend_exported():
    from cornerimpact import BACKEND

    assert BACKEND == "numpy"
