import pytest

from ccyclic import degree_sequences


@pytest.fixture(autouse=True)
def fresh_run_choices():
    """Each test starts and ends with an empty cache of checked run choices.

    Tests that patch ``_run_choices`` must see their patch called, and must
    leave no list made under it for a later test to read.
    """
    degree_sequences._checked_choices.cache_clear()
    yield
    degree_sequences._checked_choices.cache_clear()
