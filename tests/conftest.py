"""Fixtures for every test module."""

import os

import pytest

from rotkit import labels


@pytest.fixture(autouse=True)
def no_stack_cache(monkeypatch):
    # The stack cache off (labels._read_stack): a test that reads one file
    # twice would take the second read from the cache and never fork, so it
    # would not test the read path it names.  A command run in a child
    # interpreter gets a cache directory that cannot be made, so that its
    # every read is a miss and nothing is written under the home directory.
    # test_cache.py turns the cache back on in tmp_path.
    monkeypatch.setattr(labels, "_cache_dir", lambda: None)
    monkeypatch.setenv("ROTKIT_CACHE_DIR", os.path.join(os.devnull, "rotkit"))
