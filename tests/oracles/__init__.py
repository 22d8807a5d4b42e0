"""Reference implementations the fast paths are held to in tests."""
