"""Reference implementations the differential tests compare ``src/`` against."""
