"""`python -m stegosampler`: the same command line as the `stegosampler` script."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
