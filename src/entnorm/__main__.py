"""``python -m entnorm``: the ent-norm command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
