"""`python -m sdkit VERB ...` runs the sdkit command line."""
from .cli import main

if __name__ == "__main__":
    main()
