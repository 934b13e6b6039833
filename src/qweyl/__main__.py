"""Run the command-line front end as `python -m qweyl`."""

from .cli import main

if __name__ == "__main__":
    main()
