"""``python -m li_qt ...`` runs the ``li-qt`` command line."""

from .io_cli import main

if __name__ == "__main__":
    main()
